// Google-benchmark micro-benchmarks of the substrates: generator throughput,
// extendible-hash operations, join-module tuple processing, and the message
// codecs. These bound the host-side cost of the execution-driven simulation
// (they are NOT paper figures; the fig*/ext* binaries are).
//
// Every benchmark runs several repetitions and reports the median and p95
// (obs::SampleQuantile) across them instead of a single noisy run; the
// aggregate rows are also recorded into the structured JSON report
// (deterministic=false: bench_diff checks structure, not wall timings).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/master_buffer.h"
#include "gen/stream_source.h"
#include "hash/extendible.h"
#include "join/join_module.h"
#include "net/codec.h"
#include "obs/quantiles.h"

namespace sjoin {
namespace {

/// Shared repetition/aggregate policy: medians over repetitions smooth the
/// host's scheduling noise; p95 exposes the tail. Quick mode trades
/// repetitions for runtime.
void WithStats(benchmark::internal::Benchmark* b) {
  b->Repetitions(bench::QuickMode() ? 3 : 7);
  b->ComputeStatistics("p95", [](const std::vector<double>& xs) {
    return obs::SampleQuantile(xs, 0.95);
  });
  b->ReportAggregatesOnly(true);
}

void BM_BModelNext(benchmark::State& state) {
  BModelGenerator gen(0.7, 10'000'000, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next());
  }
}
BENCHMARK(BM_BModelNext)->Apply(WithStats);

void BM_MergedSourceNext(benchmark::State& state) {
  MergedSource src(5000.0, 0.7, 10'000'000, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(src.Next());
  }
}
BENCHMARK(BM_MergedSourceNext)->Apply(WithStats);

void BM_ExtendibleFindAndSplit(benchmark::State& state) {
  using Dir = ExtendibleDirectory<std::vector<std::uint64_t>>;
  for (auto _ : state) {
    state.PauseTiming();
    Dir dir(12);
    Pcg32 rng(7, 1);
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      std::uint64_t h = rng.NextU64();
      dir.Find(h).bucket.push_back(h);
      if (dir.Find(h).bucket.size() > 16) {
        dir.Split(h, [](std::vector<std::uint64_t>&& from,
                        std::vector<std::uint64_t>& zero,
                        std::vector<std::uint64_t>& one, std::uint32_t bit) {
          for (std::uint64_t v : from) ((v >> bit) & 1 ? one : zero).push_back(v);
        });
      }
    }
    benchmark::DoNotOptimize(dir.BucketCount());
  }
}
BENCHMARK(BM_ExtendibleFindAndSplit)->Apply(WithStats);

/// One slave's join, fed one batch per second in the order a slave
/// receives it: the master files arrivals per partition and ships each
/// slave its partitions' runs concatenated in pid order
/// (MasterBuffer::Pending), so a batch visits one group's tuples together.
void BM_JoinModuleProcessTuple(benchmark::State& state) {
  SystemConfig cfg;
  cfg.join.window = 10 * kUsPerSec;
  cfg.join.num_partitions = 16;
  StatsSink sink;
  JoinModule jm(cfg, &sink);
  MergedSource src(5000.0, 0.7, 100'000, 3);
  MasterBuffer master(cfg.join.num_partitions, cfg.workload.tuple_bytes);
  std::vector<PartitionId> pids(cfg.join.num_partitions);
  std::iota(pids.begin(), pids.end(), PartitionId{0});
  std::vector<Rec> arrivals;
  std::vector<Rec> batch;
  Time horizon = 0;
  for (auto _ : state) {
    state.PauseTiming();
    arrivals.clear();
    horizon += kUsPerSec;
    src.DrainUntil(horizon, arrivals);
    for (const Rec& rec : arrivals) {
      master.Add(rec, PartitionOf(rec.key, cfg.join.num_partitions));
    }
    batch.clear();
    for (PartitionId pid : pids) {
      const std::span<const Rec> run = master.Pending(pid);
      batch.insert(batch.end(), run.begin(), run.end());
      master.ClearPartition(pid);
    }
    state.ResumeTiming();
    jm.EnqueueBatch(batch);
    jm.ProcessFor(horizon, 3600 * kUsPerSec);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jm.TuplesProcessed()));
}
BENCHMARK(BM_JoinModuleProcessTuple)
    ->Unit(benchmark::kMillisecond)
    ->Apply(WithStats);

void BM_TupleBatchEncodeDecode(benchmark::State& state) {
  TupleBatchMsg msg;
  Pcg32 rng(5, 9);
  for (int i = 0; i < 1000; ++i) {
    msg.recs.push_back(Rec{i, rng.NextU64(), static_cast<StreamId>(i % 2)});
  }
  for (auto _ : state) {
    Writer w(64 * 1024);
    Encode(w, msg, 64);
    Reader r(w.Bytes());
    TupleBatchMsg back = DecodeTupleBatch(r, 64);
    benchmark::DoNotOptimize(back.recs.size());
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(TupleBatchMsg::WireSize(1000, 64)));
}
BENCHMARK(BM_TupleBatchEncodeDecode)->Apply(WithStats);

/// Raw per-record codec throughput at the fig-6 wire size, with the Writer
/// reused across batches (Clear() keeps the allocation): isolates the
/// EncodeRec/DecodeRec padding fast path (PutZeros/Skip) from the batch
/// framing measured by BM_TupleBatchEncodeDecode.
void BM_RecCodecThroughput(benchmark::State& state) {
  Pcg32 rng(11, 3);
  std::vector<Rec> recs;
  for (int i = 0; i < 1000; ++i) {
    recs.push_back(Rec{i, rng.NextU64(), static_cast<StreamId>(i % 2)});
  }
  Writer w(64 * 1024);
  for (auto _ : state) {
    w.Clear();
    for (const Rec& rec : recs) EncodeRec(w, rec, 64);
    Reader r(w.Bytes());
    std::uint64_t keys = 0;
    for (int i = 0; i < 1000; ++i) keys += DecodeRec(r, 64).key;
    benchmark::DoNotOptimize(keys);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(1000 * 64));
}
BENCHMARK(BM_RecCodecThroughput)->Apply(WithStats);

/// Console output as usual, plus every finished (aggregate) run recorded as
/// one JSON row: [name, real_time, cpu_time, unit].
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(bench::Reporter* rep) : rep_(rep) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      rep_->CellText(run.benchmark_name());
      if (run.aggregate_unit == benchmark::kPercentage) {
        // A ratio (e.g. _cv): the console prints it as a percentage;
        // GetAdjusted*Time would rescale it as if it were a time.
        rep_->CellNum(100.0 * run.real_accumulated_time);
        rep_->CellNum(100.0 * run.cpu_accumulated_time);
        rep_->CellText("%");
      } else {
        rep_->CellNum(run.GetAdjustedRealTime());
        rep_->CellNum(run.GetAdjustedCPUTime());
        rep_->CellText(benchmark::GetTimeUnitString(run.time_unit));
      }
      rep_->EndRowQuiet();
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  bench::Reporter* rep_;
};

}  // namespace
}  // namespace sjoin

int main(int argc, char** argv) {
  using namespace sjoin;
  SystemConfig cfg;  // header context only; micro-benches set their own
  bench::Reporter rep("micro_benchmarks", "Micro",
                      "substrate micro-benchmarks (google-benchmark)",
                      "host-side substrate costs bounding the simulation; "
                      "median/p95 over repetitions",
                      cfg);
  rep.Deterministic(false);  // wall timings: structure-only in bench_diff
  rep.Columns({"name", "real_time", "cpu_time", "unit"});

  JsonTeeReporter tee(&rep);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks(&tee);
  benchmark::Shutdown();
  return rep.Finish();
}
