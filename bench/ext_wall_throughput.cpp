// Extension: wall-clock throughput of one slave's ingest->join pipeline.
//
// Shape: a producer thread streams pre-generated tuple batches through an
// in-process hub to a consumer thread running a JoinModule over a
// WorkerPool; both ends synchronize their start on a flag and the
// consumer's drain-to-drain wall time yields tuples/sec. Batch payloads
// carry only an (offset, count) window into the shared pre-generated record
// vector, so the measurement is the handoff + join pass, not codec cost.
//
// Two sweeps:
//   * default (what bench_all / CI runs): a tiny structural sweep --
//     exercises the full pipeline and emits the bench-JSON shape for
//     bench_diff, but makes no performance claim;
//   * --wall (or SJOIN_BENCH_WALL=1): the larger sweep -- workers x
//     offered-rate grid, >= 5 reps per point, median and p95 tuples/sec per
//     row. Host-dependent by construction (Deterministic(false)): bench_diff
//     checks structure only.
//
// Rate 0 means unpaced (producer pushes as fast as the mailbox accepts);
// a positive rate paces the producer to that offered tuples/sec, so the
// row reads as "does the pipeline keep up at this offer".
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/flags.h"
#include "core/worker_pool.h"
#include "gen/stream_source.h"
#include "join/join_module.h"
#include "join/sink.h"
#include "net/inproc_transport.h"
#include "obs/quantiles.h"

namespace {

using namespace sjoin;

struct SweepPoint {
  std::uint32_t workers = 1;
  double offered_tps = 0.0;  // 0 = unpaced
};

struct RepResult {
  double tuples_per_sec = 0.0;
  std::uint64_t outputs = 0;
};

/// Encodes the batch window (offset, count) as the message payload.
std::vector<std::uint8_t> BatchPayload(std::uint32_t offset,
                                       std::uint32_t count) {
  std::vector<std::uint8_t> p(8);
  std::memcpy(p.data(), &offset, 4);
  std::memcpy(p.data() + 4, &count, 4);
  return p;
}

/// One measured repetition: producer -> in-proc hub -> consumer(JoinModule).
RepResult RunRep(const SystemConfig& cfg, const std::vector<Rec>& recs,
                 const SweepPoint& pt, std::size_t batch) {
  using Clock = std::chrono::steady_clock;
  InProcHub hub(2);
  auto producer_ep = hub.Endpoint(0);
  auto consumer_ep = hub.Endpoint(1);

  std::atomic<std::uint32_t> ready{0};
  std::atomic<bool> go{false};
  RepResult res;

  std::thread producer([&] {
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const auto start = Clock::now();
    std::size_t sent = 0;
    while (sent < recs.size()) {
      const std::uint32_t n =
          static_cast<std::uint32_t>(std::min(batch, recs.size() - sent));
      if (pt.offered_tps > 0.0) {
        // Pace to the offered rate: batch i is due at start + sent/rate.
        const auto due =
            start + std::chrono::microseconds(static_cast<std::int64_t>(
                        static_cast<double>(sent) / pt.offered_tps * 1e6));
        std::this_thread::sleep_until(due);
      }
      Message m;
      m.type = MsgType::kTupleBatch;
      m.payload = BatchPayload(static_cast<std::uint32_t>(sent), n);
      producer_ep->Send(1, std::move(m));
      sent += n;
    }
    Message done;
    done.type = MsgType::kShutdown;
    producer_ep->Send(1, std::move(done));
  });

  std::thread consumer([&] {
    SystemConfig rep_cfg = cfg;
    rep_cfg.slave.workers = pt.workers;
    StatsSink sink;
    JoinModule jm(rep_cfg, &sink);
    WorkerPool pool(pt.workers);
    jm.SetWorkerPool(&pool);
    constexpr Duration kDrain = 365LL * 24 * 3600 * kUsPerSec;

    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const auto start = Clock::now();
    std::uint64_t tuples = 0;
    while (true) {
      std::optional<Message> m = consumer_ep->Recv();
      if (!m.has_value() || m->type == MsgType::kShutdown) break;
      std::uint32_t offset = 0, count = 0;
      std::memcpy(&offset, m->payload.data(), 4);
      std::memcpy(&count, m->payload.data() + 4, 4);
      jm.EnqueueBatch(std::span<const Rec>(recs.data() + offset, count));
      (void)jm.ProcessFor(recs[offset].ts, kDrain);
      tuples += count;
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    res.tuples_per_sec = secs > 0.0 ? static_cast<double>(tuples) / secs : 0.0;
    res.outputs = jm.Outputs();
  });

  while (ready.load(std::memory_order_acquire) != 2) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  producer.join();
  consumer.join();
  hub.Shutdown();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "ext_wall_throughput: %s\n", flags.Error().c_str());
    return 2;
  }
  const char* env_wall = std::getenv("SJOIN_BENCH_WALL");
  const bool wall = flags.GetBool("wall", false) ||
                    (env_wall != nullptr && std::strcmp(env_wall, "1") == 0);

  SystemConfig cfg = bench::ScaledConfig();
  cfg.workload.lambda = 5000.0;
  cfg.workload.key_domain = 20'000;
  cfg.join.window = 10 * kUsPerSec;

  bench::Reporter rep(
      "ext_wall_throughput", "Ext",
      "wall-clock slave throughput: in-proc hub + worker pool",
      "unpaced rows give the ceiling per worker count; paced rows hold their "
      "offered rate until that ceiling",
      cfg);
  rep.Deterministic(false);  // wall-clock derived by construction
  rep.Columns({"workers", "offered_tps", "reps", "tps_median", "tps_p95"});

  const std::size_t tuples =
      wall ? 120'000 : (bench::QuickMode() ? 8'000 : 20'000);
  const std::size_t batch = 2'000;
  const std::uint32_t reps = wall ? 5 : 2;
  std::vector<std::uint32_t> worker_counts =
      wall ? std::vector<std::uint32_t>{1, 2, 4, 8}
           : std::vector<std::uint32_t>{1, 2};
  std::vector<double> rates =
      wall ? std::vector<double>{0.0, 50'000.0} : std::vector<double>{0.0};

  std::vector<Rec> recs;
  recs.reserve(tuples);
  {
    MergedSource src(cfg.workload.lambda, cfg.workload.b_skew,
                     cfg.workload.key_domain, cfg.workload.seed);
    for (std::size_t i = 0; i < tuples; ++i) recs.push_back(src.Next());
  }

  std::printf("%-8s %12s %5s %12s %12s\n", "workers", "offered_tps", "reps",
              "tps_median", "tps_p95");

  std::uint64_t outputs_ref = 0;
  for (std::uint32_t workers : worker_counts) {
    for (double rate : rates) {
      std::vector<double> tps;
      for (std::uint32_t r = 0; r < reps; ++r) {
        const RepResult res =
            RunRep(cfg, recs, SweepPoint{workers, rate}, batch);
        tps.push_back(res.tuples_per_sec);
        // The join output is workers- and pacing-independent (the
        // deterministic-merge claim); any drift is a correctness bug, not
        // noise.
        if (outputs_ref == 0) {
          outputs_ref = res.outputs;
        } else if (res.outputs != outputs_ref) {
          std::fprintf(stderr,
                       "ext_wall_throughput: output mismatch at workers=%u "
                       "rate=%.0f: %llu != %llu\n",
                       workers, rate,
                       static_cast<unsigned long long>(res.outputs),
                       static_cast<unsigned long long>(outputs_ref));
          return 1;
        }
      }
      rep.Num("%-8.0f", static_cast<double>(workers));
      rep.Num(" %12.0f", rate);
      rep.Num(" %5.0f", static_cast<double>(reps));
      rep.Num(" %12.0f", obs::SampleQuantile(tps, 0.5));
      rep.Num(" %12.0f", obs::SampleQuantile(tps, 0.95));
      rep.EndRow();
      std::fflush(stdout);
    }
  }
  return rep.Finish();
}
