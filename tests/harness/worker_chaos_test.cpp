// Worker-count determinism matrix over the full chaos cluster: same seed,
// same trace, workers in {1, 2, 4, 8} -- the cluster's join output must be
// byte-identical across the matrix, and every deterministic observability
// artifact (per-epoch recorder CSV/JSONL, merged Chrome trace) must agree
// wherever the worker count cannot legitimately appear in it. Plus the
// recovery claim: a slave crash under replication with workers=4 still
// yields exactly the reference output.
//
// What may differ across worker counts, by design:
//   * the `worker_busy_cost` counter exists only for workers > 1 (it is
//     registered lazily so the workers=1 registry stays byte-identical to
//     the pre-pool code); its recorder rows are stripped before comparing
//     a workers=1 CSV against a workers>1 CSV;
//   * nothing else -- the k in {2, 4, 8} artifacts are compared unstripped.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/chaos_harness.h"
#include "obs/cluster_view.h"

namespace sjoin {
namespace {

/// Mirrors chaos_test.cpp BaseOptions: 3 slaves, short epochs, dense trace.
ChaosClusterOptions BaseOptions(std::uint64_t fault_seed) {
  ChaosClusterOptions opts;
  opts.cfg.num_slaves = 3;
  opts.cfg.join.num_partitions = 24;
  opts.cfg.join.window = 30 * kUsPerMs;
  opts.cfg.epoch.t_dist = 5 * kUsPerMs;
  opts.cfg.epoch.t_rep = 20 * kUsPerMs;
  opts.wall.run_for = 10 * kUsPerSec;
  opts.wall.recv_timeout_us = 250 * kUsPerMs;
  opts.wall.recv_max_retries = 3;
  opts.faults.seed = fault_seed;
  opts.trace = MakeChaosTrace(/*seed=*/97, /*count=*/1200,
                              /*span_us=*/150 * kUsPerMs,
                              /*key_domain=*/40);
  return opts;
}

std::string PairsDigest(const std::vector<JoinPair>& pairs) {
  std::ostringstream out;
  for (const JoinPair& p : pairs) {
    out << p.ts0 << ',' << p.ts1 << ',' << p.key << '\n';
  }
  return out.str();
}

/// Drops the worker_busy_cost cell from a recorder export: the counter is
/// only registered under a multi-worker pool, so this CSV column / JSONL
/// key is the one legitimate difference between a workers=1 and a
/// workers>1 export. CSV: locate the column in the header row and drop
/// that field everywhere; JSONL: drop the key-value pair per line.
std::string StripWorkerCell(const std::string& text) {
  constexpr std::string_view kName = "worker_busy_cost";
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  int drop_col = -1;
  bool first_line = true;
  while (std::getline(in, line)) {
    if (!line.empty() && line.front() == '{') {  // JSONL row
      const std::string key = std::string("\"") + std::string(kName) + "\":";
      const std::size_t k = line.find(key);
      if (k != std::string::npos) {
        std::size_t end = line.find_first_of(",}", k + key.size());
        std::size_t start = k;
        if (end != std::string::npos && line[end] == ',') {
          ++end;  // key in the middle: eat its trailing comma
        } else if (start > 0 && line[start - 1] == ',') {
          --start;  // last key: eat the preceding comma instead
        }
        line.erase(start, end - start);
      }
      out << line << '\n';
      continue;
    }
    // CSV: the header (first line) names the columns.
    std::vector<std::string> cells;
    std::istringstream fields(line);
    std::string cell;
    while (std::getline(fields, cell, ',')) cells.push_back(cell);
    if (first_line) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i] == kName) drop_col = static_cast<int>(i);
      }
      first_line = false;
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (static_cast<int>(i) == drop_col) continue;
      if (i != 0 && !(drop_col == 0 && i == 1)) out << ',';
      out << cells[i];
    }
    out << '\n';
  }
  return out.str();
}

// The matrix: a faultless run repeated with workers in {1, 2, 4, 8}. The
// output set, the trace, and the (stripped) recorder exports must all be
// byte-identical to the workers=1 run; the workers>1 runs must also agree
// with each other without stripping.
TEST(WorkerChaosTest, WorkerCountMatrixIsByteIdentical) {
  ChaosClusterOptions opts = BaseOptions(77);
  opts.cfg.balance.th_sup = 2.0;  // suppress wall-timing-dependent moves
  opts.trace_events = true;

  struct RunArtifacts {
    std::uint32_t workers;
    std::string outputs;
    std::string trace;
    std::vector<std::string> csv;    // per rank
    std::vector<std::string> jsonl;  // per rank
  };
  std::vector<RunArtifacts> runs;
  for (std::uint32_t workers : {1u, 2u, 4u, 8u}) {
    opts.cfg.slave.workers = workers;
    ChaosClusterResult r = RunChaosCluster(opts);
    ASSERT_TRUE(r.exact) << "workers=" << workers
                         << " missing=" << r.missing.size()
                         << " extra=" << r.extra.size();
    RunArtifacts a;
    a.workers = workers;
    a.outputs = PairsDigest(r.outputs);
    a.trace = r.trace_json;
    for (Rank rank = 0; rank <= opts.cfg.num_slaves; ++rank) {
      a.csv.push_back(r.obs[rank]->recorder.ExportCsv());
      a.jsonl.push_back(r.obs[rank]->recorder.ExportJsonl());
    }
    runs.push_back(std::move(a));
  }

  const RunArtifacts& base = runs[0];
  ASSERT_FALSE(base.outputs.empty());
  ASSERT_FALSE(base.trace.empty());
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const RunArtifacts& run = runs[i];
    EXPECT_EQ(run.outputs, base.outputs) << "workers=" << run.workers;
    EXPECT_EQ(run.trace, base.trace) << "workers=" << run.workers;
    for (std::size_t rank = 0; rank < base.csv.size(); ++rank) {
      EXPECT_EQ(StripWorkerCell(run.csv[rank]), StripWorkerCell(base.csv[rank]))
          << "workers=" << run.workers << " rank=" << rank;
      EXPECT_EQ(StripWorkerCell(run.jsonl[rank]),
                StripWorkerCell(base.jsonl[rank]))
          << "workers=" << run.workers << " rank=" << rank;
    }
  }
  // Between multi-worker runs nothing at all may differ.
  for (std::size_t i = 2; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].csv, runs[1].csv)
        << "workers=" << runs[i].workers << " vs " << runs[1].workers;
    EXPECT_EQ(runs[i].jsonl, runs[1].jsonl)
        << "workers=" << runs[i].workers << " vs " << runs[1].workers;
  }
}

// Determinism is not merely cross-k but per-k: two same-seed runs at
// workers=4 must agree byte-for-byte even though four threads raced over
// the groups (the merge order, not the execution order, defines the
// output).
TEST(WorkerChaosTest, SameSeedSameArtifactsAtFourWorkers) {
  ChaosClusterOptions opts = BaseOptions(78);
  opts.cfg.balance.th_sup = 2.0;
  opts.cfg.slave.workers = 4;
  opts.trace_events = true;
  opts.faults.delay_prob = 0.25;
  opts.faults.delay_min_us = 1 * kUsPerMs;
  opts.faults.delay_max_us = 5 * kUsPerMs;
  opts.faults.duplicate_prob = 0.3;
  ChaosClusterResult a = RunChaosCluster(opts);
  ChaosClusterResult b = RunChaosCluster(opts);
  ASSERT_TRUE(a.exact);
  EXPECT_EQ(PairsDigest(a.outputs), PairsDigest(b.outputs));
  EXPECT_EQ(a.trace_json, b.trace_json);
  for (Rank r = 0; r <= opts.cfg.num_slaves; ++r) {
    EXPECT_EQ(a.obs[r]->recorder.ExportCsv(), b.obs[r]->recorder.ExportCsv())
        << "rank " << r;
  }
  EXPECT_EQ(a.Summary(/*include_fault_lines=*/true),
            b.Summary(/*include_fault_lines=*/true));
}

/// Serializes every tuple_delay_us histogram of a rank's end-of-run
/// registry: labels, bucket bounds, bucket counts, total. Uses the registry
/// (deterministic at shutdown), not the cluster view -- the last in-flight
/// kMetrics frames race shutdown, so the view's tail is not comparable.
std::string DelayHistogramDigest(const obs::MetricsRegistry& reg) {
  std::ostringstream out;
  for (const obs::MetricSample& s :
       obs::CollectSamples(reg, /*include_volatile=*/false)) {
    if (s.name != "tuple_delay_us") continue;
    out << s.name << '{' << s.labels << "} total=" << s.hist_total << " [";
    for (double b : s.hist_bounds) out << b << ' ';
    out << "] (";
    for (std::uint64_t c : s.hist_counts) out << c << ' ';
    out << ")\n";
  }
  return out.str();
}

// The sampling decision is a pure function of (tuple, seed), and the delay
// is measured on the logical timeline -- so the per-group delay histograms
// must be byte-identical no matter how many worker threads raced over the
// groups. This is the worker-count-identity half of the telemetry
// acceptance criterion (the recorder-CSV half rides the matrix test above,
// whose rows now include the tuple_delay_us{...}.count cells).
TEST(WorkerChaosTest, TupleDelayHistogramsByteIdenticalAcrossWorkerCounts) {
  ChaosClusterOptions opts = BaseOptions(79);
  opts.cfg.balance.th_sup = 2.0;  // suppress wall-timing-dependent moves

  std::vector<std::string> digests;
  for (std::uint32_t workers : {1u, 4u}) {
    opts.cfg.slave.workers = workers;
    ChaosClusterResult r = RunChaosCluster(opts);
    ASSERT_TRUE(r.exact) << "workers=" << workers;
    std::string digest;
    for (Rank rank = 1; rank <= opts.cfg.num_slaves; ++rank) {
      digest += "rank" + std::to_string(rank) + ":\n";
      digest += DelayHistogramDigest(r.obs[rank]->registry);
    }
    digests.push_back(std::move(digest));
    // The histograms also ship into the master's cluster view (presence
    // only: the view's tail is arrival-order dependent).
    bool in_view = false;
    for (Rank rank = 1; rank <= opts.cfg.num_slaves && !in_view; ++rank) {
      for (std::int64_t epoch : r.obs[0]->cluster.Epochs(rank)) {
        const auto* samples = r.obs[0]->cluster.Get(rank, epoch);
        if (samples == nullptr) continue;
        for (const obs::MetricSample& s : *samples) {
          if (s.name == "tuple_delay_us" && s.hist_total > 0) {
            in_view = true;
            break;
          }
        }
        if (in_view) break;
      }
    }
    EXPECT_TRUE(in_view) << "workers=" << workers;
  }
  ASSERT_NE(digests[0].find("tuple_delay_us"), std::string::npos);
  EXPECT_EQ(digests[0], digests[1]);
}

// Crash + buddy failover + replay with a 4-worker pool: the quiesced-pool
// guarantee (RunOnAll is a barrier, so checkpoints and migrations always
// see settled window state) must keep recovery exact.
TEST(WorkerChaosTest, ReplicatedCrashWithFourWorkersRecoversExactOutput) {
  ChaosClusterOptions opts = BaseOptions(20);
  opts.cfg.slave.workers = 4;
  opts.cfg.replication.enabled = true;
  opts.cfg.replication.ckpt_interval_epochs = 2;
  opts.wall.recv_timeout_us = 30 * kUsPerMs;
  opts.wall.recv_max_retries = 2;
  opts.faults.crash_rank = 1;
  opts.faults.crash_after_batches = 6;
  ChaosClusterResult r = RunChaosCluster(opts);
  EXPECT_EQ(r.master.dead_slaves, 1u);
  EXPECT_GT(r.master.groups_failed_over, 0u);
  EXPECT_GT(r.master.replayed_batches, 0u);
  EXPECT_TRUE(r.exact) << "missing=" << r.missing.size()
                       << " extra=" << r.extra.size()
                       << " voided=" << r.voided;
}

}  // namespace
}  // namespace sjoin
