// Observability chaos tests: traced full-cluster runs under seeded fault
// schedules. Three claims are checked on top of the differential-output
// guarantees of chaos_test.cpp:
//
//   1. determinism -- two same-seed runs produce byte-identical merged
//      Chrome traces and per-epoch recorder CSVs (wall runners stamp the
//      logical epoch timeline, never wall time);
//   2. validity -- a crash + failover + replay run's trace parses, nests,
//      and satisfies the protocol invariants (ValidateChromeTrace);
//   3. consistency -- registry counters mirror the legacy summaries
//      one-for-one, and the master's kMetrics-fed cluster view agrees with
//      what each slave reported.
//
// Set SJOIN_TRACE_OUT=<path> to dump the crash scenario's trace (CI uploads
// it as an artifact and runs the trace_check CLI on it); SJOIN_EPOCH_CSV
// likewise dumps the master's per-epoch series.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "harness/chaos_harness.h"
#include "obs/trace_check.h"

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
  opts.trace_events = true;
  return opts;
}

void MaybeDump(const char* env, const std::string& content) {
  const char* path = std::getenv(env);
  if (path == nullptr || content.empty()) return;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

// Two runs with the same fault seed must emit byte-identical traces and
// per-epoch CSVs. Migrations are suppressed (wall-timing dependent, as in
// ChaosTest.SameSeedSameSummary) and replication stays off: checkpoint-ack
// arrival epochs are wall-timing dependent by design.
TEST(ObsChaosTest, SameSeedByteIdenticalTraceAndEpochCsv) {
  ChaosClusterOptions opts = BaseOptions(40);
  opts.cfg.balance.th_sup = 2.0;  // occupancy <= 1: no suppliers, no moves
  opts.faults.delay_prob = 0.3;
  opts.faults.delay_min_us = 1 * kUsPerMs;
  opts.faults.delay_max_us = 6 * kUsPerMs;
  opts.faults.duplicate_prob = 0.5;
  opts.faults.drop_prob = 0.15;
  ChaosClusterResult a = RunChaosCluster(opts);
  ChaosClusterResult b = RunChaosCluster(opts);
  ASSERT_TRUE(a.exact);
  ASSERT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);
  for (Rank r = 0; r <= opts.cfg.num_slaves; ++r) {
    EXPECT_EQ(a.obs[r]->recorder.ExportCsv(), b.obs[r]->recorder.ExportCsv())
        << "rank " << r;
    EXPECT_EQ(a.obs[r]->recorder.ExportJsonl(), b.obs[r]->recorder.ExportJsonl())
        << "rank " << r;
  }
  // The trace is not merely identical but valid.
  obs::TraceCheckResult check = obs::ValidateChromeTrace(a.trace_json);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_GT(check.spans, 0);
}

// A clean traced run: every epoch contributes its span pair plus a
// distribute span on the master and join_batch spans on slaves, and the
// per-epoch recorder rows line up with the epochs the master ran.
TEST(ObsChaosTest, TraceAndRecorderCoverEveryEpoch) {
  ChaosClusterOptions opts = BaseOptions(41);
  opts.cfg.balance.th_sup = 2.0;  // no migrations: every batch is per-epoch
  ChaosClusterResult r = RunChaosCluster(opts);
  ASSERT_TRUE(r.exact);
  obs::TraceCheckResult check = obs::ValidateChromeTrace(r.trace_json);
  ASSERT_TRUE(check.ok) << check.error;

  std::uint64_t master_epoch_spans = 0;
  std::uint64_t distribute_spans = 0;
  std::uint64_t join_batches = 0;
  for (const obs::TraceEvent& ev : r.obs[0]->trace.Events()) {
    if (ev.name == "epoch" && ev.ph == 'B') ++master_epoch_spans;
    if (ev.name == "distribute") ++distribute_spans;
  }
  for (Rank s = 1; s <= opts.cfg.num_slaves; ++s) {
    for (const obs::TraceEvent& ev : r.obs[s]->trace.Events()) {
      if (ev.name == "join_batch") ++join_batches;
    }
  }
  EXPECT_EQ(master_epoch_spans, r.master.epochs);
  EXPECT_EQ(distribute_spans, r.master.epochs);
  // Every distributed batch is drained exactly once by some slave.
  EXPECT_EQ(join_batches, r.master.epochs * opts.cfg.num_slaves);
  // One master recorder row per epoch, cumulative counters in the last row.
  ASSERT_EQ(r.obs[0]->recorder.Rows().size(), r.master.epochs);
  EXPECT_EQ(r.obs[0]->recorder.Back().cells.at("master_tuples_sent").i,
            static_cast<std::int64_t>(r.master.tuples_sent));
}

// The crash + failover + replay scenario (the ISSUE acceptance run): the
// merged trace must pass the full validator -- including the dead_slave ->
// failover -> replay ordering invariants -- and is dumped for CI when
// SJOIN_TRACE_OUT is set.
TEST(ObsChaosTest, ReplicatedCrashTraceSatisfiesProtocolInvariants) {
  ChaosClusterOptions opts = BaseOptions(42);
  opts.cfg.replication.enabled = true;
  opts.cfg.replication.ckpt_interval_epochs = 2;
  opts.wall.recv_timeout_us = 30 * kUsPerMs;
  opts.wall.recv_max_retries = 2;
  opts.faults.crash_rank = 1;
  opts.faults.crash_after_batches = 6;
  ChaosClusterResult r = RunChaosCluster(opts);
  ASSERT_EQ(r.master.dead_slaves, 1u);
  ASSERT_GT(r.master.groups_failed_over, 0u);
  ASSERT_GT(r.master.replayed_batches, 0u);
  EXPECT_TRUE(r.exact);

  obs::TraceCheckResult check = obs::ValidateChromeTrace(r.trace_json);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_GT(check.instants, 0);

  // The recovery story is visible in the master's event stream.
  std::uint64_t dead = 0, failovers = 0, replays = 0, sweeps = 0, acks = 0;
  for (const obs::TraceEvent& ev : r.obs[0]->trace.Events()) {
    if (ev.name == "dead_slave") ++dead;
    if (ev.name == "failover") ++failovers;
    if (ev.name == "replay") ++replays;
    if (ev.name == "ckpt_sweep") ++sweeps;
    if (ev.name == "ckpt_ack") ++acks;
  }
  EXPECT_EQ(dead, 1u);
  EXPECT_EQ(failovers, r.master.groups_failed_over);
  EXPECT_EQ(replays, r.master.replayed_batches);
  EXPECT_EQ(sweeps, r.master.ckpt_sweeps);
  EXPECT_EQ(acks, r.master.ckpt_acks);
  // The adopting buddies recorded their side of the story.
  std::uint64_t adopts = 0;
  for (Rank s = 1; s <= opts.cfg.num_slaves; ++s) {
    for (const obs::TraceEvent& ev : r.obs[s]->trace.Events()) {
      if (ev.name == "group_adopt") ++adopts;
    }
  }
  std::uint64_t adopted = 0;
  for (const SlaveSummary& s : r.slaves) adopted += s.groups_adopted;
  EXPECT_EQ(adopts, adopted);

  MaybeDump("SJOIN_TRACE_OUT", r.trace_json);
  MaybeDump("SJOIN_EPOCH_CSV", r.obs[0]->recorder.ExportCsv());
}

// Registry counters must mirror the legacy summaries one-for-one: the
// MetricsRegistry is bumped alongside every summary field, so at run end
// the two views agree exactly (this is the cross-validation the recorder's
// final row inherits).
TEST(ObsChaosTest, RegistryCountersMatchLegacySummaries) {
  ChaosClusterOptions opts = BaseOptions(43);
  opts.cfg.replication.enabled = true;
  opts.cfg.replication.ckpt_interval_epochs = 2;
  opts.wall.recv_timeout_us = 30 * kUsPerMs;
  opts.wall.recv_max_retries = 2;
  opts.faults.crash_rank = 2;
  opts.faults.crash_after_batches = 6;
  ChaosClusterResult r = RunChaosCluster(opts);
  ASSERT_EQ(r.master.dead_slaves, 1u);

  const obs::MetricsRegistry& m = r.obs[0]->registry;
  EXPECT_EQ(m.CounterValue("master_tuples_sent"), r.master.tuples_sent);
  EXPECT_EQ(m.CounterValue("master_epochs"), r.master.epochs);
  EXPECT_EQ(m.CounterValue("master_migrations"), r.master.migrations);
  EXPECT_EQ(m.CounterValue("master_dead_slaves"), r.master.dead_slaves);
  EXPECT_EQ(m.CounterValue("master_groups_rehosted"), r.master.groups_rehosted);
  EXPECT_EQ(m.CounterValue("master_ckpt_sweeps"), r.master.ckpt_sweeps);
  EXPECT_EQ(m.CounterValue("master_ckpt_acks"), r.master.ckpt_acks);
  EXPECT_EQ(m.CounterValue("master_ckpt_bytes"), r.master.ckpt_bytes);
  EXPECT_EQ(m.CounterValue("master_groups_failed_over"),
            r.master.groups_failed_over);
  EXPECT_EQ(m.CounterValue("master_degraded_failovers"),
            r.master.degraded_failovers);
  EXPECT_EQ(m.CounterValue("master_replayed_batches"), r.master.replayed_batches);
  EXPECT_EQ(m.CounterValue("master_replayed_tuples"), r.master.replayed_tuples);

  for (Rank rank = 1; rank <= opts.cfg.num_slaves; ++rank) {
    if (rank == opts.faults.crash_rank) continue;  // died mid-run
    const obs::MetricsRegistry& s = r.obs[rank]->registry;
    const SlaveSummary& sum = r.slaves[rank - 1];
    EXPECT_EQ(s.CounterValue("slave_tuples_processed"), sum.tuples_processed)
        << "rank " << rank;
    EXPECT_EQ(s.CounterValue("slave_outputs"), sum.outputs) << "rank " << rank;
    EXPECT_EQ(s.CounterValue("slave_groups_moved_out"), sum.groups_moved_out)
        << "rank " << rank;
    EXPECT_EQ(s.CounterValue("slave_groups_moved_in"), sum.groups_moved_in)
        << "rank " << rank;
    EXPECT_EQ(s.CounterValue("slave_ckpt_segments_sent"),
              sum.ckpt_segments_sent)
        << "rank " << rank;
    EXPECT_EQ(s.CounterValue("slave_ckpt_bytes_sent"), sum.ckpt_bytes_sent)
        << "rank " << rank;
    EXPECT_EQ(s.CounterValue("slave_ckpt_segments_applied"),
              sum.ckpt_segments_applied)
        << "rank " << rank;
    EXPECT_EQ(s.CounterValue("slave_groups_adopted"), sum.groups_adopted)
        << "rank " << rank;
    EXPECT_EQ(s.CounterValue("slave_replayed_tuples"), sum.replayed_tuples)
        << "rank " << rank;
  }
}

// The master's cluster view is fed by fire-and-forget kMetrics frames keyed
// by the slave's own epoch stamp: every recorded frame must agree with the
// sending slave's recorder row for that epoch, and the view's export is
// well-formed.
TEST(ObsChaosTest, ClusterViewAgreesWithSlaveRecorders) {
  ChaosClusterOptions opts = BaseOptions(44);
  ChaosClusterResult r = RunChaosCluster(opts);
  ASSERT_TRUE(r.exact);
  const obs::ClusterMetricsView& view = r.obs[0]->cluster;
  ASSERT_GT(view.FrameCount(), 0u);

  std::size_t checked = 0;
  for (Rank rank = 1; rank <= opts.cfg.num_slaves; ++rank) {
    for (std::int64_t epoch : view.Epochs(rank)) {
      // Find the slave's own recorder row for the same epoch stamp.
      for (const obs::EpochRow& row : r.obs[rank]->recorder.Rows()) {
        if (row.epoch != epoch) continue;
        EXPECT_EQ(view.CounterAt(rank, epoch, "slave_tuples_processed"),
                  static_cast<std::uint64_t>(
                      row.cells.at("slave_tuples_processed").i))
            << "rank " << rank << " epoch " << epoch;
        EXPECT_EQ(view.CounterAt(rank, epoch, "slave_outputs"),
                  static_cast<std::uint64_t>(row.cells.at("slave_outputs").i))
            << "rank " << rank << " epoch " << epoch;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);

  std::string csv = view.ExportCsv();
  EXPECT_NE(csv.find("slave_outputs"), std::string::npos);
  // Every live slave shipped at least one frame; frames never claim more
  // than the slave's end-of-run totals (kMetrics is fire-and-forget, so the
  // very last in-flight frames may be missing -- never wrong).
  for (Rank rank = 1; rank <= opts.cfg.num_slaves; ++rank) {
    std::int64_t latest = view.LatestEpoch(rank);
    ASSERT_GE(latest, 0) << "rank " << rank;
    EXPECT_LE(view.CounterAt(rank, latest, "slave_tuples_processed"),
              r.slaves[rank - 1].tuples_processed)
        << "rank " << rank;
  }
}

// Tentpole acceptance, causal half: the per-rank trace files of a crash +
// failover + replay run stitch into one distributed trace that passes the
// full causal validation -- flow finishes never precede their starts,
// receive timestamps never precede their send_vt -- with cross-rank flow
// pairs actually matched across both hops. (Byte-identity is asserted on a
// faultless run below: a crash verdict's epoch placement is wall-timing
// dependent by design, see ChaosClusterResult::Summary.)
TEST(ObsChaosTest, StitchedCrashTraceIsCausallyValid) {
  ChaosClusterOptions opts = BaseOptions(45);
  opts.cfg.replication.enabled = true;
  opts.cfg.replication.ckpt_interval_epochs = 2;
  opts.wall.recv_timeout_us = 30 * kUsPerMs;
  opts.wall.recv_max_retries = 2;
  opts.faults.crash_rank = 1;
  opts.faults.crash_after_batches = 6;
  ChaosClusterResult a = RunChaosCluster(opts);
  ASSERT_TRUE(a.exact);
  ASSERT_EQ(a.rank_traces.size(),
            static_cast<std::size_t>(opts.cfg.num_slaves) + 2);

  obs::StitchResult sa = obs::StitchTraces(a.rank_traces);
  ASSERT_TRUE(sa.ok) << sa.error;
  EXPECT_TRUE(sa.check.ok) << sa.check.error;
  // Both causal hops are present and matched: master -> slave batch flows
  // and slave -> collector stats flows. (A crashed slave's last batches
  // legitimately leave unmatched starts; those must not fail validation.)
  EXPECT_GT(sa.check.flows, 0);
  EXPECT_NE(sa.json.find("batch_flow"), std::string::npos);
  EXPECT_NE(sa.json.find("stats_flow"), std::string::npos);

  // The stitch success report covers every rank and attributes the matched
  // flows to their start-event names.
  ASSERT_EQ(sa.ranks.size(), a.rank_traces.size());
  for (std::size_t r = 0; r < sa.ranks.size(); ++r) {
    EXPECT_EQ(sa.ranks[r], static_cast<std::uint32_t>(r));
  }
  std::int64_t report_flows = 0;
  bool saw_batch_flow = false;
  for (const obs::StitchKindCount& k : sa.kinds) {
    report_flows += k.flows;
    if (k.name == "batch_flow") saw_batch_flow = k.flows > 0;
  }
  EXPECT_EQ(report_flows, sa.check.flows);
  EXPECT_TRUE(saw_batch_flow);

  // SJOIN_RANK_TRACE_DIR=<dir>: dump the per-rank inputs as files, so CI
  // can re-stitch them with the standalone `trace_check --stitch` CLI as a
  // gating step (and upload them on failure).
  if (const char* dir = std::getenv("SJOIN_RANK_TRACE_DIR")) {
    for (std::size_t r = 0; r < a.rank_traces.size(); ++r) {
      std::ofstream out(std::string(dir) + "/trace_rank" + std::to_string(r) +
                            ".json",
                        std::ios::binary | std::ios::trunc);
      out << a.rank_traces[r];
    }
  }
}

// Tentpole acceptance, determinism half: without a wall-timing-dependent
// crash verdict, two same-seed runs stitch to byte-identical distributed
// traces (delay/duplicate faults included -- the fault layer is seeded and
// duplicate flow finishes collapse in validation, while every causal
// timestamp comes from the logical epoch timeline, never the wall).
TEST(ObsChaosTest, StitchedTraceIsByteIdenticalAcrossSameSeedRuns) {
  ChaosClusterOptions opts = BaseOptions(48);
  opts.faults.delay_prob = 0.25;
  opts.faults.delay_min_us = 1 * kUsPerMs;
  opts.faults.delay_max_us = 5 * kUsPerMs;
  opts.faults.duplicate_prob = 0.3;
  ChaosClusterResult a = RunChaosCluster(opts);
  ChaosClusterResult b = RunChaosCluster(opts);
  ASSERT_TRUE(a.exact);
  obs::StitchResult sa = obs::StitchTraces(a.rank_traces);
  obs::StitchResult sb = obs::StitchTraces(b.rank_traces);
  ASSERT_TRUE(sa.ok) << sa.error;
  ASSERT_TRUE(sb.ok) << sb.error;
  EXPECT_TRUE(sa.check.ok) << sa.check.error;
  EXPECT_GT(sa.check.flows, 0);
  EXPECT_EQ(sa.json, sb.json);
}

// End-to-end telemetry acceptance: sampled tuple-delay histograms ship
// inside kMetrics frames into the master's cluster view with their full
// bucket vectors, and the health gauges (watermark, per-slave epoch lag,
// group skew) land in the master's per-epoch recorder rows.
TEST(ObsChaosTest, TupleDelayAndHealthTelemetryReachClusterView) {
  ChaosClusterOptions opts = BaseOptions(46);
  ChaosClusterResult r = RunChaosCluster(opts);
  ASSERT_TRUE(r.exact);

  // Delay histograms in the cluster view: at least one (rank, epoch) frame
  // carries a tuple_delay_us sample with observations and bucket data.
  const obs::ClusterMetricsView& view = r.obs[0]->cluster;
  std::uint64_t sampled = 0;
  for (Rank rank = 1; rank <= opts.cfg.num_slaves; ++rank) {
    for (std::int64_t epoch : view.Epochs(rank)) {
      for (const obs::MetricSample& s : *view.Get(rank, epoch)) {
        if (s.name != "tuple_delay_us") continue;
        EXPECT_EQ(s.kind, obs::MetricKind::kHistogram);
        EXPECT_EQ(s.hist_counts.size(), s.hist_bounds.size() + 1);
        sampled += s.hist_total;
      }
    }
  }
  EXPECT_GT(sampled, 0u);
  // The view's CSV surfaces delay quantile columns for the histograms.
  const std::string csv = view.ExportCsv();
  EXPECT_NE(csv.find("tuple_delay_us"), std::string::npos);
  EXPECT_NE(csv.find(".p95"), std::string::npos);

  // Health gauges in the master's recorder: every epoch row carries the
  // watermark, the skew ratio, and one lag cell per slave.
  ASSERT_FALSE(r.obs[0]->recorder.Rows().empty());
  const obs::EpochRow& row = r.obs[0]->recorder.Back();
  EXPECT_EQ(row.cells.at("watermark_vt_us").d,
            static_cast<double>(row.vt));
  EXPECT_GE(row.cells.at("group_skew_ratio").d, 1.0);
  for (Rank s = 1; s <= opts.cfg.num_slaves; ++s) {
    EXPECT_GE(row.cells.at("epoch_lag{slave=" + std::to_string(s) + "}").d,
              0.0)
        << "slave " << s;
  }
  // Slave recorders carry their own watermark; sampled delay histograms
  // surface as .count cells.
  const obs::EpochRow& srow = r.obs[1]->recorder.Back();
  EXPECT_EQ(srow.cells.at("watermark_vt_us").d, static_cast<double>(srow.vt));
}

/// Asserts that every slave registers the gauge `name` as kVolatile and
/// that it appears in the end-of-run export only: never in a recorder row
/// or a kMetrics frame, so no per-epoch export and no byte on the wire
/// carries it. Returns the gauge's sum over the slaves.
double VolatileGaugeTotal(const ChaosClusterResult& r, Rank num_slaves,
                          const std::string& name) {
  double total = 0;
  for (Rank rank = 1; rank <= num_slaves; ++rank) {
    const obs::MetricsRegistry& reg = r.obs[rank]->registry;
    std::size_t found = 0;
    for (const obs::SnapshotEntry& e : reg.Collect(/*include_volatile=*/true)) {
      if (e.name != name) continue;
      ++found;
      EXPECT_EQ(e.kind, obs::MetricKind::kGauge) << "rank " << rank;
      EXPECT_EQ(e.stability, obs::Stability::kVolatile) << "rank " << rank;
    }
    EXPECT_EQ(found, 1u) << "rank " << rank;
    for (const obs::SnapshotEntry& e : reg.Collect(/*include_volatile=*/false)) {
      EXPECT_NE(e.name, name) << "rank " << rank;
    }
    for (const obs::EpochRow& row : r.obs[rank]->recorder.Rows()) {
      EXPECT_EQ(row.cells.count(name), 0u) << "rank " << rank;
    }
    total += reg.GaugeValue(name);
  }
  const obs::ClusterMetricsView& view = r.obs[0]->cluster;
  for (Rank rank = 1; rank <= num_slaves; ++rank) {
    for (std::int64_t epoch : view.Epochs(rank)) {
      for (const obs::MetricSample& s : *view.Get(rank, epoch)) {
        EXPECT_NE(s.name, name) << "rank " << rank << " epoch " << epoch;
      }
    }
  }
  return total;
}

// Each slave reports the bytes its window storage allocates as the
// `window_storage_bytes` gauge, kept out of every per-epoch export.
TEST(ObsChaosTest, WindowStorageGaugeStaysOutOfEpochExports) {
  ChaosClusterOptions opts = BaseOptions(47);
  ChaosClusterResult r = RunChaosCluster(opts);
  ASSERT_TRUE(r.exact);
  // A window holds whole 24-byte-per-record blocks of 64 records.
  EXPECT_GE(VolatileGaugeTotal(r, opts.cfg.num_slaves, "window_storage_bytes"),
            64.0 * 24.0);
}

// Each buddy reports the records its replica chains hold as the
// `replica_records` gauge. How far a chain is pruned depends on when the
// master heard the acks, so it too stays out of every per-epoch export.
TEST(ObsChaosTest, ReplicaRecordsGaugeStaysOutOfEpochExports) {
  ChaosClusterOptions opts = BaseOptions(49);
  opts.cfg.replication.enabled = true;
  opts.cfg.replication.ckpt_interval_epochs = 2;
  ChaosClusterResult r = RunChaosCluster(opts);
  ASSERT_TRUE(r.exact);
  EXPECT_GT(VolatileGaugeTotal(r, opts.cfg.num_slaves, "replica_records"),
            0.0);
}

// Flight-recorder acceptance: a chaos run whose output diff fails (a crash
// without replication loses window state, so outputs go missing) must leave
// every rank's flight ring and the stitched trace in the artifact
// directory named by SJOIN_ARTIFACT_DIR.
TEST(ObsChaosTest, OutputDiffFailureDumpsFlightRingsAndStitchedTrace) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("sjoin_flight_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  ASSERT_EQ(::setenv("SJOIN_ARTIFACT_DIR", dir.c_str(), 1), 0);

  ChaosClusterOptions opts = BaseOptions(47);
  // No replication: the crashed slave's window state (and its share of the
  // reference output) is simply gone -- a guaranteed differential failure.
  opts.wall.recv_timeout_us = 30 * kUsPerMs;
  opts.wall.recv_max_retries = 2;
  opts.faults.crash_rank = 2;
  opts.faults.crash_after_batches = 6;
  ChaosClusterResult r = RunChaosCluster(opts);
  ::unsetenv("SJOIN_ARTIFACT_DIR");
  ASSERT_EQ(r.master.dead_slaves, 1u);
  ASSERT_FALSE(r.exact);
  ASSERT_FALSE(r.missing.empty());

  auto slurp = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return std::move(ss).str();
  };
  // One flight dump per rank (0..n+1), the master's ring naming the
  // verdict, plus the eviction-time dump and the stitched trace.
  for (Rank rank = 0; rank < opts.cfg.num_slaves + 2; ++rank) {
    const fs::path p = dir / ("flight_rank" + std::to_string(rank) + ".txt");
    ASSERT_TRUE(fs::exists(p)) << p;
  }
  const std::string master_ring = slurp(dir / "flight_rank0.txt");
  EXPECT_NE(master_ring.find("dead_slave"), std::string::npos);
  EXPECT_NE(master_ring.find("slave=2"), std::string::npos);
  EXPECT_TRUE(fs::exists(dir / "flight_master_evict_slave2.txt"));
  const std::string stitched = slurp(dir / "stitched_trace.json");
  ASSERT_FALSE(stitched.empty());
  EXPECT_NE(stitched.find("batch_flow"), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sjoin
