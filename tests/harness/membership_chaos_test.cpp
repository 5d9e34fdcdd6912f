// Elastic-membership chaos coverage: runtime join/leave transitions over
// the full master/slaves/collector cluster, differentially checked against
// ReferenceSlidingJoin (tests/harness/chaos_harness.h).
//
// The acceptance claims, as tests:
//   * a graceful leave loses nothing and duplicates nothing: the output set
//     EQUALS the reference, and no post-voiding (group, epoch) tag is
//     produced by more than one rank (dup_group_epoch_ranks == 0);
//   * a join admits a standby mid-run and the cluster still answers
//     exactly; replicas re-home to the new ring successors (handovers);
//   * seeded join/leave schedules are byte-identical across worker counts
//     {1, 4} -- outputs, merged trace, per-rank recorder exports -- because
//     every transition step lands at a deterministic epoch boundary;
//   * a crash RACING a membership transition (the leaver itself, a drain
//     recipient, or a member while a join drains groups toward the joiner)
//     degrades cleanly to the failover path: exact output, one eviction;
//   * the policy loop proposes scale-out under surge and scale-in when
//     idle, observable in the summary counters;
//   * invalid scheduled events are skipped and counted, never executed.
//
// On failure, each test dumps its artifacts (summary, recorder exports,
// trace) under $SJOIN_ARTIFACT_DIR when set -- the CI chaos job uploads that
// directory.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/chaos_harness.h"
#include "obs/artifact.h"

namespace sjoin {
namespace {

/// Mirrors chaos_test.cpp BaseOptions (3 slaves, short epochs, dense
/// trace), with elastic membership enabled on a longer trace so schedules
/// starting at epoch 4 complete well before exhaustion (~50 epochs).
ChaosClusterOptions ElasticBaseOptions(std::uint64_t fault_seed) {
  ChaosClusterOptions opts;
  opts.cfg.num_slaves = 3;
  opts.cfg.join.num_partitions = 24;
  opts.cfg.join.window = 30 * kUsPerMs;
  opts.cfg.epoch.t_dist = 5 * kUsPerMs;
  opts.cfg.epoch.t_rep = 20 * kUsPerMs;
  opts.cfg.cluster.elastic.enabled = true;
  opts.wall.run_for = 10 * kUsPerSec;
  opts.wall.recv_timeout_us = 250 * kUsPerMs;
  opts.wall.recv_max_retries = 3;
  opts.faults.seed = fault_seed;
  opts.trace = MakeChaosTrace(/*seed=*/97, /*count=*/2000,
                              /*span_us=*/250 * kUsPerMs,
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

/// Mirrors worker_chaos_test.cpp: drops the lazily registered
/// worker_busy_cost cell so a workers=1 export compares against a
/// workers>1 export.
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

/// Writes the run's deterministic artifacts under $SJOIN_ARTIFACT_DIR (see
/// obs::ArtifactDir) as <tag>.* for the CI upload-on-failure path,
/// schema-stamped by obs::WriteArtifact; silently a no-op when the variable
/// is unset (local runs).
void DumpArtifacts(const std::string& tag, const ChaosClusterResult& r) {
  if (obs::ArtifactDir().empty()) return;
  {
    std::ostringstream summary;
    summary << r.Summary(/*include_fault_lines=*/true);
    summary << "missing=" << r.missing.size() << " extra=" << r.extra.size()
            << " voided=" << r.voided << '\n';
    obs::WriteArtifact(obs::ArtifactKind::kMembership, tag + ".summary.txt",
                       summary.str());
  }
  for (std::size_t rank = 0; rank < r.obs.size(); ++rank) {
    obs::WriteArtifact(obs::ArtifactKind::kMembership,
                       tag + ".rank" + std::to_string(rank) + ".csv",
                       r.obs[rank]->recorder.ExportCsv());
  }
  if (!r.trace_json.empty()) {
    obs::WriteArtifact(obs::ArtifactKind::kMembership, tag + ".trace.json",
                       r.trace_json);
  }
}

// ---------------------------------------------------------------------------
// Graceful leave: zero gaps, zero duplicates.

// A member drains group-by-group and retires to standby mid-run, with buddy
// replication on (replicas must re-home off the leaver). Nothing may be
// lost (missing empty: no output gap), nothing double-delivered (extra
// empty and no surviving (group, epoch) tag from two ranks), and the
// collector's relayed counters must mirror the master's.
TEST(MembershipChaosTest, GracefulLeaveZeroGapZeroDuplicates) {
  ChaosClusterOptions opts = ElasticBaseOptions(101);
  opts.cfg.replication.enabled = true;
  opts.cfg.replication.ckpt_interval_epochs = 2;
  opts.wall.membership = {MembershipEvent{/*epoch=*/4, /*join=*/false,
                                          /*slave=*/1}};
  ChaosClusterResult r = RunChaosCluster(opts);
  DumpArtifacts("graceful_leave", r);
  EXPECT_EQ(r.master.dead_slaves, 0u);
  EXPECT_EQ(r.master.leaves, 1u);
  EXPECT_EQ(r.master.joins, 0u);
  EXPECT_GT(r.master.drain_moves, 0u);
  EXPECT_GT(r.master.buddy_handovers, 0u);  // the leaver was some ring's buddy
  EXPECT_EQ(r.master.membership_skipped, 0u);
  EXPECT_GT(r.master.membership_epochs, 0u);
  // Zero output gaps, zero duplicates.
  EXPECT_TRUE(r.exact) << "missing=" << r.missing.size()
                       << " extra=" << r.extra.size();
  EXPECT_EQ(r.dup_group_epoch_ranks, 0u);
  // The collector's shutdown payload mirrors the transition counters.
  EXPECT_EQ(r.collector.leaves, r.master.leaves);
  EXPECT_EQ(r.collector.joins, r.master.joins);
  EXPECT_EQ(r.collector.drain_moves, r.master.drain_moves);
}

// The retired slave may rejoin: leave then re-join the same rank. Both
// transitions complete and the answer stays exact.
TEST(MembershipChaosTest, LeaveThenRejoinSameRank) {
  ChaosClusterOptions opts = ElasticBaseOptions(102);
  opts.cfg.replication.enabled = true;
  opts.wall.membership = {
      MembershipEvent{/*epoch=*/4, /*join=*/false, /*slave=*/2},
      MembershipEvent{/*epoch=*/14, /*join=*/true, /*slave=*/2},
  };
  ChaosClusterResult r = RunChaosCluster(opts);
  DumpArtifacts("leave_then_rejoin", r);
  EXPECT_EQ(r.master.dead_slaves, 0u);
  EXPECT_EQ(r.master.leaves, 1u);
  EXPECT_EQ(r.master.joins, 1u);
  EXPECT_EQ(r.master.membership_skipped, 0u);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.dup_group_epoch_ranks, 0u);
}

// ---------------------------------------------------------------------------
// Join: a standby is admitted mid-run and serves.

TEST(MembershipChaosTest, JoinAdmitsStandbyAndServesExact) {
  ChaosClusterOptions opts = ElasticBaseOptions(103);
  opts.cfg.num_slaves = 4;
  opts.cfg.initial_active_slaves = 3;  // rank 4 (slave idx 3) idles as standby
  opts.cfg.replication.enabled = true;
  opts.cfg.replication.ckpt_interval_epochs = 2;
  opts.wall.membership = {MembershipEvent{/*epoch=*/4, /*join=*/true,
                                          /*slave=*/3}};
  ChaosClusterResult r = RunChaosCluster(opts);
  DumpArtifacts("join_admits_standby", r);
  EXPECT_EQ(r.master.dead_slaves, 0u);
  EXPECT_EQ(r.master.joins, 1u);
  EXPECT_EQ(r.master.leaves, 0u);
  EXPECT_GT(r.master.drain_moves, 0u);      // the joiner received a share
  EXPECT_GT(r.master.buddy_handovers, 0u);  // ring successors changed
  EXPECT_TRUE(r.exact) << "missing=" << r.missing.size()
                       << " extra=" << r.extra.size();
  EXPECT_EQ(r.dup_group_epoch_ranks, 0u);
  EXPECT_EQ(r.collector.joins, 1u);
  // The joiner (slave index 3) actually served: it produced outputs or at
  // least processed tuples after admission.
  EXPECT_GT(r.slaves[3].tuples_processed, 0u);
  EXPECT_GT(r.slaves[3].groups_moved_in, 0u);
}

// ---------------------------------------------------------------------------
// Determinism: seeded schedules, byte-identical across worker counts.

// A seeded valid-by-construction join/leave schedule, run with workers in
// {1, 4}: the output set, the merged Chrome trace, and the (stripped)
// per-rank recorder exports must be byte-identical -- every transition step
// lands at a deterministic epoch boundary, so the worker count cannot leak
// into any deterministic artifact. Replication stays off and migrations
// suppressed, as in the worker matrix: checkpoint-ack arrival epochs are
// wall-racy by design.
TEST(MembershipChaosTest, SeededScheduleMatrixIsByteIdenticalAcrossWorkers) {
  for (std::uint64_t seed : {11ull, 23ull}) {
    ChaosClusterOptions opts = ElasticBaseOptions(300 + seed);
    opts.cfg.num_slaves = 4;
    opts.cfg.initial_active_slaves = 3;
    opts.cfg.balance.th_sup = 2.0;  // suppress wall-timing-dependent moves
    opts.trace_events = true;
    opts.wall.membership = MakeMembershipSchedule(
        seed, /*count=*/3, /*num_slaves=*/4, /*initial_members=*/3);
    ASSERT_FALSE(opts.wall.membership.empty()) << "seed=" << seed;

    struct RunArtifacts {
      std::uint32_t workers;
      std::string outputs;
      std::string trace;
      std::string summary;
      std::vector<std::string> csv;
      std::vector<std::string> jsonl;
    };
    std::vector<RunArtifacts> runs;
    for (std::uint32_t workers : {1u, 4u}) {
      opts.cfg.slave.workers = workers;
      ChaosClusterResult r = RunChaosCluster(opts);
      ASSERT_TRUE(r.exact) << "seed=" << seed << " workers=" << workers
                           << " missing=" << r.missing.size()
                           << " extra=" << r.extra.size();
      EXPECT_EQ(r.dup_group_epoch_ranks, 0u) << "seed=" << seed;
      EXPECT_EQ(r.master.joins + r.master.leaves,
                opts.wall.membership.size())
          << "seed=" << seed << " workers=" << workers;
      EXPECT_EQ(r.master.membership_skipped, 0u);
      if (::testing::Test::HasFailure()) {
        DumpArtifacts("schedule_matrix_seed" + std::to_string(seed) +
                          "_w" + std::to_string(workers),
                      r);
      }
      RunArtifacts a;
      a.workers = workers;
      a.outputs = PairsDigest(r.outputs);
      a.trace = r.trace_json;
      a.summary = r.Summary(/*include_fault_lines=*/false);
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
      EXPECT_EQ(run.outputs, base.outputs)
          << "seed=" << seed << " workers=" << run.workers;
      EXPECT_EQ(run.trace, base.trace)
          << "seed=" << seed << " workers=" << run.workers;
      EXPECT_EQ(run.summary, base.summary)
          << "seed=" << seed << " workers=" << run.workers;
      for (std::size_t rank = 0; rank < base.csv.size(); ++rank) {
        EXPECT_EQ(StripWorkerCell(run.csv[rank]),
                  StripWorkerCell(base.csv[rank]))
            << "seed=" << seed << " workers=" << run.workers
            << " rank=" << rank;
        EXPECT_EQ(StripWorkerCell(run.jsonl[rank]),
                  StripWorkerCell(base.jsonl[rank]))
            << "seed=" << seed << " workers=" << run.workers
            << " rank=" << rank;
      }
    }
  }
}

// Per-k repeatability: two same-seed runs of a membership schedule at
// workers=4 agree byte-for-byte including the full summary.
TEST(MembershipChaosTest, SameSeedScheduleSameArtifacts) {
  ChaosClusterOptions opts = ElasticBaseOptions(104);
  opts.cfg.num_slaves = 4;
  opts.cfg.initial_active_slaves = 3;
  opts.cfg.balance.th_sup = 2.0;
  opts.cfg.slave.workers = 4;
  opts.trace_events = true;
  opts.wall.membership = MakeMembershipSchedule(
      /*seed=*/7, /*count=*/2, /*num_slaves=*/4, /*initial_members=*/3);
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

// ---------------------------------------------------------------------------
// Crashes racing membership transitions.

// A crash while a membership transition drains groups must degrade cleanly
// to the failover path: one eviction, exact output (replication on), no
// duplicated (group, epoch) delivery. Three racing roles, each at workers
// in {1, 4}:
//   * the LEAVER crashes mid-drain (the transition aborts; its remaining
//     groups fail over to their buddies);
//   * a drain RECIPIENT crashes (the drained groups fail over again);
//   * a donor MEMBER crashes while a join rebalances toward the joiner.
struct RacingCrashCase {
  const char* tag;
  bool join;           // the scheduled transition
  SlaveIdx slave;      // its subject
  Rank crash_rank;     // who the fault schedule kills
};

// Each ctest name carries the printed parameter; gtest's default byte dump
// of this struct would show the tag pointer and padding, which differ on
// every build (ASLR), so print the tag instead.
void PrintTo(const RacingCrashCase& c, std::ostream* os) { *os << c.tag; }

class MembershipRacingCrashTest
    : public ::testing::TestWithParam<RacingCrashCase> {};

TEST_P(MembershipRacingCrashTest, FailsOverCleanly) {
  const RacingCrashCase& c = GetParam();
  for (std::uint32_t workers : {1u, 4u}) {
    ChaosClusterOptions opts = ElasticBaseOptions(200);
    opts.cfg.num_slaves = 4;
    opts.cfg.initial_active_slaves = c.join ? 3 : 4;
    opts.cfg.slave.workers = workers;
    opts.cfg.replication.enabled = true;
    opts.cfg.replication.ckpt_interval_epochs = 2;
    opts.cfg.cluster.elastic.drain_groups_per_epoch = 1;  // widen the race
    opts.wall.recv_timeout_us = 30 * kUsPerMs;
    opts.wall.recv_max_retries = 2;
    opts.wall.membership = {MembershipEvent{/*epoch=*/4, c.join, c.slave}};
    opts.faults.crash_rank = c.crash_rank;
    opts.faults.crash_after_batches = 8;
    ChaosClusterResult r = RunChaosCluster(opts);
    if (r.master.dead_slaves != 1u || !r.exact ||
        r.dup_group_epoch_ranks != 0u) {
      DumpArtifacts(std::string("racing_crash_") + c.tag + "_w" +
                        std::to_string(workers),
                    r);
    }
    EXPECT_EQ(r.master.dead_slaves, 1u) << c.tag << " workers=" << workers;
    EXPECT_GT(r.master.groups_failed_over, 0u) << c.tag;
    EXPECT_TRUE(r.exact) << c.tag << " workers=" << workers
                         << " missing=" << r.missing.size()
                         << " extra=" << r.extra.size()
                         << " voided=" << r.voided;
    EXPECT_EQ(r.dup_group_epoch_ranks, 0u) << c.tag;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RacingRoles, MembershipRacingCrashTest,
    ::testing::Values(
        // Leave of slave idx 1 (rank 2); the leaver itself crashes.
        RacingCrashCase{"leaver", false, 1, 2},
        // Leave of slave idx 1; a drain recipient / survivor crashes.
        RacingCrashCase{"recipient", false, 1, 3},
        // Join of standby idx 3; a donor member crashes mid-rebalance.
        RacingCrashCase{"join_donor", true, 3, 1}),
    [](const ::testing::TestParamInfo<RacingCrashCase>& param_info) {
      return std::string(param_info.param.tag);
    });

// ---------------------------------------------------------------------------
// Bounded handshake: frame delays force resends, counted as a metric, and
// the join still completes (satellite: per-frame timeout + capped backoff).

TEST(MembershipChaosTest, DelayedHandshakeRetriesAndStillAdmits) {
  ChaosClusterOptions opts = ElasticBaseOptions(105);
  opts.cfg.num_slaves = 4;
  opts.cfg.initial_active_slaves = 3;
  opts.wall.membership = {MembershipEvent{/*epoch=*/4, /*join=*/true,
                                          /*slave=*/3}};
  // Every frame is delayed past the first handshake timeout (15ms), so the
  // kJoinCmd is provably resent at least once; the per-epoch load-report
  // budget (8 strikes x 15ms = 120ms) still covers the worst round trip
  // (~2 x 40ms), so no slave is wrongly evicted.
  opts.wall.recv_timeout_us = 15 * kUsPerMs;
  opts.wall.recv_max_retries = 7;
  opts.faults.delay_prob = 1.0;
  opts.faults.delay_min_us = 30 * kUsPerMs;
  opts.faults.delay_max_us = 40 * kUsPerMs;
  ChaosClusterResult r = RunChaosCluster(opts);
  DumpArtifacts("delayed_handshake", r);
  EXPECT_EQ(r.master.dead_slaves, 0u);
  EXPECT_EQ(r.master.joins, 1u);
  EXPECT_GE(r.master.handshake_retries, 1u);
  EXPECT_TRUE(r.exact) << "missing=" << r.missing.size()
                       << " extra=" << r.extra.size();
  // The retry tally is a stable registry counter on the master.
  EXPECT_EQ(r.obs[0]->registry.CounterValue("master_handshake_retries"),
            r.master.handshake_retries);
}

// ---------------------------------------------------------------------------
// Policy loop.

// One overloaded member, two standbys: consecutive surge epochs must make
// the policy propose scale-out, the admission runs as a normal transition,
// and the answer stays exact.
TEST(MembershipChaosTest, PolicyProposesScaleOutOnSurge) {
  ChaosClusterOptions opts = ElasticBaseOptions(106);
  opts.cfg.initial_active_slaves = 1;
  opts.cfg.cluster.elastic.policy = true;
  opts.cfg.cluster.elastic.surge_occupancy = 0.5;
  opts.cfg.cluster.elastic.surge_epochs = 2;
  opts.cfg.cluster.elastic.cooldown_epochs = 2;
  opts.cfg.balance.slave_buffer_bytes = 4096;  // small: occupancy saturates
  opts.cfg.balance.th_sup = 2.0;  // isolate the policy from migrations
  opts.wall.slave_spin_us_per_tuple = {400, 400, 400};  // force a backlog
  ChaosClusterResult r = RunChaosCluster(opts);
  DumpArtifacts("policy_scale_out", r);
  EXPECT_EQ(r.master.dead_slaves, 0u);
  EXPECT_GE(r.master.policy_scale_outs, 1u);
  EXPECT_GE(r.master.joins, 1u);
  EXPECT_TRUE(r.exact) << "missing=" << r.missing.size()
                       << " extra=" << r.extra.size();
}

// Two idle members: consecutive idle epochs must make the policy propose
// scale-in down to the policy's floor of one member, via a graceful
// drain -- exact output, no duplicates.
TEST(MembershipChaosTest, PolicyProposesScaleInWhenIdle) {
  ChaosClusterOptions opts = ElasticBaseOptions(107);
  opts.cfg.initial_active_slaves = 2;
  opts.cfg.cluster.elastic.policy = true;
  opts.cfg.cluster.elastic.idle_occupancy = 2.0;  // everything counts as idle
  opts.cfg.cluster.elastic.idle_epochs = 3;
  opts.cfg.cluster.elastic.cooldown_epochs = 2;
  ChaosClusterResult r = RunChaosCluster(opts);
  DumpArtifacts("policy_scale_in", r);
  EXPECT_EQ(r.master.dead_slaves, 0u);
  EXPECT_GE(r.master.policy_scale_ins, 1u);
  EXPECT_GE(r.master.leaves, 1u);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.dup_group_epoch_ranks, 0u);
}

// ---------------------------------------------------------------------------
// Validity guard.

// Joining a rank that is already a member is skipped (counted, not
// executed); the run is otherwise undisturbed.
TEST(MembershipChaosTest, InvalidEventIsSkippedAndCounted) {
  ChaosClusterOptions opts = ElasticBaseOptions(108);
  opts.wall.membership = {MembershipEvent{/*epoch=*/4, /*join=*/true,
                                          /*slave=*/1}};  // already a member
  ChaosClusterResult r = RunChaosCluster(opts);
  EXPECT_EQ(r.master.membership_skipped, 1u);
  EXPECT_EQ(r.master.joins, 0u);
  EXPECT_EQ(r.master.leaves, 0u);
  EXPECT_EQ(r.master.drain_moves, 0u);
  EXPECT_TRUE(r.exact);
}

// Elastic off: the membership machinery must not run at all -- a schedule
// is ignored, every counter stays zero, and the fixed-set behavior is
// preserved (the seed regression suite pins the rest).
TEST(MembershipChaosTest, DisabledElasticIgnoresSchedule) {
  ChaosClusterOptions opts = ElasticBaseOptions(109);
  opts.cfg.cluster.elastic.enabled = false;
  opts.wall.membership = {MembershipEvent{/*epoch=*/4, /*join=*/false,
                                          /*slave=*/1}};
  ChaosClusterResult r = RunChaosCluster(opts);
  EXPECT_EQ(r.master.joins, 0u);
  EXPECT_EQ(r.master.leaves, 0u);
  EXPECT_EQ(r.master.drain_moves, 0u);
  EXPECT_EQ(r.master.membership_epochs, 0u);
  EXPECT_EQ(r.master.membership_skipped, 0u);
  EXPECT_TRUE(r.exact);
}

}  // namespace
}  // namespace sjoin
