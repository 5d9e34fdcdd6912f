// Chaos tests: full clusters over InProcTransport + FaultTransport under
// seeded fault schedules, differentially checked against the reference
// join (see chaos_harness.h for the guarantees each check states).
#include "harness/chaos_harness.h"

#include <gtest/gtest.h>

#include <numeric>
#include <ostream>

#include "core/partition_map.h"
#include "join/join_module.h"
#include "testutil/fuzz_env.h"

namespace sjoin {
namespace {

/// Small, fast cluster: 3 slaves, short virtual epochs, a fixed dense
/// trace. One run takes a few hundred milliseconds of wall time.
ChaosClusterOptions BaseOptions(std::uint64_t fault_seed) {
  ChaosClusterOptions opts;
  opts.cfg.num_slaves = 3;
  opts.cfg.join.num_partitions = 24;
  opts.cfg.join.window = 30 * kUsPerMs;
  opts.cfg.epoch.t_dist = 5 * kUsPerMs;
  opts.cfg.epoch.t_rep = 20 * kUsPerMs;
  opts.wall.run_for = 10 * kUsPerSec;  // cap; the trace ends the run
  opts.wall.recv_timeout_us = 250 * kUsPerMs;
  opts.wall.recv_max_retries = 3;
  opts.faults.seed = fault_seed;
  opts.trace = MakeChaosTrace(/*seed=*/97, /*count=*/1200,
                              /*span_us=*/150 * kUsPerMs,
                              /*key_domain=*/40);
  return opts;
}

std::uint64_t TotalDelayed(const ChaosClusterResult& r) {
  std::uint64_t total = 0;
  for (const FaultStats& fs : r.fault_stats) total += fs.delayed;
  return total;
}

std::uint64_t TotalDuplicated(const ChaosClusterResult& r) {
  std::uint64_t total = 0;
  for (const FaultStats& fs : r.fault_stats) total += fs.duplicated;
  return total;
}

std::uint64_t TotalRetransmitted(const ChaosClusterResult& r) {
  std::uint64_t total = 0;
  for (const FaultStats& fs : r.fault_stats) total += fs.retransmitted;
  return total;
}

TEST(ChaosTest, ExactOutputWithoutFaults) {
  ChaosClusterOptions opts = BaseOptions(1);
  ChaosClusterResult r = RunChaosCluster(opts);
  EXPECT_GT(r.reference.size(), 100u);
  EXPECT_TRUE(r.exact) << "missing=" << r.missing.size()
                       << " extra=" << r.extra.size();
  EXPECT_EQ(r.master.dead_slaves, 0u);
}

// Delays reorder deliveries across peers (per-channel FIFO is preserved, as
// on a real slow link); the cluster's answer must not change.
TEST(ChaosTest, ExactOutputUnderDelayAndReorder) {
  ChaosClusterOptions opts = BaseOptions(2);
  opts.faults.delay_prob = 0.4;
  opts.faults.delay_min_us = 1 * kUsPerMs;
  opts.faults.delay_max_us = 8 * kUsPerMs;
  ChaosClusterResult r = RunChaosCluster(opts);
  EXPECT_GT(TotalDelayed(r), 0u);
  EXPECT_TRUE(r.exact) << "missing=" << r.missing.size()
                       << " extra=" << r.extra.size();
  EXPECT_EQ(r.master.dead_slaves, 0u);
}

// Every eligible control message (kAck, kLoadReport, kStateTransfer) is
// duplicated; seq/move_seq idempotency must absorb all of them.
TEST(ChaosTest, ExactOutputUnderDuplicates) {
  ChaosClusterOptions opts = BaseOptions(3);
  opts.faults.duplicate_prob = 1.0;
  ChaosClusterResult r = RunChaosCluster(opts);
  EXPECT_GT(TotalDuplicated(r), 0u);
  EXPECT_TRUE(r.exact) << "missing=" << r.missing.size()
                       << " extra=" << r.extra.size();
}

TEST(ChaosTest, ExactOutputUnderDropWithRetransmit) {
  ChaosClusterOptions opts = BaseOptions(4);
  opts.faults.drop_prob = 0.3;
  opts.faults.retransmit_delay_us = 5 * kUsPerMs;
  ChaosClusterResult r = RunChaosCluster(opts);
  EXPECT_GT(TotalRetransmitted(r), 0u);
  EXPECT_TRUE(r.exact) << "missing=" << r.missing.size()
                       << " extra=" << r.extra.size();
}

TEST(ChaosTest, ExactOutputUnderCombinedFaults) {
  ChaosClusterOptions opts = BaseOptions(5);
  opts.faults.delay_prob = 0.3;
  opts.faults.delay_min_us = 1 * kUsPerMs;
  opts.faults.delay_max_us = 6 * kUsPerMs;
  opts.faults.duplicate_prob = 0.5;
  opts.faults.drop_prob = 0.15;
  ChaosClusterResult r = RunChaosCluster(opts);
  EXPECT_GT(TotalDelayed(r), 0u);
  EXPECT_GT(TotalDuplicated(r), 0u);
  EXPECT_GT(TotalRetransmitted(r), 0u);
  EXPECT_TRUE(r.exact) << "missing=" << r.missing.size()
                       << " extra=" << r.extra.size();
}

// Migrations are forced (one slave is slowed until it classifies as a
// supplier at every reorganization) while faults run; the reorganization
// sub-protocol under duplicated/reordered control traffic must still
// deliver the exact answer.
TEST(ChaosTest, ExactOutputWithMigrationsUnderFaults) {
  ChaosClusterOptions opts = BaseOptions(6);
  opts.cfg.epoch.t_rep = 15 * kUsPerMs;
  opts.cfg.balance.th_sup = 1e-6;  // any backlog => supplier
  opts.cfg.balance.th_con = 1e-9;  // empty buffer => consumer
  opts.wall.slave_spin_us_per_tuple = {500, 0, 0};
  opts.faults.delay_prob = 0.3;
  opts.faults.delay_min_us = 1 * kUsPerMs;
  opts.faults.delay_max_us = 6 * kUsPerMs;
  opts.faults.duplicate_prob = 0.5;
  ChaosClusterResult r = RunChaosCluster(opts);
  EXPECT_TRUE(r.exact) << "migrations=" << r.master.migrations
                       << " missing=" << r.missing.size()
                       << " extra=" << r.extra.size();
  EXPECT_EQ(r.master.dead_slaves, 0u);
}

/// Common assertions of the crashed-slave scenarios: the run completes (the
/// test returning at all proves no unbounded wait), the dead rank's
/// partition-groups are re-hosted, the surviving cluster keeps producing
/// results with delay stats, and the output never exceeds the reference.
void CheckCrashRun(const ChaosClusterResult& r) {
  EXPECT_EQ(r.master.dead_slaves, 1u);
  EXPECT_GT(r.master.groups_rehosted, 0u);
  // Superset-free: crash may lose matches, never fabricate them.
  EXPECT_TRUE(r.extra.empty()) << "extra=" << r.extra.size();
  EXPECT_GT(r.missing.size(), 0u);  // the dead window really lost matches
  // Survivors kept producing and reporting delay stats to the collector.
  EXPECT_GT(r.collector.outputs, 0u);
  EXPECT_GT(r.collector.reports, 0u);
  EXPECT_GE(r.collector.avg_delay_us, 0.0);
  EXPECT_GT(r.slaves[1].outputs + r.slaves[2].outputs, 0u);
}

// Slave 1 crashes (receives report kClosed locally; its sends vanish) upon
// its 4th tuple batch -- the first reorganization epoch (t_rep = 4 *
// t_dist). The master's bounded receives must evict it and evacuate its
// partition-groups.
TEST(ChaosTest, SlaveCrashAtReorganizationEpoch) {
  ChaosClusterOptions opts = BaseOptions(7);
  opts.wall.recv_timeout_us = 30 * kUsPerMs;
  opts.wall.recv_max_retries = 2;
  opts.faults.crash_rank = 1;
  opts.faults.crash_after_batches = 4;  // epoch 4 == first reorg epoch
  opts.faults.crash_hang = false;
  ChaosClusterResult r = RunChaosCluster(opts);
  CheckCrashRun(r);
}

// Same, but the slave hangs instead of dying visibly: its receives block
// forever and its sends are swallowed -- the worst case for its peers. The
// timeout verdict is the only way out, and nothing may deadlock.
TEST(ChaosTest, SlaveHangAtReorganizationEpoch) {
  ChaosClusterOptions opts = BaseOptions(8);
  opts.wall.recv_timeout_us = 30 * kUsPerMs;
  opts.wall.recv_max_retries = 2;
  opts.faults.crash_rank = 1;
  opts.faults.crash_after_batches = 4;
  opts.faults.crash_hang = true;
  ChaosClusterResult r = RunChaosCluster(opts);
  CheckCrashRun(r);
}

// A crash under concurrent delay/duplicate faults: the combination must
// still complete and stay superset-free.
TEST(ChaosTest, SlaveCrashUnderCombinedFaults) {
  ChaosClusterOptions opts = BaseOptions(9);
  opts.wall.recv_timeout_us = 30 * kUsPerMs;
  opts.wall.recv_max_retries = 2;
  opts.faults.delay_prob = 0.3;
  opts.faults.delay_min_us = 1 * kUsPerMs;
  opts.faults.delay_max_us = 6 * kUsPerMs;
  opts.faults.duplicate_prob = 0.5;
  opts.faults.crash_rank = 2;
  opts.faults.crash_after_batches = 8;
  opts.faults.crash_hang = true;
  ChaosClusterResult r = RunChaosCluster(opts);
  EXPECT_EQ(r.master.dead_slaves, 1u);
  EXPECT_GT(r.master.groups_rehosted, 0u);
  EXPECT_TRUE(r.extra.empty()) << "extra=" << r.extra.size();
  EXPECT_GT(r.collector.outputs, 0u);
}

// Two runs with the same fault seed must produce byte-identical summaries:
// the fault schedule and every deterministic counter repeat exactly.
// Migrations are suppressed (their timing is wall-clock dependent) -- the
// summary covers tuples, epochs, outputs, the output-set hash, and all
// injected-fault counters.
TEST(ChaosTest, SameSeedSameSummary) {
  ChaosClusterOptions opts = BaseOptions(10);
  opts.cfg.balance.th_sup = 2.0;  // occupancy <= 1: no suppliers, no moves
  opts.faults.delay_prob = 0.3;
  opts.faults.delay_min_us = 1 * kUsPerMs;
  opts.faults.delay_max_us = 6 * kUsPerMs;
  opts.faults.duplicate_prob = 0.5;
  opts.faults.drop_prob = 0.15;
  ChaosClusterResult a = RunChaosCluster(opts);
  ChaosClusterResult b = RunChaosCluster(opts);
  EXPECT_TRUE(a.exact);
  EXPECT_GT(TotalDuplicated(a), 0u);
  EXPECT_EQ(a.Summary(), b.Summary());
}

// A different seed must produce a different fault schedule (sanity check
// that determinism is not vacuous).
TEST(ChaosTest, DifferentSeedDifferentSchedule) {
  ChaosClusterOptions opts = BaseOptions(11);
  opts.faults.delay_prob = 0.3;
  opts.faults.duplicate_prob = 0.5;
  ChaosClusterResult a = RunChaosCluster(opts);
  opts.faults.seed = 12;
  ChaosClusterResult b = RunChaosCluster(opts);
  EXPECT_TRUE(a.exact);
  EXPECT_TRUE(b.exact);
  EXPECT_NE(TotalDelayed(a) * 1000 + TotalDuplicated(a),
            TotalDelayed(b) * 1000 + TotalDuplicated(b));
}

// ---------------------------------------------------------------------------
// Replication: a slave crash must produce EXACTLY the reference output.
// ---------------------------------------------------------------------------

/// BaseOptions with buddy replication on and crash-verdict timeouts tuned
/// for fast tests: checkpoints every 2 epochs, so at most two epochs of
/// retained batches replay per failed-over group.
ChaosClusterOptions ReplicatedOptions(std::uint64_t fault_seed) {
  ChaosClusterOptions opts = BaseOptions(fault_seed);
  opts.cfg.replication.enabled = true;
  opts.cfg.replication.ckpt_interval_epochs = 2;
  opts.wall.recv_timeout_us = 30 * kUsPerMs;
  opts.wall.recv_max_retries = 2;
  return opts;
}

/// The replicated crash contract: exact output, a recorded failover, live
/// checkpoint traffic, and the collector's run-summary counters mirroring
/// the master's (the per-run observability line is fed by kShutdown).
void CheckReplicatedCrashRun(const ChaosClusterResult& r) {
  EXPECT_EQ(r.master.dead_slaves, 1u);
  EXPECT_GT(r.master.groups_failed_over, 0u);
  EXPECT_FALSE(r.master.failovers.empty());
  EXPECT_TRUE(r.exact) << "missing=" << r.missing.size()
                       << " extra=" << r.extra.size()
                       << " voided=" << r.voided
                       << " replayed=" << r.master.replayed_batches;
  std::uint64_t adopted = 0;
  for (const SlaveSummary& s : r.slaves) adopted += s.groups_adopted;
  EXPECT_EQ(adopted + r.master.degraded_failovers,
            r.master.groups_failed_over);
  // Run-summary counters (collector observability line) mirror the master.
  EXPECT_EQ(r.collector.dead_slaves, r.master.dead_slaves);
  EXPECT_EQ(r.collector.groups_failed_over, r.master.groups_failed_over);
  EXPECT_EQ(r.collector.ckpt_bytes, r.master.ckpt_bytes);
  EXPECT_EQ(r.collector.replayed_batches, r.master.replayed_batches);
}

// The canonical recovery scenario: slave 1 dies at the first reorganization
// epoch. Its groups fail over to their buddies, the master replays retained
// batches, and the voided output set equals the reference exactly --
// nothing lost, nothing doubled.
TEST(ChaosTest, ReplicatedSlaveCrashRecoversExactOutput) {
  ChaosClusterOptions opts = ReplicatedOptions(20);
  opts.faults.crash_rank = 1;
  opts.faults.crash_after_batches = 6;
  ChaosClusterResult r = RunChaosCluster(opts);
  EXPECT_GT(r.master.ckpt_acks, 0u);
  EXPECT_GT(r.master.ckpt_bytes, 0u);
  EXPECT_GT(r.master.replayed_batches, 0u);
  CheckReplicatedCrashRun(r);
}

// Crash before the first checkpoint sweep completes: no segment is acked,
// every buddy rebuilds from nothing, and the master must replay every
// retained epoch from the beginning.
TEST(ChaosTest, ReplicatedCrashBeforeFirstCheckpointStillExact) {
  ChaosClusterOptions opts = ReplicatedOptions(21);
  opts.cfg.replication.ckpt_interval_epochs = 16;  // later than the crash
  opts.faults.crash_rank = 2;
  opts.faults.crash_after_batches = 3;
  ChaosClusterResult r = RunChaosCluster(opts);
  CheckReplicatedCrashRun(r);
  EXPECT_GT(r.master.replayed_batches, 0u);
}

// The hang variant: the dead slave's threads keep draining queued work and
// produce outputs after the verdict -- the voiding rule must cancel them.
TEST(ChaosTest, ReplicatedSlaveHangRecoversExactOutput) {
  ChaosClusterOptions opts = ReplicatedOptions(22);
  opts.faults.crash_rank = 1;
  opts.faults.crash_after_batches = 6;
  opts.faults.crash_hang = true;
  ChaosClusterResult r = RunChaosCluster(opts);
  CheckReplicatedCrashRun(r);
}

// Crash at a reorganization epoch with forced migrations in flight: the
// failover must compose with move cancellation (supplier-dead moves fall
// back to the buddy; consumer-dead moves release the withheld partition).
TEST(ChaosTest, ReplicatedCrashDuringMigrationStillExact) {
  ChaosClusterOptions opts = ReplicatedOptions(23);
  opts.cfg.epoch.t_rep = 15 * kUsPerMs;
  opts.cfg.balance.th_sup = 1e-6;  // any backlog => supplier
  opts.cfg.balance.th_con = 1e-9;
  opts.wall.slave_spin_us_per_tuple = {400, 0, 0};
  opts.faults.crash_rank = 1;
  opts.faults.crash_after_batches = 3;  // lands at the reorg boundary
  ChaosClusterResult r = RunChaosCluster(opts);
  CheckReplicatedCrashRun(r);
}

// Mid-checkpoint crash (FaultConfig::crash_after_checkpoint_sends): the
// owner dies partway through a checkpoint sweep. Buddies that missed this
// sweep's segment hold the previous consistent one -- never a torn segment
// -- and recovery replays the difference. Output must stay exact.
TEST(ChaosTest, ReplicatedCrashMidCheckpointSweepStillExact) {
  ChaosClusterOptions opts = ReplicatedOptions(24);
  opts.faults.crash_rank = 1;
  opts.faults.crash_after_checkpoint_sends = 3;  // mid-sweep: > 2 groups owned
  ChaosClusterResult r = RunChaosCluster(opts);
  CheckReplicatedCrashRun(r);
}

// Crash recovery under concurrent delay / duplicate / drop faults,
// including duplicated kCheckpoint and kCheckpointAck frames -- the
// idempotent apply and the master's ack watermark must absorb them all.
TEST(ChaosTest, ReplicatedCrashUnderCombinedFaultsStillExact) {
  ChaosClusterOptions opts = ReplicatedOptions(25);
  opts.faults.delay_prob = 0.3;
  opts.faults.delay_min_us = 1 * kUsPerMs;
  opts.faults.delay_max_us = 6 * kUsPerMs;
  opts.faults.duplicate_prob = 0.5;
  opts.faults.drop_prob = 0.15;
  opts.faults.crash_rank = 2;
  opts.faults.crash_after_batches = 8;
  ChaosClusterResult r = RunChaosCluster(opts);
  EXPECT_GT(TotalDuplicated(r), 0u);
  CheckReplicatedCrashRun(r);
}

// Replication without any crash must be invisible: exact output, live
// checkpoint traffic, zero failovers, zero replay.
TEST(ChaosTest, ReplicationWithoutCrashIsInvisible) {
  ChaosClusterOptions opts = ReplicatedOptions(26);
  ChaosClusterResult r = RunChaosCluster(opts);
  EXPECT_TRUE(r.exact) << "missing=" << r.missing.size()
                       << " extra=" << r.extra.size();
  EXPECT_EQ(r.master.dead_slaves, 0u);
  EXPECT_EQ(r.master.groups_failed_over, 0u);
  EXPECT_EQ(r.master.replayed_batches, 0u);
  EXPECT_EQ(r.voided, 0u);
  EXPECT_GT(r.master.ckpt_acks, 0u);
}

// The chaos-seed matrix (SJOIN_FUZZ_ITERS scales it): distinct fault seeds
// vary the crash rank, the crash epoch, and the delay/duplicate schedule;
// every run must recover the exact reference output.
TEST(ChaosTest, ReplicatedCrashExactAcrossFaultSeeds) {
  for (std::uint64_t seed : FuzzSeeds(5)) {
    ChaosClusterOptions opts = ReplicatedOptions(100 + seed);
    opts.faults.delay_prob = 0.25;
    opts.faults.delay_min_us = 1 * kUsPerMs;
    opts.faults.delay_max_us = 5 * kUsPerMs;
    opts.faults.duplicate_prob = 0.4;
    opts.faults.crash_rank = 1 + static_cast<Rank>(seed % 3);
    opts.faults.crash_after_batches = 3 + (seed % 6);
    opts.faults.crash_hang = (seed % 2) == 1;
    ChaosClusterResult r = RunChaosCluster(opts);
    EXPECT_EQ(r.master.dead_slaves, 1u) << "seed=" << seed;
    EXPECT_TRUE(r.exact) << "seed=" << seed << " missing=" << r.missing.size()
                         << " extra=" << r.extra.size()
                         << " voided=" << r.voided;
  }
}

/// ReplicatedOptions on 20 ms epochs: 30 epochs, five 6-epoch windows. The
/// epochs are 20 ms, not 5: the committed epoch a sweep carries is the ack
/// watermark the master holds when it issues the sweep, and under a
/// sanitizer 5 ms epochs let the acks fall a few sweeps behind, which
/// leaves the chains longer.
ChaosClusterOptions LongReplicatedOptions(std::uint64_t fault_seed) {
  ChaosClusterOptions opts = ReplicatedOptions(fault_seed);
  opts.cfg.join.window = 120 * kUsPerMs;
  opts.cfg.epoch.t_dist = 20 * kUsPerMs;
  opts.cfg.epoch.t_rep = 80 * kUsPerMs;
  opts.trace = MakeChaosTrace(/*seed=*/97, /*count=*/2400,
                              /*span_us=*/600 * kUsPerMs, /*key_domain=*/40);
  return opts;
}

// Late crashes. The cells above crash by batch 8, before any buddy could
// prune: with a 6-epoch window and a sweep every 2 epochs, the first
// segments fall below the committed watermark around epoch 12. These cells
// crash and hang at batches 14-26 of a 30-epoch run, under the same delay
// and duplicate schedule, so every failover rebuilds from a pruned chain.
struct LateCrash {
  std::uint64_t after_batches = 0;
  bool hang = false;
};

void PrintTo(const LateCrash& c, std::ostream* os) {
  *os << "batch" << c.after_batches << (c.hang ? "_hang" : "_crash");
}

class ReplicatedLateCrashTest : public ::testing::TestWithParam<LateCrash> {};

TEST_P(ReplicatedLateCrashTest, ExactFromPrunedChains) {
  const LateCrash& c = GetParam();
  for (std::uint64_t seed : FuzzSeeds(1)) {
    ChaosClusterOptions opts =
        LongReplicatedOptions(200 + 10 * seed + c.after_batches);
    opts.faults.delay_prob = 0.25;
    opts.faults.delay_min_us = 1 * kUsPerMs;
    opts.faults.delay_max_us = 5 * kUsPerMs;
    opts.faults.duplicate_prob = 0.4;
    opts.faults.crash_rank = 1 + static_cast<Rank>((seed + c.after_batches) % 3);
    opts.faults.crash_after_batches = c.after_batches;
    opts.faults.crash_hang = c.hang;
    ChaosClusterResult r = RunChaosCluster(opts);
    EXPECT_EQ(r.master.dead_slaves, 1u) << "seed=" << seed;
    std::uint64_t pruned = 0;
    for (const SlaveSummary& s : r.slaves) pruned += s.adopted_segments_pruned;
    EXPECT_GT(pruned, 0u) << "seed=" << seed;
    EXPECT_TRUE(r.exact) << "seed=" << seed << " missing=" << r.missing.size()
                         << " extra=" << r.extra.size()
                         << " voided=" << r.voided;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CrashPoints, ReplicatedLateCrashTest,
    ::testing::Values(LateCrash{14, false}, LateCrash{14, true},
                      LateCrash{18, false}, LateCrash{18, true},
                      LateCrash{22, false}, LateCrash{22, true},
                      LateCrash{26, false}, LateCrash{26, true}),
    [](const ::testing::TestParamInfo<LateCrash>& cell) {
      return "batch" + std::to_string(cell.param.after_batches) +
             (cell.param.hang ? "_hang" : "_crash");
    });

// A buddy's replica stays window-sized. At the end of a 30-epoch run (five
// windows) each slave's chains hold at most the input to the groups it is
// buddy for over the last window plus three sweeps; unpruned, they would
// hold all of it.
TEST(ChaosTest, ReplicaStaysWindowSized) {
  ChaosClusterOptions opts = LongReplicatedOptions(30);
  opts.cfg.balance.th_sup = 2.0;  // no migrations: the buddies stay put
  ChaosClusterResult r = RunChaosCluster(opts);
  ASSERT_TRUE(r.exact);

  const std::uint32_t npart = opts.cfg.join.num_partitions;
  const PartitionMap pmap(npart, opts.cfg.num_slaves);
  const Time sweep =
      static_cast<Time>(opts.cfg.replication.ckpt_interval_epochs) *
      opts.cfg.epoch.t_dist;
  const Time horizon =
      opts.trace.back().ts - opts.cfg.join.window - 3 * sweep;
  for (Rank rank = 1; rank <= opts.cfg.num_slaves; ++rank) {
    std::size_t recent = 0;
    std::size_t all = 0;
    for (const Rec& rec : opts.trace) {
      if (pmap.BuddyOf(PartitionOf(rec.key, npart)) != rank - 1) continue;
      ++all;
      if (rec.ts > horizon) ++recent;
    }
    const double held = r.obs[rank]->registry.GaugeValue("replica_records");
    EXPECT_GT(held, 0.0) << "rank " << rank;
    EXPECT_LE(held, static_cast<double>(recent)) << "rank " << rank;
    EXPECT_LT(2 * recent, all) << "rank " << rank;
  }
}

// Same fault seed, replication on, a crash in the schedule: two runs must
// produce byte-identical summaries (migrations suppressed as in
// SameSeedSameSummary). The per-rank injected-fault lines are excluded:
// the dead-slave verdict lands after real-time timeouts, so the epoch it
// falls in -- and every post-verdict message count (redirected batches,
// checkpoint segments, acks, replays) -- is wall-timing dependent.
TEST(ChaosTest, ReplicatedSameSeedSameSummary) {
  ChaosClusterOptions opts = ReplicatedOptions(27);
  opts.cfg.balance.th_sup = 2.0;  // occupancy <= 1: no suppliers, no moves
  opts.faults.delay_prob = 0.2;
  opts.faults.delay_min_us = 1 * kUsPerMs;
  opts.faults.delay_max_us = 4 * kUsPerMs;
  opts.faults.crash_rank = 1;
  opts.faults.crash_after_batches = 6;
  ChaosClusterResult a = RunChaosCluster(opts);
  ChaosClusterResult b = RunChaosCluster(opts);
  EXPECT_TRUE(a.exact);
  EXPECT_TRUE(b.exact);
  EXPECT_EQ(a.Summary(/*include_fault_lines=*/false),
            b.Summary(/*include_fault_lines=*/false));
}

}  // namespace
}  // namespace sjoin
