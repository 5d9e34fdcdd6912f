// End-to-end tests of the epoch-protocol cluster on the virtual clock.
#include "core/sim_driver.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/epoch_tuner.h"
#include "gen/stream_source.h"
#include "join/reference_join.h"

namespace sjoin {
namespace {

// A small, fast cluster configuration: 2-second window, sub-second epochs.
SystemConfig FastCfg() {
  SystemConfig cfg;
  cfg.num_slaves = 2;
  cfg.join.window = 2 * kUsPerSec;
  cfg.join.num_partitions = 8;
  cfg.join.theta_bytes = 8 * 1024;
  cfg.epoch.t_dist = 500 * kUsPerMs;
  cfg.epoch.t_rep = 2 * kUsPerSec;
  cfg.workload.lambda = 200.0;
  cfg.workload.key_domain = 500;  // dense keys => plenty of matches
  cfg.workload.seed = 424242;
  // Keep the cluster comfortably under-loaded for correctness tests.
  cfg.cost.tuple_fixed_ns = 1000.0;
  cfg.cost.cmp_ns = 5.0;
  cfg.cost.msg_fixed_us = 500;
  return cfg;
}

TEST(SimDriverTest, RunsAndProducesOutputs) {
  SystemConfig cfg = FastCfg();
  SimOptions opts{/*warmup=*/5 * kUsPerSec, /*measure=*/15 * kUsPerSec};
  RunMetrics rm = SimDriver(cfg, opts).Run();
  EXPECT_GT(rm.TotalOutputs(), 0u);
  EXPECT_GT(rm.tuples_generated, 0u);
  EXPECT_GT(rm.delay_us.Mean(), 0.0);
  EXPECT_EQ(rm.slaves.size(), 2u);
  EXPECT_EQ(rm.active_slaves_end, 2u);
}

TEST(SimDriverTest, DeterministicAcrossRuns) {
  SystemConfig cfg = FastCfg();
  SimOptions opts{2 * kUsPerSec, 10 * kUsPerSec};
  RunMetrics a = SimDriver(cfg, opts).Run();
  RunMetrics b = SimDriver(cfg, opts).Run();
  EXPECT_EQ(a.TotalOutputs(), b.TotalOutputs());
  EXPECT_DOUBLE_EQ(a.delay_us.Mean(), b.delay_us.Mean());
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.tuples_generated, b.tuples_generated);
  EXPECT_EQ(a.TotalComparisons(), b.TotalComparisons());
}

TEST(SimDriverTest, TupleConservation) {
  SystemConfig cfg = FastCfg();
  SimOptions opts{/*warmup=*/0, /*measure=*/20 * kUsPerSec};
  RunMetrics rm = SimDriver(cfg, opts).Run();
  std::uint64_t processed = 0;
  std::uint64_t buffered = 0;
  for (const SlaveStats& s : rm.slaves) {
    processed += s.processed;
    buffered += s.buffered_end;
  }
  EXPECT_EQ(rm.tuples_generated,
            processed + buffered + rm.master_buffer_end_tuples);
}

// The headline correctness property: the distributed, epoch-batched,
// migrating cluster computes exactly the declarative sliding-window join.
TEST(SimDriverTest, ClusterOutputMatchesReferenceJoin) {
  SystemConfig cfg = FastCfg();
  cfg.workload.lambda = 150.0;
  SimOptions opts{/*warmup=*/0, /*measure=*/20 * kUsPerSec};
  CollectSink all_outputs;
  opts.output_tee = &all_outputs;
  RunMetrics rm = SimDriver(cfg, opts).Run();
  (void)rm;

  // Regenerate the identical input trace (the source is deterministic).
  MergedSource source(cfg.workload.lambda, cfg.workload.b_skew,
                      cfg.workload.key_domain, cfg.workload.seed);
  std::vector<Rec> trace;
  source.DrainUntil(opts.measure, trace);
  auto reference = ReferenceSlidingJoin(trace, cfg.join.window);

  std::vector<JoinPair> got;
  for (const JoinOutput& o : all_outputs.Outputs()) {
    got.push_back(JoinPair{o.left.ts, o.right.ts, o.left.key});
  }
  std::sort(got.begin(), got.end());

  // No duplicates, no spurious pairs.
  EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
  EXPECT_TRUE(std::includes(reference.begin(), reference.end(), got.begin(),
                            got.end()))
      << "cluster emitted a pair the reference join does not contain";

  // Completeness up to the processing horizon: pairs whose newer tuple
  // arrived well before the end must all have been produced (tuples near
  // the end may still sit in buffers when the run stops).
  const Time horizon = opts.measure - 4 * kUsPerSec;
  std::size_t expected_before = 0;
  for (const JoinPair& p : reference) {
    if (std::max(p.ts0, p.ts1) < horizon) ++expected_before;
  }
  std::size_t got_before = 0;
  for (const JoinPair& p : got) {
    if (std::max(p.ts0, p.ts1) < horizon) ++got_before;
  }
  EXPECT_EQ(got_before, expected_before);
}

TEST(SimDriverTest, OverloadInflatesProductionDelay) {
  SystemConfig cfg = FastCfg();
  cfg.num_slaves = 1;
  SimOptions opts{5 * kUsPerSec, 20 * kUsPerSec};

  RunMetrics light = SimDriver(cfg, opts).Run();

  SystemConfig heavy_cfg = cfg;
  heavy_cfg.cost.tuple_fixed_ns = 4'000'000.0;  // 4 ms/tuple >> arrival gap
  RunMetrics heavy = SimDriver(heavy_cfg, opts).Run();

  EXPECT_GT(heavy.delay_us.Mean(), 4.0 * light.delay_us.Mean());
  // Backlog visible as residual buffered input.
  std::size_t backlog = 0;
  for (const SlaveStats& s : heavy.slaves) backlog += s.buffered_end;
  EXPECT_GT(backlog, 0u);
}

TEST(SimDriverTest, MigrationsFireUnderSkewedLoad) {
  SystemConfig cfg = FastCfg();
  cfg.num_slaves = 2;
  cfg.workload.b_skew = 0.95;  // hottest key carries ~63% of all tuples
  cfg.workload.lambda = 800.0;
  cfg.cost.tuple_fixed_ns = 1'200'000.0;  // hot slave overloads, cold idles
  cfg.balance.th_sup = 0.05;           // migrate readily in this small run
  cfg.balance.th_con = 0.01;
  SimOptions opts{0, 40 * kUsPerSec};
  RunMetrics rm = SimDriver(cfg, opts).Run();
  EXPECT_GT(rm.migrations, 0u);
  EXPECT_GT(rm.state_moved_tuples, 0u);
}

TEST(SimDriverTest, AdaptiveDeclusteringShrinksWhenIdle) {
  SystemConfig cfg = FastCfg();
  cfg.num_slaves = 4;
  cfg.workload.lambda = 50.0;  // trivial load
  cfg.balance.adaptive_declustering = true;
  SimOptions opts{0, 30 * kUsPerSec};
  SimDriver driver(cfg, opts);
  RunMetrics rm = driver.Run();
  EXPECT_LT(rm.active_slaves_end, 4u);
  EXPECT_GE(rm.active_slaves_end, 1u);
}

TEST(SimDriverTest, AdaptiveDeclusteringGrowsUnderOverload) {
  SystemConfig cfg = FastCfg();
  cfg.num_slaves = 4;
  cfg.initial_active_slaves = 1;
  cfg.workload.lambda = 600.0;
  cfg.cost.tuple_fixed_ns = 1'500'000.0;  // one slave cannot keep up
  cfg.balance.adaptive_declustering = true;
  cfg.balance.th_sup = 0.2;
  SimOptions opts{0, 40 * kUsPerSec};
  RunMetrics rm = SimDriver(cfg, opts).Run();
  EXPECT_GT(rm.active_slaves_end, 1u);
}

TEST(SimDriverTest, SubgroupCommunicationShrinksMasterBufferPeak) {
  SystemConfig cfg = FastCfg();
  cfg.num_slaves = 4;
  cfg.workload.lambda = 2000.0;
  SimOptions opts{2 * kUsPerSec, 20 * kUsPerSec};

  RunMetrics one_group = SimDriver(cfg, opts).Run();

  SystemConfig cfg4 = cfg;
  cfg4.epoch.num_subgroups = 4;
  RunMetrics four_groups = SimDriver(cfg4, opts).Run();

  // Section V-B: M_buf = (r t_d / 2)(1 + 1/n_g): n_g=4 should cut the peak
  // to roughly 62.5% of n_g=1; allow generous slack for stochastic arrival.
  EXPECT_LT(static_cast<double>(four_groups.master_buffer_peak_bytes),
            0.85 * static_cast<double>(one_group.master_buffer_peak_bytes));
}

TEST(SimDriverTest, FineTuningCutsCpuTimeOnLargeWindows) {
  SystemConfig cfg = FastCfg();
  cfg.num_slaves = 2;
  cfg.join.window = 20 * kUsPerSec;
  cfg.join.theta_bytes = 4 * 1024;  // 64 tuples
  cfg.workload.lambda = 800.0;
  cfg.workload.key_domain = 100'000;
  SimOptions opts{10 * kUsPerSec, 20 * kUsPerSec};

  RunMetrics tuned = SimDriver(cfg, opts).Run();
  SystemConfig cfg_off = cfg;
  cfg_off.join.fine_tuning = false;
  RunMetrics untuned = SimDriver(cfg_off, opts).Run();

  EXPECT_LT(tuned.TotalComparisons() * 2, untuned.TotalComparisons());
  EXPECT_LT(tuned.TotalCpu(), untuned.TotalCpu());
  EXPECT_GT(tuned.splits, 0u);
}

TEST(SimDriverTest, CommunicationTimeDivergesAcrossSerialOrder) {
  SystemConfig cfg = FastCfg();
  cfg.num_slaves = 4;
  cfg.workload.lambda = 2000.0;
  SimOptions opts{2 * kUsPerSec, 20 * kUsPerSec};
  RunMetrics rm = SimDriver(cfg, opts).Run();
  // Later slaves in the serial order wait for predecessors: max > min.
  EXPECT_GT(rm.MaxComm(), rm.MinComm());
  // The first slave never waits.
  EXPECT_EQ(rm.slaves[0].comm_wait, 0);
  EXPECT_GT(rm.slaves[3].comm_wait, 0);
}

TEST(SimDriverTest, WindowStateIsBoundedByExpiry) {
  SystemConfig cfg = FastCfg();
  cfg.num_slaves = 1;
  cfg.workload.lambda = 500.0;
  SimOptions opts{0, 30 * kUsPerSec};
  RunMetrics rm = SimDriver(cfg, opts).Run();
  // ~2 streams * 500 t/s * 2 s window = ~2000 tuples; block-granular expiry
  // and partial blocks add slack, but state must not grow with run length.
  EXPECT_LT(rm.slaves[0].window_tuples_max, 6000u);
  EXPECT_GT(rm.slaves[0].window_tuples_max, 1000u);
}

TEST(SimDriverTest, RateScheduleDrivesLoadPhases) {
  SystemConfig cfg = FastCfg();
  cfg.workload.rate_schedule = {{5 * kUsPerSec, 100.0},
                                {5 * kUsPerSec, 1000.0}};
  SimOptions opts{0, 20 * kUsPerSec};
  RunMetrics rm = SimDriver(cfg, opts).Run();
  // Mean rate 550/stream over 20 s => ~22000 tuples for both streams.
  EXPECT_NEAR(static_cast<double>(rm.tuples_generated), 22000.0, 2500.0);
  EXPECT_GT(rm.TotalOutputs(), 0u);
}

TEST(SimDriverTest, EpochTunerGrowsShortEpochsInSim) {
  SystemConfig cfg = FastCfg();
  // Starts at the tuner's 250 ms floor, so any growth comes from the comm
  // fraction, not from clamping the initial epoch.
  cfg.epoch.t_dist = 250 * kUsPerMs;
  cfg.epoch.t_rep = kUsPerSec;
  cfg.epoch_tuner.enabled = true;
  // 50 ms of fixed cost per message at 250 ms epochs: ~20% of every epoch
  // is communication, above the tuner's 0.15 growth threshold.
  cfg.cost.msg_fixed_us = 50'000;
  SimOptions opts{0, 30 * kUsPerSec};
  RunMetrics rm = SimDriver(cfg, opts).Run();
  EXPECT_GT(rm.epoch_grows, 0u);
  EXPECT_GT(rm.final_t_dist, cfg.epoch.t_dist);
}

TEST(SimDriverTest, EpochTunerStartsAtItsClampedEpoch) {
  SystemConfig cfg = FastCfg();
  // 100 ms is below the tuner's 250 ms floor; t_rep is far beyond the run,
  // so the tuner never decides and the run keeps its starting epoch.
  cfg.epoch.t_dist = 100 * kUsPerMs;
  cfg.epoch.t_rep = 100 * kUsPerSec;
  cfg.epoch_tuner.enabled = true;
  SimOptions opts{0, 3 * kUsPerSec};
  RunMetrics rm = SimDriver(cfg, opts).Run();
  EXPECT_EQ(rm.epoch_grows, 0u);
  EXPECT_EQ(rm.epoch_shrinks, 0u);
  EXPECT_EQ(rm.final_t_dist, EpochTuner::kMinEpoch);
}

TEST(SimDriverTest, DelayHistogramConsistentWithMean) {
  SystemConfig cfg = FastCfg();
  SimOptions opts{2 * kUsPerSec, 15 * kUsPerSec};
  RunMetrics rm = SimDriver(cfg, opts).Run();
  ASSERT_GT(rm.delay_hist.TotalCount(), 0u);
  const double p50 = rm.delay_hist.Quantile(0.5);
  const double p99 = rm.delay_hist.Quantile(0.99);
  EXPECT_LE(p50, p99);
  // The mean must lie within the histogram's observed range.
  EXPECT_GE(rm.delay_us.Mean(), 0.0);
  EXPECT_LE(rm.delay_us.Mean(), p99 * 2.0 + 1e6);
}

}  // namespace
}  // namespace sjoin
