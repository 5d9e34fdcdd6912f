#include "join/join_module.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "join/reference_join.h"

namespace sjoin {
namespace {

SystemConfig SmallCfg() {
  SystemConfig cfg;
  cfg.workload.tuple_bytes = 32;
  cfg.join.block_bytes = 128;           // 4 records per block
  cfg.join.theta_bytes = 1024;
  cfg.join.window = 100 * kUsPerMs;     // 100 ms window
  cfg.join.num_partitions = 4;
  return cfg;
}

Rec R(Time ts, std::uint64_t key, StreamId s) { return Rec{ts, key, s}; }

std::vector<JoinPair> SortedPairs(const CollectSink& sink) {
  std::vector<JoinPair> out;
  for (const JoinOutput& o : sink.Outputs()) {
    out.push_back(JoinPair{o.left.ts, o.right.ts, o.left.key});
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(JoinModuleTest, SimpleCrossStreamMatch) {
  SystemConfig cfg = SmallCfg();
  CollectSink sink;
  JoinModule jm(cfg, &sink);
  std::vector<Rec> in = {R(1000, 42, 0), R(2000, 42, 1)};
  jm.EnqueueBatch(in);
  jm.ProcessFor(10'000, kUsPerSec);
  auto pairs = SortedPairs(sink);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (JoinPair{1000, 2000, 42}));
}

TEST(JoinModuleTest, NoMatchAcrossDifferentKeys) {
  SystemConfig cfg = SmallCfg();
  CollectSink sink;
  JoinModule jm(cfg, &sink);
  std::vector<Rec> in = {R(1000, 1, 0), R(2000, 2, 1)};
  jm.EnqueueBatch(in);
  jm.ProcessFor(10'000, kUsPerSec);
  EXPECT_TRUE(sink.Outputs().empty());
}

TEST(JoinModuleTest, NoMatchWithinSameStream) {
  SystemConfig cfg = SmallCfg();
  CollectSink sink;
  JoinModule jm(cfg, &sink);
  std::vector<Rec> in = {R(1000, 5, 0), R(2000, 5, 0)};
  jm.EnqueueBatch(in);
  jm.ProcessFor(10'000, kUsPerSec);
  EXPECT_TRUE(sink.Outputs().empty());
}

TEST(JoinModuleTest, WindowExcludesDistantPairs) {
  SystemConfig cfg = SmallCfg();  // window = 100 ms
  CollectSink sink;
  JoinModule jm(cfg, &sink);
  std::vector<Rec> in = {R(0, 9, 0), R(100 * kUsPerMs + 1, 9, 1)};
  jm.EnqueueBatch(in);
  jm.ProcessFor(kUsPerSec, kUsPerSec);
  EXPECT_TRUE(sink.Outputs().empty());
}

TEST(JoinModuleTest, WindowBoundaryInclusive) {
  SystemConfig cfg = SmallCfg();
  CollectSink sink;
  JoinModule jm(cfg, &sink);
  std::vector<Rec> in = {R(0, 9, 0), R(100 * kUsPerMs, 9, 1)};
  jm.EnqueueBatch(in);
  jm.ProcessFor(kUsPerSec, kUsPerSec);
  EXPECT_EQ(sink.Outputs().size(), 1u);
}

TEST(JoinModuleTest, NoDuplicateOutputs) {
  SystemConfig cfg = SmallCfg();
  CollectSink sink;
  JoinModule jm(cfg, &sink);
  // Many same-key tuples interleaved across streams: every cross pair once.
  std::vector<Rec> in;
  for (Time t = 1; t <= 20; ++t) {
    in.push_back(R(t * 1000, 7, static_cast<StreamId>(t % 2)));
  }
  jm.EnqueueBatch(in);
  jm.ProcessFor(kUsPerSec, 100 * kUsPerSec);
  auto pairs = SortedPairs(sink);
  EXPECT_EQ(pairs.size(), 100u);  // 10 x 10 cross pairs, all within window
  EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
}

TEST(JoinModuleTest, ProductionDelayStampsAfterWorkStart) {
  SystemConfig cfg = SmallCfg();
  CollectSink sink;
  JoinModule jm(cfg, &sink);
  std::vector<Rec> in = {R(1000, 3, 0), R(2000, 3, 1)};
  jm.EnqueueBatch(in);
  const Time start = 500'000;
  jm.ProcessFor(start, kUsPerSec);
  ASSERT_EQ(sink.Outputs().size(), 1u);
  const JoinOutput& o = sink.Outputs()[0];
  EXPECT_GE(o.produced_at, start);
  EXPECT_GT(o.ProductionDelay(), 0);
}

TEST(JoinModuleTest, BudgetLimitsProcessing) {
  SystemConfig cfg = SmallCfg();
  CollectSink sink;
  JoinModule jm(cfg, &sink);
  std::vector<Rec> in;
  for (Time t = 1; t <= 1000; ++t) {
    in.push_back(R(t, static_cast<std::uint64_t>(t) & 0xFFFF, 0));
  }
  jm.EnqueueBatch(in);
  // Budget for roughly one tuple's fixed cost.
  const Duration one = cfg.cost.TupleFixedCost(1);
  jm.ProcessFor(0, one);
  EXPECT_LT(jm.TuplesProcessed(), 10u);
  EXPECT_GT(jm.BufferedTuples(), 980u);
  // A large budget drains the rest.
  jm.ProcessFor(one, 365 * 24 * 3600 * kUsPerSec);
  EXPECT_EQ(jm.BufferedTuples(), 0u);
  EXPECT_EQ(jm.TuplesProcessed(), 1000u);
}

TEST(JoinModuleTest, ComparisonsChargeGrowsWithWindow) {
  SystemConfig cfg = SmallCfg();
  cfg.join.fine_tuning = false;
  CollectSink sink;
  JoinModule jm(cfg, &sink);
  std::vector<Rec> in;
  for (Time t = 1; t <= 200; ++t) {
    in.push_back(R(t * 10, 77, static_cast<StreamId>(t % 2)));
  }
  jm.EnqueueBatch(in);
  jm.ProcessFor(kUsPerSec, 1000 * kUsPerSec);
  // Each probe scans the opposite partition: quadratic growth overall.
  EXPECT_GT(jm.Comparisons(), 4000u);
}

TEST(JoinModuleTest, ExtractInstallPreservesOutputs) {
  SystemConfig cfg = SmallCfg();
  cfg.join.window = 10 * kUsPerSec;

  // Reference: everything processed on one module.
  std::vector<Rec> all;
  for (Time t = 1; t <= 100; ++t) {
    // Two hot keys so matches definitely exist; key 1 and key 2 land in
    // (possibly) different partitions.
    all.push_back(R(t * 1000, static_cast<std::uint64_t>(1 + (t % 2)),
                    static_cast<StreamId>((t / 2) % 2)));
  }
  auto expect = ReferenceSlidingJoin(all, cfg.join.window);

  // Split processing: module A handles the first half, then one partition
  // migrates to module B, which receives the rest of that partition's
  // tuples while A keeps the other partition.
  CollectSink sink_a;
  CollectSink sink_b;
  JoinModule a(cfg, &sink_a);
  JoinModule b(cfg, &sink_b);

  std::vector<Rec> first(all.begin(), all.begin() + 50);
  a.EnqueueBatch(first);
  a.ProcessFor(0, 1000 * kUsPerSec);

  const PartitionId moving = PartitionOf(1, cfg.join.num_partitions);
  Duration cost = 0;
  std::vector<Rec> pending;
  auto group = a.ExtractGroup(moving, 0, cost, pending);
  Writer w;
  EncodeGroupState(w, *group);
  Reader r(w.Bytes());
  b.InstallGroup(moving,
                 DecodeGroupState(r, cfg.join, cfg.workload.tuple_bytes));
  b.EnqueueBatch(pending);

  for (std::size_t i = 50; i < all.size(); ++i) {
    const Rec& rec = all[i];
    if (PartitionOf(rec.key, cfg.join.num_partitions) == moving) {
      b.EnqueueBatch(std::span<const Rec>(&rec, 1));
    } else {
      a.EnqueueBatch(std::span<const Rec>(&rec, 1));
    }
  }
  a.ProcessFor(2000 * kUsPerSec, 10000 * kUsPerSec);
  b.ProcessFor(2000 * kUsPerSec, 10000 * kUsPerSec);

  std::vector<JoinPair> got = SortedPairs(sink_a);
  auto got_b = SortedPairs(sink_b);
  got.insert(got.end(), got_b.begin(), got_b.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);
}

TEST(JoinModuleTest, InstallRejectsPartitionOutOfRange) {
  // Migrated pids arrive in frames; the store has one slot per partition
  // and must refuse a pid past them instead of writing out of bounds.
  SystemConfig cfg = SmallCfg();
  CollectSink sink;
  JoinModule jm(cfg, &sink);
  EXPECT_THROW(jm.InstallGroup(cfg.join.num_partitions,
                               std::make_unique<PartitionGroup>(cfg.join, 32)),
               std::out_of_range);
  jm.InstallGroup(cfg.join.num_partitions - 1,
                  std::make_unique<PartitionGroup>(cfg.join, 32));
  EXPECT_EQ(jm.Store().OwnedPartitions(),
            std::vector<PartitionId>{cfg.join.num_partitions - 1});
  EXPECT_EQ(jm.Store().Find(cfg.join.num_partitions), nullptr);
}

TEST(JoinModuleTest, FineTuningReducesComparisonsOnLargeWindows) {
  SystemConfig cfg = SmallCfg();
  cfg.join.window = 1000 * kUsPerSec;
  cfg.join.theta_bytes = 512;  // split above 1 KB = 32 records
  cfg.join.num_partitions = 1;

  std::vector<Rec> in;
  Pcg32 rng(3, 4);
  for (Time t = 1; t <= 4000; ++t) {
    in.push_back(R(t * 100, rng.NextBounded(1000),
                   static_cast<StreamId>(t % 2)));
  }

  auto run = [&](bool tuning) {
    SystemConfig c = cfg;
    c.join.fine_tuning = tuning;
    StatsSink sink;
    JoinModule jm(c, &sink);
    jm.EnqueueBatch(in);
    jm.ProcessFor(0, 100000 * kUsPerSec);
    return jm.Comparisons();
  };

  const std::uint64_t with = run(true);
  const std::uint64_t without = run(false);
  EXPECT_LT(with * 4, without)
      << "tuning should cut BNL comparisons by far more than 4x here";
}

TEST(JoinModuleTest, OutputCountMatchesSinkDeliveries) {
  SystemConfig cfg = SmallCfg();
  CollectSink sink;
  JoinModule jm(cfg, &sink);
  std::vector<Rec> in;
  for (Time t = 1; t <= 50; ++t) {
    in.push_back(R(t * 500, static_cast<std::uint64_t>(t % 5),
                   static_cast<StreamId>(t % 2)));
  }
  jm.EnqueueBatch(in);
  jm.ProcessFor(0, 1000 * kUsPerSec);
  EXPECT_EQ(jm.Outputs(), sink.Outputs().size());
}

}  // namespace
}  // namespace sjoin
