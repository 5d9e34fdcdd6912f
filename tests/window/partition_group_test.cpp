#include "window/partition_group.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"

namespace sjoin {
namespace {

constexpr sjoin::Time kFarFuture = 9'000'000'000'000;

// Small geometry for tests: 32-byte tuples, 128-byte blocks (4 per block),
// theta = 256 bytes => split above 512 B (16 tuples), merge below 256 B.
JoinConfig SmallCfg(bool tuning = true) {
  JoinConfig cfg;
  cfg.block_bytes = 128;
  cfg.theta_bytes = 256;
  cfg.fine_tuning = tuning;
  return cfg;
}
constexpr std::size_t kTupleBytes = 32;

// Installs `n` sealed records with distinct keys drawn from an RNG.
std::vector<Rec> InstallRandom(PartitionGroup& g, std::size_t n,
                               std::uint64_t seed, Time start_ts = 1) {
  Pcg32 rng(seed, 2);
  std::vector<Rec> recs;
  for (std::size_t i = 0; i < n; ++i) {
    Rec r{start_ts + static_cast<Time>(i), rng.NextU64(),
          static_cast<StreamId>(i % 2)};
    g.InstallSealed(r);
    recs.push_back(r);
  }
  return recs;
}

TEST(PartitionGroupTest, CountsTrackInstalls) {
  PartitionGroup g(SmallCfg(), kTupleBytes);
  InstallRandom(g, 10, 1);
  EXPECT_EQ(g.TotalCount(), 10u);
  EXPECT_EQ(g.TotalBytes(), 10 * kTupleBytes);
}

TEST(PartitionGroupTest, TuneSplitsOversizedGroup) {
  PartitionGroup g(SmallCfg(), kTupleBytes);
  auto recs = InstallRandom(g, 40, 2);  // 1280 B > 2*theta = 512 B
  EXPECT_EQ(g.MiniGroupCount(), 1u);
  std::size_t moved = g.MaybeTune(recs[0].key);
  EXPECT_GT(moved, 0u);
  EXPECT_GT(g.Splits(), 0u);
  EXPECT_GT(g.MiniGroupCount(), 1u);
  EXPECT_EQ(g.TotalCount(), 40u);  // no record lost
}

TEST(PartitionGroupTest, SplitPreservesEveryRecord) {
  PartitionGroup g(SmallCfg(), kTupleBytes);
  auto recs = InstallRandom(g, 64, 3);
  g.MaybeTune(recs[0].key);
  // Every record must be findable in the mini-group its key routes to.
  std::vector<Time> scratch;
  for (const Rec& r : recs) {
    MiniGroup& mg = g.GroupFor(r.key);
    auto m = mg.Part(r.stream).ProbeSealed(r.key, 0, kFarFuture, scratch);
    EXPECT_FALSE(m.empty()) << "lost record key=" << r.key;
  }
}

TEST(PartitionGroupTest, NoTuningWhenDisabled) {
  PartitionGroup g(SmallCfg(/*tuning=*/false), kTupleBytes);
  auto recs = InstallRandom(g, 100, 4);
  EXPECT_EQ(g.MaybeTune(recs[0].key), 0u);
  EXPECT_EQ(g.MiniGroupCount(), 1u);
  EXPECT_EQ(g.Splits(), 0u);
}

TEST(PartitionGroupTest, NoSplitBelowThreshold) {
  PartitionGroup g(SmallCfg(), kTupleBytes);
  auto recs = InstallRandom(g, 12, 5);  // 384 B <= 512 B
  // 12 tuples = 384 B which is above theta (256) but not above 2*theta.
  EXPECT_EQ(g.MaybeTune(recs[0].key), 0u);
  EXPECT_EQ(g.MiniGroupCount(), 1u);
}

TEST(PartitionGroupTest, RepeatedGrowthKeepsMiniGroupsBounded) {
  PartitionGroup g(SmallCfg(), kTupleBytes);
  Pcg32 rng(6, 2);
  Time ts = 1;
  for (int round = 0; round < 50; ++round) {
    std::uint64_t last_key = 0;
    for (int i = 0; i < 8; ++i) {
      Rec r{ts++, rng.NextU64(), static_cast<StreamId>(i % 2)};
      last_key = r.key;
      g.InstallSealed(r);
    }
    g.MaybeTune(last_key);
  }
  // With 400 tuples and a 16-tuple 2*theta cap, tuning must have split the
  // group into many mini-groups, and the one we touched last respects the
  // bound unless the directory hit max depth.
  EXPECT_GT(g.MiniGroupCount(), 10u);
  EXPECT_EQ(g.TotalCount(), 400u);
}

// One hot key cannot be separated by hashing at any depth: tuning splits
// its mini-group until the directory reaches its depth cap of 10, then
// stops.
TEST(PartitionGroupTest, HotKeyStopsAtTheDepthCap) {
  PartitionGroup g(SmallCfg(), kTupleBytes);
  for (Time ts = 1; ts <= 40; ++ts) {
    g.InstallSealed(Rec{ts, 42, static_cast<StreamId>(ts % 2)});
  }
  g.MaybeTune(42);
  EXPECT_EQ(g.Directory().GlobalDepth(), 10u);
  EXPECT_EQ(g.Splits(), 10u);
  EXPECT_EQ(g.TotalCount(), 40u);
}

TEST(PartitionGroupTest, MergeAfterShrinking) {
  PartitionGroup g(SmallCfg(), kTupleBytes);
  auto recs = InstallRandom(g, 64, 7);
  g.MaybeTune(recs[0].key);
  std::size_t buckets_before = g.MiniGroupCount();
  ASSERT_GT(buckets_before, 1u);

  // Empty the group by expiring everything (simulate via fresh group and
  // count adjustment): rebuild scenario -- expire all blocks from every
  // mini-partition by a far-future watermark is blocked by head retention,
  // so instead check the merge path directly: a group whose mini-groups are
  // all tiny merges down when touched.
  PartitionGroup g2(SmallCfg(), kTupleBytes);
  auto recs2 = InstallRandom(g2, 64, 8);
  g2.MaybeTune(recs2[0].key);
  ASSERT_GT(g2.MiniGroupCount(), 1u);

  // Drain: expire as much as possible from each mini-partition. Only the
  // head block of each may survive, and the group's count follows.
  g2.ForEachMiniGroup([&](MiniGroup& mg) {
    for (StreamId s = 0; s < kStreamCount; ++s) {
      MiniPartition& part = mg.Part(s);
      const std::size_t held = part.TotalCount();
      const std::size_t n = part.ExpireBlocks(1'000'000'000);
      EXPECT_EQ(part.TotalCount(), held - n);
      std::size_t survivors = 0;
      part.ForEachRecord([&](const Rec&) { ++survivors; });
      EXPECT_EQ(survivors, held - n);
      EXPECT_LE(survivors, g2.BlockCapacity());
      g2.AddCount(-static_cast<std::ptrdiff_t>(n));
    }
  });
  std::size_t left = 0;
  g2.ForEachMiniGroup([&](MiniGroup& mg) {
    left += mg.Part(0).TotalCount() + mg.Part(1).TotalCount();
  });
  EXPECT_EQ(g2.TotalCount(), left);
  std::size_t before = g2.MiniGroupCount();
  g2.MaybeTune(recs2[0].key);
  EXPECT_LE(g2.MiniGroupCount(), before);
  EXPECT_GT(g2.Merges(), 0u);
}

TEST(PartitionGroupTest, ForceBucketDepthRebuildsShape) {
  PartitionGroup g(SmallCfg(), kTupleBytes);
  g.ForceBucketDepth(0b01, 2);
  g.ForceBucketDepth(0b11, 2);
  // Pattern 01 and 11 now live in distinct depth-2 buckets.
  EXPECT_GE(g.Directory().GlobalDepth(), 2u);
  EXPECT_EQ(g.Directory().Find(0b01).local_depth, 2u);
  EXPECT_EQ(g.Directory().Find(0b11).local_depth, 2u);
}

TEST(PartitionGroupTest, TuneHashDecorrelatedFromIdentity) {
  // Keys 0..63 must not all land in one half of the tuning hash space.
  int ones = 0;
  for (std::uint64_t k = 0; k < 64; ++k) {
    ones += static_cast<int>(PartitionGroup::TuneHash(k) & 1);
  }
  EXPECT_GT(ones, 16);
  EXPECT_LT(ones, 48);
}

TEST(MiniGroupTest, LazyInitialization) {
  MiniGroup mg;
  EXPECT_FALSE(mg.Initialized());
  EXPECT_EQ(mg.TotalCount(), 0u);
  EXPECT_EQ(mg.MaxSeenTs(), 0);
  mg.Init(4);
  EXPECT_TRUE(mg.Initialized());
  mg.Part(0).Insert(Rec{5, 1, 0});
  EXPECT_EQ(mg.TotalCount(), 1u);
  EXPECT_EQ(mg.MaxSeenTs(), 5);
}

}  // namespace
}  // namespace sjoin
