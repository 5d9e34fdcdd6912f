#include "core/master_buffer.h"

#include <gtest/gtest.h>

namespace sjoin {
namespace {

Rec R(Time ts, std::uint64_t key) { return Rec{ts, key, 0}; }

TEST(MasterBufferTest, AddAndDrain) {
  MasterBuffer buf(4, 64);
  buf.Add(R(1, 10), 0);
  buf.Add(R(2, 11), 1);
  buf.Add(R(3, 12), 0);
  EXPECT_EQ(buf.TotalTuples(), 3u);
  EXPECT_EQ(buf.TotalBytes(), 3u * 64u);

  const std::span<const Rec> batch = buf.Pending(0);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].ts, 1);
  EXPECT_EQ(batch[1].ts, 3);  // per-partition arrival order preserved
  buf.ClearPartition(0);
  EXPECT_EQ(buf.TotalTuples(), 1u);
}

TEST(MasterBufferTest, DrainMultiplePartitions) {
  MasterBuffer buf(4, 64);
  for (Time t = 1; t <= 8; ++t) {
    buf.Add(R(t, static_cast<std::uint64_t>(t)),
            static_cast<PartitionId>(t % 4));
  }
  std::size_t drained = 0;
  for (PartitionId pid : {1u, 3u}) {
    drained += buf.Pending(pid).size();
    buf.ClearPartition(pid);
  }
  EXPECT_EQ(drained, 4u);
  EXPECT_EQ(buf.TotalTuples(), 4u);
}

TEST(MasterBufferTest, PeakTracksHighWater) {
  MasterBuffer buf(2, 64);
  for (Time t = 1; t <= 10; ++t) buf.Add(R(t, 0), 0);
  EXPECT_EQ(buf.PeakBytes(), 10u * 64u);
  buf.ClearPartition(0);
  EXPECT_EQ(buf.TotalBytes(), 0u);
  EXPECT_EQ(buf.PeakBytes(), 10u * 64u);  // peak survives the drain
  buf.ResetPeak();
  EXPECT_EQ(buf.PeakBytes(), 0u);
}

// A group is drained for sending or migration by encoding its Pending run
// and then clearing it.
TEST(MasterBufferTest, DrainPartitionForMigration) {
  MasterBuffer buf(4, 64);
  buf.Add(R(1, 1), 2);
  buf.Add(R(2, 2), 1);
  buf.Add(R(3, 3), 2);
  const std::span<const Rec> run = buf.Pending(2);
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run[0].ts, 1);
  EXPECT_EQ(run[1].ts, 3);
  buf.ClearPartition(2);
  EXPECT_TRUE(buf.Pending(2).empty());
  EXPECT_EQ(buf.TotalTuples(), 1u);  // partition 1's tuple stays
  EXPECT_EQ(buf.Pending(1).size(), 1u);
  EXPECT_EQ(buf.PeakBytes(), 3u * 64u);
  buf.ClearPartition(1);
  EXPECT_EQ(buf.TotalTuples(), 0u);
}

TEST(MasterBufferTest, DrainEmptyPartitionYieldsNothing) {
  MasterBuffer buf(4, 64);
  buf.Add(R(1, 1), 2);
  EXPECT_TRUE(buf.Pending(0).empty());
  EXPECT_TRUE(buf.Pending(3).empty());
  buf.ClearPartition(3);  // nothing buffered: a no-op
  EXPECT_TRUE(buf.Pending(3).empty());
  EXPECT_EQ(buf.TotalTuples(), 1u);
  EXPECT_EQ(buf.Pending(2).size(), 1u);
}

}  // namespace
}  // namespace sjoin
