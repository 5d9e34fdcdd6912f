#include "window/mini_partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "testutil/fuzz_env.h"

namespace sjoin {
namespace {

constexpr sjoin::Time kFarFuture = 9'000'000'000'000;

Rec R(Time ts, std::uint64_t key, StreamId s = 0) { return Rec{ts, key, s}; }

/// Up to `pairs` pairs of distinct keys whose SlotHash agrees in its tag
/// (top 16 bits) and its low `low_bits` bits, so that each pair shares its
/// home slot in every table of at most 2^low_bits slots.
std::vector<std::pair<std::uint64_t, std::uint64_t>> TagCollidingPairs(
    unsigned low_bits, std::size_t pairs) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  std::unordered_map<std::uint64_t, std::uint64_t> seen;
  const std::uint64_t low_mask = (std::uint64_t{1} << low_bits) - 1;
  for (std::uint64_t key = 1; out.size() < pairs; ++key) {
    const std::uint64_t h = MiniPartition::SlotHash(key);
    const auto [it, fresh] =
        seen.try_emplace(((h >> 48) << low_bits) | (h & low_mask), key);
    if (!fresh) {
      out.emplace_back(it->second, key);
      seen.erase(it);
    }
  }
  return out;
}

/// Timestamps of every record the partition holds, in temporal order.
std::vector<Time> Timestamps(const MiniPartition& p) {
  std::vector<Time> ts;
  p.ForEachRecord([&](const Rec& r) { ts.push_back(r.ts); });
  return ts;
}

/// Every probe's matches through the batched walk; checks that it emits
/// each probe exactly once, in batch order.
std::vector<std::vector<Time>> ProbeBatch(
    const MiniPartition& p, std::span<const MiniPartition::SealedProbe> batch,
    MiniPartition::BatchScratch& scratch) {
  std::vector<std::vector<Time>> out;
  p.ProbeSealedBatch(batch, scratch,
                     [&](std::size_t i, std::span<const Time> matches) {
                       EXPECT_EQ(i, out.size()) << "emitted out of order";
                       out.emplace_back(matches.begin(), matches.end());
                     });
  EXPECT_EQ(out.size(), batch.size());
  return out;
}

TEST(MiniPartitionTest, InsertedRecordsAreFreshUntilSealed) {
  std::vector<Time> scratch;  // ProbeSealed output
  MiniPartition p(4, 0);
  p.Insert(R(1, 10));
  p.Insert(R(2, 10));
  EXPECT_EQ(p.FreshCount(), 2u);
  EXPECT_EQ(p.SealedCount(), 0u);
  // Fresh records are invisible to probes (duplicate-elimination rule).
  EXPECT_TRUE(p.ProbeSealed(10, 0, kFarFuture, scratch).empty());

  p.Seal();
  EXPECT_EQ(p.FreshCount(), 0u);
  EXPECT_EQ(p.SealedCount(), 2u);
  EXPECT_EQ(p.ProbeSealed(10, 0, kFarFuture, scratch).size(), 2u);
}

TEST(MiniPartitionTest, HeadFullOnlyWithFreshContent) {
  MiniPartition p(2, 0);
  p.Insert(R(1, 1));
  EXPECT_FALSE(p.HeadFull());
  p.Insert(R(2, 2));
  EXPECT_TRUE(p.HeadFull());
  p.Seal();
  EXPECT_FALSE(p.HeadFull());  // full but nothing fresh
}

TEST(MiniPartitionTest, ProbeFiltersByKeyAndWindow) {
  std::vector<Time> scratch;  // ProbeSealed output
  MiniPartition p(8, 0);
  p.Insert(R(100, 7));
  p.Insert(R(200, 7));
  p.Insert(R(300, 9));
  p.Seal();
  // Probe for key 7 within the window starting at ts >= 150.
  auto m = p.ProbeSealed(7, 150, kFarFuture, scratch);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0], 200);
  // min_ts below everything returns both.
  EXPECT_EQ(p.ProbeSealed(7, 0, kFarFuture, scratch).size(), 2u);
  // Unknown key.
  EXPECT_TRUE(p.ProbeSealed(1234, 0, kFarFuture, scratch).empty());
}

TEST(MiniPartitionTest, ProbeSpanIsAscendingTimestamps) {
  std::vector<Time> scratch;  // ProbeSealed output
  MiniPartition p(8, 0);
  for (Time t = 1; t <= 5; ++t) p.Insert(R(t * 10, 3));
  p.Seal();
  auto m = p.ProbeSealed(3, 0, kFarFuture, scratch);
  ASSERT_EQ(m.size(), 5u);
  for (std::size_t i = 1; i < m.size(); ++i) EXPECT_GT(m[i], m[i - 1]);
}

TEST(MiniPartitionTest, ExpireRemovesWholeOldBlocks) {
  std::vector<Time> scratch;  // ProbeSealed output
  MiniPartition p(2, 0);  // tiny blocks
  p.Insert(R(1, 1));
  p.Insert(R(2, 1));
  p.Seal();
  p.Insert(R(10, 1));
  p.Insert(R(11, 1));
  p.Seal();
  p.Insert(R(20, 1));  // head block, stays
  EXPECT_EQ(p.BlockCount(), 3u);

  // The oldest block (ts 1, 2) leaves whole; the others survive in order.
  ASSERT_EQ(p.ExpireBlocks(/*low_ts=*/5), 2u);
  EXPECT_EQ(Timestamps(p), (std::vector<Time>{10, 11, 20}));
  EXPECT_EQ(p.TotalCount(), 3u);
  EXPECT_EQ(p.SealedCount(), 2u);
  // Expired records are no longer probe-visible.
  EXPECT_EQ(p.ProbeSealed(1, 0, kFarFuture, scratch).size(), 2u);
}

TEST(MiniPartitionTest, HeadBlockNeverExpires) {
  MiniPartition p(2, 0);
  p.Insert(R(1, 1));
  p.Insert(R(2, 1));
  p.Seal();
  // Even with a watermark far past everything, the head block stays.
  EXPECT_EQ(p.ExpireBlocks(1'000'000), 0u);
  EXPECT_EQ(Timestamps(p), (std::vector<Time>{1, 2}));
  EXPECT_EQ(p.TotalCount(), 2u);
}

TEST(MiniPartitionTest, BlockExpiresOnlyWhenNewestRecordIsOld) {
  MiniPartition p(2, 0);
  p.Insert(R(1, 1));
  p.Insert(R(100, 1));  // same block: newest ts 100
  p.Seal();
  p.Insert(R(200, 1));
  // low_ts = 50: record at ts=1 is out of window but its block is not.
  EXPECT_EQ(p.ExpireBlocks(50), 0u);
  EXPECT_EQ(Timestamps(p), (std::vector<Time>{1, 100, 200}));
  EXPECT_EQ(p.ExpireBlocks(150), 2u);
  EXPECT_EQ(Timestamps(p), (std::vector<Time>{200}));
}

TEST(MiniPartitionTest, ExpiryKeepsIndexConsistentAcrossManyBlocks) {
  std::vector<Time> scratch;  // ProbeSealed output
  MiniPartition p(4, 0);
  for (Time t = 1; t <= 100; ++t) {
    p.Insert(R(t, static_cast<std::uint64_t>(t % 3)));
    p.Seal();
  }
  (void)p.ExpireBlocks(50);
  // Remaining probe-visible timestamps must all be >= 49 (block granular).
  for (std::uint64_t k = 0; k < 3; ++k) {
    for (Time ts : p.ProbeSealed(k, 0, kFarFuture, scratch)) EXPECT_GE(ts, 45);
  }
  // And probing with a min_ts still works.
  auto m = p.ProbeSealed(0, 90, kFarFuture, scratch);
  for (Time ts : m) EXPECT_GE(ts, 90);
}

TEST(MiniPartitionTest, InstallSealedIsImmediatelyVisible) {
  std::vector<Time> scratch;  // ProbeSealed output
  MiniPartition p(4, 0);
  p.InstallSealed(R(5, 42));
  p.InstallSealed(R(6, 42));
  EXPECT_EQ(p.FreshCount(), 0u);
  EXPECT_EQ(p.SealedCount(), 2u);
  EXPECT_EQ(p.ProbeSealed(42, 0, kFarFuture, scratch).size(), 2u);
}

TEST(MiniPartitionTest, MixedInstallAndInsertKeepTemporalOrder) {
  std::vector<Time> scratch;  // ProbeSealed output
  MiniPartition p(4, 0);
  p.InstallSealed(R(5, 1));
  p.Insert(R(7, 1));
  EXPECT_EQ(p.FreshCount(), 1u);
  EXPECT_EQ(p.SealedCount(), 1u);
  p.Seal();
  auto m = p.ProbeSealed(1, 0, kFarFuture, scratch);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0], 5);
  EXPECT_EQ(m[1], 7);
}

TEST(MiniPartitionTest, ForEachRecordVisitsInTemporalOrder) {
  MiniPartition p(2, 0);
  for (Time t = 1; t <= 7; ++t) {
    p.Insert(R(t, 9));
    p.Seal();
  }
  Time prev = 0;
  std::size_t n = 0;
  p.ForEachRecord([&](const Rec& r) {
    EXPECT_GT(r.ts, prev);
    prev = r.ts;
    ++n;
  });
  EXPECT_EQ(n, 7u);
}

TEST(MiniPartitionTest, IndexCompactionUnderLongExpiryStream) {
  std::vector<Time> scratch;  // ProbeSealed output
  // One key with steady expiry: its chain must end at the oldest live
  // record while the block ring wraps many times.
  MiniPartition p(4, 0);
  for (Time t = 1; t <= 2000; ++t) {
    p.Insert(R(t, 0));
    p.Seal();
    (void)p.ExpireBlocks(t - 100);
  }
  auto m = p.ProbeSealed(0, 0, kFarFuture, scratch);
  EXPECT_GE(m.size(), 90u);
  EXPECT_LE(m.size(), 110u);
}

TEST(MiniPartitionTest, IndexTracksLiveKeysAcrossSealAndExpire) {
  std::vector<Time> scratch;  // ProbeSealed output
  MiniPartition p(4, 0);
  // 64 distinct keys, sealed as each block fills (the join module's
  // HeadFull rule): every sealed key must be indexed.
  for (Time t = 1; t <= 64; ++t) {
    p.Insert(R(t, static_cast<std::uint64_t>(t)));
    p.Seal();
  }
  EXPECT_EQ(p.IndexKeyCount(), 64u);

  // Expire everything expirable (the head block never expires): only keys
  // with surviving records may count as indexed -- a dead key's slot must
  // not.
  (void)p.ExpireBlocks(kFarFuture);
  EXPECT_LE(p.IndexKeyCount(), 4u);
  EXPECT_EQ(p.IndexKeyCount(), p.TotalCount());  // keys are all distinct
  EXPECT_TRUE(p.ProbeSealed(1, 0, kFarFuture, scratch).empty());

  // Partial expiry: key 1's records all predate the horizon, key 2 stays.
  MiniPartition q(4, 0);
  for (Time t = 100; t < 108; ++t) {
    q.Insert(R(t, 1));
    q.Seal();
  }
  for (Time t = 200; t < 208; ++t) {
    q.Insert(R(t, 2));
    q.Seal();
  }
  EXPECT_EQ(q.IndexKeyCount(), 2u);
  (void)q.ExpireBlocks(150);
  EXPECT_EQ(q.IndexKeyCount(), 1u);
  EXPECT_TRUE(q.ProbeSealed(1, 0, kFarFuture, scratch).empty());
  EXPECT_FALSE(q.ProbeSealed(2, 0, kFarFuture, scratch).empty());
}

TEST(MiniPartitionTest, IndexBucketsShrinkAfterBurst) {
  // A bursty run: a wide distinct-key burst grows the key table, then the
  // keys die. The shrink rule must rebuild the table back down instead of
  // carrying thousands of empty slots for the rest of the run.
  MiniPartition p(4, 0);
  for (Time t = 1; t <= 20000; ++t) {
    p.Insert(R(t, static_cast<std::uint64_t>(t)));  // all keys distinct
    p.Seal();
  }
  const std::size_t peak = p.IndexBucketCount();
  ASSERT_GT(peak, 1024u);
  (void)p.ExpireBlocks(kFarFuture);
  EXPECT_LE(p.IndexKeyCount(), 4u);  // head block only
  EXPECT_LT(p.IndexBucketCount(), peak / 4);
}

TEST(MiniPartitionTest, ReappearingKeyStopsAtExpiredLinks) {
  // Key 7's only records (block 0, seqs 0-3) expire, and a newer block
  // takes block 0's entry in the ring of 4 block pointers. Keys 100 and 101
  // fill the other blocks, so the table never rebuilds and key 7's dead
  // slot keeps its stale `top` (seq 3). Key 7 comes back as a new key: it
  // does not inherit that seq, so its chain starts at ts 17, and the walk
  // must still stop at base_seq rather than read seq 3's slot out of the
  // newer block, which holds ts 20.
  MiniPartition p(4, 0);
  std::vector<Time> scratch;
  const auto other = [](Time t) {
    return static_cast<std::uint64_t>(100 + t % 2);
  };
  for (Time t = 1; t <= 4; ++t) p.Insert(R(t, 7));
  p.Seal();
  for (Time t = 5; t <= 12; ++t) {
    p.Insert(R(t, other(t)));
    if (p.HeadFull()) p.Seal();
  }
  ASSERT_EQ(p.ExpireBlocks(5), 4u);  // key 7's block
  ASSERT_EQ(Timestamps(p).size(), 8u);  // ts 5..12 survive
  ASSERT_EQ(Timestamps(p).front(), 5);
  for (Time t = 13; t <= 20; ++t) {
    p.Insert(R(t, t == 17 ? 7 : other(t)));
    if (p.HeadFull()) p.Seal();
  }
  // Blocks 1-4 are live in a ring of 4, so block 4 (ts 17-20) holds the
  // ring entry of expired block 0: seq 3 names block 4's slot 3 (ts 20).
  ASSERT_EQ(p.BlockRingSize(), 4u);
  ASSERT_EQ(p.BlockCount(), 4u);
  ASSERT_EQ(Timestamps(p).back(), 20);
  auto m = p.ProbeSealed(7, 0, kFarFuture, scratch);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0], 17);
  EXPECT_EQ(p.IndexKeyCount(), 3u);  // keys 7, 100 and 101
}

TEST(MiniPartitionTest, NothingAllocatedBeforeFirstSeal) {
  // No storage before the first insert; the first insert allocates a block
  // and the ring, and the key table waits for the first seal.
  MiniPartition p(4, 0);
  std::vector<Time> scratch;
  EXPECT_EQ(p.StorageBytes(), 0u);
  EXPECT_EQ(p.BlockRingSize(), 0u);
  EXPECT_EQ(p.IndexBucketCount(), 0u);
  EXPECT_TRUE(p.ProbeSealed(1, 0, kFarFuture, scratch).empty());
  EXPECT_EQ(p.ExpireBlocks(kFarFuture), 0u);
  p.Insert(R(1, 1));
  EXPECT_GT(p.BlockRingSize(), 0u);
  EXPECT_EQ(p.IndexBucketCount(), 0u);
  EXPECT_TRUE(p.ProbeSealed(1, 0, kFarFuture, scratch).empty());
  p.Seal();
  EXPECT_GT(p.IndexBucketCount(), 0u);
  EXPECT_EQ(p.ProbeSealed(1, 0, kFarFuture, scratch).size(), 1u);
}

TEST(MiniPartitionTest, RingAndTableShrinkAfterBurst) {
  // A burst of 5000 distinct keys, then a few hot-key records: the block
  // ring and the key table grow with the burst and shrink once it expires,
  // and the hot key stays probe-visible throughout.
  MiniPartition p(8, 0);
  std::vector<Time> scratch;
  Time t = 0;
  for (int i = 0; i < 5000; ++i) {
    p.Insert(R(++t, 1'000'000 + static_cast<std::uint64_t>(i)));
    if (p.HeadFull()) p.Seal();
  }
  for (int i = 0; i < 16; ++i) {
    p.Insert(R(++t, 3));
    if (p.HeadFull()) p.Seal();
  }
  p.Seal();
  const std::size_t ring_peak = p.BlockRingSize();
  const std::size_t table_peak = p.IndexBucketCount();
  EXPECT_GE(ring_peak, 627u);  // 5016 records in blocks of 8
  EXPECT_GE(table_peak, 5001u);
  (void)p.ExpireBlocks(5001);  // the burst's blocks only
  EXPECT_EQ(p.SealedCount(), 16u);
  EXPECT_EQ(p.BlockCount(), 2u);
  EXPECT_LT(p.BlockRingSize(), ring_peak / 8);
  EXPECT_LT(p.IndexBucketCount(), table_peak / 8);
  EXPECT_EQ(p.IndexKeyCount(), 1u);
  EXPECT_EQ(p.ProbeSealed(3, 0, kFarFuture, scratch).size(), 16u);
  EXPECT_TRUE(p.ProbeSealed(1'000'000, 0, kFarFuture, scratch).empty());
}

TEST(MiniPartitionTest, BlocksHoldTwentyFourBytesPerRecord) {
  // A steady sliding window of 20 000 records over 5 000 keys in 64-record
  // blocks: a record's link and key are its only storage, so the blocks and
  // the block ring take at most 26 bytes per live record (24 of them the
  // record's), on top of the key table's 8-byte slots.
  constexpr std::size_t kSlotBytes = 8;
  MiniPartition p(64, 0);
  std::size_t checked = 0;
  for (Time t = 1; t <= 100'000; ++t) {
    p.Insert(R(t, static_cast<std::uint64_t>(t * 7919 % 5000)));
    if (p.HeadFull()) p.Seal();
    (void)p.ExpireBlocks(t - 20'000);
    if (t > 40'000 && t % 997 == 0) {
      const std::size_t block_bytes =
          p.StorageBytes() - p.IndexBucketCount() * kSlotBytes;
      EXPECT_LE(block_bytes, 26 * p.TotalCount()) << "t=" << t;
      EXPECT_GE(block_bytes, 24 * p.TotalCount()) << "t=" << t;
      ++checked;
    }
  }
  EXPECT_GT(checked, 50u);
}

TEST(MiniPartitionTest, KeyTableTakesEightBytesASlot) {
  // One record: a 4-record block (24 bytes each), the smallest block ring
  // (4 pointers) and the smallest key table (16 slot words).
  MiniPartition p(4, 0);
  p.Insert(R(1, 1));
  p.Seal();
  ASSERT_EQ(p.BlockRingSize(), 4u);
  ASSERT_EQ(p.IndexBucketCount(), 16u);
  EXPECT_EQ(p.StorageBytes(), 4 * 24 + 4 * sizeof(void*) + 16 * 8);
}

TEST(MiniPartitionTest, TagCollidingKeysKeepTheirOwnChains) {
  // Keys a and b share their home slot and their tag in the 16-slot table,
  // so only the key read from a slot's newest record tells their slots
  // apart: a seal that trusted the tag would link b's records into a's
  // chain, and a probe of b would walk a's chain, which comes first.
  const auto [a, b] = TagCollidingPairs(4, 1).front();
  MiniPartition p(4, 0);
  std::vector<Time> scratch;
  for (Time t = 1; t <= 4; ++t) p.Insert(R(t, t % 2 == 1 ? a : b));
  p.Seal();  // block 0: a, b, a, b
  ASSERT_EQ(p.IndexBucketCount(), 16u);
  EXPECT_EQ(p.IndexKeyCount(), 2u);
  const auto probe = [&](std::uint64_t key) {
    const auto m = p.ProbeSealed(key, 0, kFarFuture, scratch);
    return std::vector<Time>(m.begin(), m.end());
  };
  EXPECT_EQ(probe(a), (std::vector<Time>{1, 3}));
  EXPECT_EQ(probe(b), (std::vector<Time>{2, 4}));
  const std::vector<MiniPartition::SealedProbe> batch = {
      {b, 0, kFarFuture}, {a, 0, kFarFuture}, {b, 3, kFarFuture}};
  MiniPartition::BatchScratch batch_scratch;
  EXPECT_EQ(ProbeBatch(p, batch, batch_scratch),
            (std::vector<std::vector<Time>>{{2, 4}, {1, 3}, {4}}));

  // Key b lives on in block 1 while block 0 expires: a's slot, first on
  // their path, is dead, and a probe of a must not take b's slot, whose
  // tag is a's. A new record of a takes its dead slot back; b's stays.
  p.Insert(R(5, b));
  for (std::uint64_t k = 1006; k <= 1008; ++k) {
    p.Insert(R(static_cast<Time>(k - 1000), k));
  }
  p.Seal();
  ASSERT_EQ(p.ExpireBlocks(5), 4u);
  EXPECT_EQ(p.IndexKeyCount(), 4u);  // b and 1006-1008
  EXPECT_TRUE(probe(a).empty());
  EXPECT_EQ(probe(b), (std::vector<Time>{5}));
  p.Insert(R(9, a));
  p.Seal();
  EXPECT_EQ(p.IndexKeyCount(), 5u);
  EXPECT_EQ(probe(a), (std::vector<Time>{9}));
  EXPECT_EQ(probe(b), (std::vector<Time>{5}));
}

TEST(MiniPartitionTest, DyingDistinctKeysKeepTheTableSize) {
  // Every key appears once and dies a window later, as most b-model keys
  // do: about 2 000 live keys in a table of 4 096 slots. A new key takes
  // the first dead slot on its search, so the table keeps its size, and it
  // rebuilds (at 3/4 of its slots live or dead) only when new keys have
  // used up the empty slots their homes hit: less than once per 1 280 new
  // keys here, where a table that never reused a dead slot would rebuild
  // every ~1 070 (its 3/4 load less the live keys). Dead slots become empty
  // only in a rebuild, so rebuilds do not stop altogether.
  MiniPartition p(64, 0);
  constexpr Time kWarmUp = 40'000;
  constexpr Time kEnd = 200'000;
  std::size_t size_after_warm_up = 0;
  std::size_t rebuilds_after_warm_up = 0;
  for (Time t = 1; t <= kEnd; ++t) {
    p.Insert(R(t, static_cast<std::uint64_t>(t) * 2'654'435'761ULL));
    if (p.HeadFull()) p.Seal();
    (void)p.ExpireBlocks(t - 2'000);
    if (t == kWarmUp) {
      size_after_warm_up = p.IndexBucketCount();
      rebuilds_after_warm_up = p.RebuildCount();
    } else if (t > kWarmUp && t % 1'000 == 0) {
      ASSERT_EQ(p.IndexBucketCount(), size_after_warm_up) << "t=" << t;
    }
  }
  EXPECT_EQ(size_after_warm_up, 4096u);
  const std::size_t rebuilds = p.RebuildCount() - rebuilds_after_warm_up;
  EXPECT_GT(rebuilds, 0u);
  EXPECT_LT(rebuilds * 1'280, static_cast<std::size_t>(kEnd - kWarmUp));
}

TEST(MiniPartitionTest, BatchChainStopsAtBaseSeqWhenItsLinkIsReused) {
  // A ring of 4 block pointers and blocks of 4. Block A (block 0) holds
  // key 7 at seqs 0-2 and key 8 at seq 3; key 7 comes back at seq 4. Block
  // A expires (base_seq 4) and block 4 (seqs 16-19, keys 201-204, one
  // record each) takes its ring entry. Key 7's chain runs seq 4 -> seq 2,
  // and key 8's slot still names seq 3: both walks must end at base_seq
  // instead of reading block 4's slot 2 or 3 (ts 19, 20) through the
  // reused entry -- also for probes that start mid-batch.
  MiniPartition p(4, 0);
  Time t = 0;
  const auto add = [&](std::uint64_t key) {
    p.Insert(R(++t, key));
    if (p.HeadFull()) p.Seal();
  };
  for (int i = 0; i < 3; ++i) add(7);  // ts 1-3
  add(8);                              // ts 4
  add(7);                              // ts 5
  for (std::uint64_t k = 101; k <= 111; ++k) add(k);  // ts 6-16
  ASSERT_EQ(p.ExpireBlocks(5), 4u);                   // block A only
  for (std::uint64_t k = 201; k <= 204; ++k) add(k);  // ts 17-20
  ASSERT_EQ(p.BlockRingSize(), 4u);
  ASSERT_EQ(p.BlockCount(), 4u);  // blocks 1-4: block 4 holds A's entry
  ASSERT_EQ(p.SealedCount(), 16u);

  const std::vector<std::pair<MiniPartition::SealedProbe, std::vector<Time>>>
      cases = {{{7, 0, kFarFuture}, {5}},     {{8, 0, kFarFuture}, {}},
               {{7, 5, 5}, {5}},              {{203, 0, kFarFuture}, {19}},
               {{111, 0, kFarFuture}, {16}},  {{204, 0, kFarFuture}, {20}},
               {{999, 0, kFarFuture}, {}}};
  // Longer than the in-flight count, so most probes start as refills.
  const std::size_t n = MiniPartition::kChainsInFlight * 2 + 3;
  std::vector<MiniPartition::SealedProbe> batch;
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(cases[i % cases.size()].first);
  }
  MiniPartition::BatchScratch batch_scratch;
  const auto out = ProbeBatch(p, batch, batch_scratch);
  ASSERT_EQ(out.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], cases[i % cases.size()].second)
        << "probe " << i << " key " << batch[i].key;
  }
}

TEST(MiniPartitionTest, LongChainParksAndFinishesInOrder) {
  // Key 5's chain is longer than a probe's interleaved share of matches, so
  // its probes park and walk the rest alone when they emit; the short
  // chains around them finish in the interleaved walk. Windows cut the
  // long chain before, at and after the park point, on record timestamps.
  constexpr std::size_t kShare = MiniPartition::kInterleavedMatches;
  MiniPartition p(3, 0);
  std::vector<Time> long_ts;
  Time t = 0;
  for (std::size_t i = 0; i < 3 * kShare + 2; ++i) {
    p.Insert(R(++t, 5));
    long_ts.push_back(t);
    if (p.HeadFull()) p.Seal();
    if (i % 4 == 0) {
      p.Insert(R(++t, 900 + i));  // a one-record chain
      if (p.HeadFull()) p.Seal();
    }
  }
  p.Seal();
  const Time newest = long_ts.back();
  const Time park = long_ts[long_ts.size() - kShare];  // newest share's oldest
  std::vector<MiniPartition::SealedProbe> batch = {
      {5, 0, kFarFuture},
      {5, park, kFarFuture},
      {5, park + 1, kFarFuture},
      {5, park - 1, newest - 1},
      {900, 0, kFarFuture},
      {5, long_ts[3], long_ts[3 * kShare]},
      {904, 0, kFarFuture},
      {5, newest + 1, kFarFuture},
      {77, 0, kFarFuture},
  };
  // Repeat past the in-flight count so parked probes start as refills too.
  while (batch.size() <= MiniPartition::kChainsInFlight + 2) {
    batch.push_back(batch[batch.size() % 9]);
  }
  std::vector<Time> scratch;
  MiniPartition::BatchScratch batch_scratch;
  const auto out = ProbeBatch(p, batch, batch_scratch);
  ASSERT_EQ(out.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& q = batch[i];
    std::vector<Time> want;
    p.ForEachRecord([&](const Rec& r) {
      if (r.key == q.key && r.ts >= q.min_ts && r.ts <= q.max_ts) {
        want.push_back(r.ts);
      }
    });
    EXPECT_EQ(out[i], want) << "probe " << i << " key " << q.key << " ["
                            << q.min_ts << ", " << q.max_ts << "]";
    const auto one = p.ProbeSealed(q.key, q.min_ts, q.max_ts, scratch);
    EXPECT_EQ(std::vector<Time>(one.begin(), one.end()), want)
        << "single probe " << i;
  }
  EXPECT_EQ(out[0].size(), long_ts.size());
}

// ---------------------------------------------------------------------------
// Differential fuzz: random Insert / Seal / ExpireBlocks / InstallSealed
// sequences over hot and cold keys with repeated timestamps, checked after
// every step against a brute-force model of the window.
// ---------------------------------------------------------------------------

struct ModelRec {
  Rec rec;
  bool sealed = false;
};

/// A probe and the brute-force model's answer to it.
struct ModelProbe {
  MiniPartition::SealedProbe probe;
  std::vector<Time> want;
};

/// `ever_keys` lists every key inserted so far (with repeats): the check
/// also probes a few of them, most of whose records have expired (dead
/// keys, whose table slots outlive their records until a rebuild).
void CheckAgainstModel(const MiniPartition& p,
                       const std::deque<ModelRec>& model,
                       const std::vector<std::uint64_t>& ever_keys,
                       Pcg32& rng, std::vector<Time>& scratch,
                       MiniPartition::BatchScratch& batch_scratch) {
  // Every key's sealed timestamps in arrival order, plus keys to probe
  // that have no sealed record at all.
  std::map<std::uint64_t, std::vector<Time>> sealed_by_key = {
      {0, {}}, {1, {}}, {2, {}}, {3, {}}, {999'999'999, {}}};
  std::size_t sealed = 0;
  std::size_t live_keys = 0;
  for (const ModelRec& m : model) {
    std::vector<Time>& ts = sealed_by_key[m.rec.key];
    if (m.sealed) {
      if (ts.empty()) ++live_keys;
      ts.push_back(m.rec.ts);
      ++sealed;
    }
  }
  for (int i = 0; i < 8 && !ever_keys.empty(); ++i) {
    sealed_by_key.try_emplace(ever_keys[rng.NextBounded(
        static_cast<std::uint32_t>(ever_keys.size()))]);
  }
  ASSERT_EQ(p.TotalCount(), model.size());
  ASSERT_EQ(p.SealedCount(), sealed);
  ASSERT_EQ(p.FreshCount(), model.size() - sealed);
  ASSERT_EQ(p.IndexKeyCount(), live_keys);
  const Time lo = model.empty() ? 0 : model.front().rec.ts;
  const Time hi = model.empty() ? 0 : model.back().rec.ts;
  const auto span = static_cast<std::uint32_t>(hi - lo + 2);
  std::vector<ModelProbe> probes;
  for (const auto& [key, all] : sealed_by_key) {
    // The whole window, a random sub-window (possibly empty), and one
    // whose edges are timestamps of the key's records (else of any).
    const Time a = lo + static_cast<Time>(rng.NextBounded(span));
    const Time b = a + static_cast<Time>(rng.NextBounded(span));
    const std::vector<Time> edges = all.empty() ? std::vector<Time>{lo, hi}
                                                : all;
    const auto pick_edge = [&] {
      return edges[rng.NextBounded(static_cast<std::uint32_t>(edges.size()))];
    };
    const Time e0 = pick_edge();
    const Time e1 = pick_edge();
    for (auto [min_ts, max_ts] :
         {std::pair<Time, Time>{0, kFarFuture}, std::pair<Time, Time>{a, b},
          std::pair<Time, Time>{std::min(e0, e1), std::max(e0, e1)}}) {
      ModelProbe mp{{key, min_ts, max_ts}, {}};
      for (Time ts : all) {
        if (ts >= min_ts && ts <= max_ts) mp.want.push_back(ts);
      }
      const auto got = p.ProbeSealed(key, min_ts, max_ts, scratch);
      ASSERT_EQ(std::vector<Time>(got.begin(), got.end()), mp.want)
          << "key=" << key << " window=[" << min_ts << ", " << max_ts << "]";
      probes.push_back(std::move(mp));
    }
  }

  // The same probes through the batched walk, in random order, at batch
  // sizes 0, 1, around the in-flight count and all of them; a batch longer
  // than the list repeats probes. The batch scratch carries over from every
  // earlier check, so no probe may read a stale walk's state.
  for (std::size_t i = probes.size() - 1; i > 0; --i) {
    std::swap(probes[i], probes[rng.NextBounded(
                             static_cast<std::uint32_t>(i + 1))]);
  }
  constexpr std::size_t kInFlight = MiniPartition::kChainsInFlight;
  std::vector<MiniPartition::SealedProbe> batch;
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, kInFlight - 1,
                        kInFlight, kInFlight + 1, probes.size()}) {
    const std::size_t first =
        rng.NextBounded(static_cast<std::uint32_t>(probes.size()));
    batch.clear();
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(probes[(first + i) % probes.size()].probe);
    }
    const auto out = ProbeBatch(p, batch, batch_scratch);
    ASSERT_EQ(out.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const ModelProbe& mp = probes[(first + i) % probes.size()];
      ASSERT_EQ(out[i], mp.want)
          << "batch of " << n << ", probe " << i << ": key=" << mp.probe.key
          << " window=[" << mp.probe.min_ts << ", " << mp.probe.max_ts << "]";
    }
  }
}

TEST(MiniPartitionFuzzTest, IndexMatchesBruteForceScan) {
  const int iters = FuzzIters(20);
  // Pairs that share their tag and their home slot in tables of up to
  // 1 024 slots, which the bursts below outgrow.
  const auto colliding = TagCollidingPairs(10, 6);
  for (int it = 1; it <= iters; ++it) {
    SCOPED_TRACE("seed=" + std::to_string(it));
    Pcg32 rng(static_cast<std::uint64_t>(it), 29);
    const std::size_t caps[] = {1, 2, 3, 4, 8};
    const std::size_t cap = caps[rng.NextBounded(5)];
    MiniPartition p(cap, 0);
    std::deque<ModelRec> model;
    std::vector<std::uint64_t> ever_keys;
    std::vector<Time> scratch;
    MiniPartition::BatchScratch batch_scratch;
    Time ts = 0;
    std::uint64_t next_cold = 1000;
    // Hot keys 0-3 repeat constantly; cold keys come from a wide range
    // and mostly appear once or twice; and keys of tag-colliding pairs.
    auto pick_key = [&]() -> std::uint64_t {
      const std::uint32_t r = rng.NextBounded(10);
      if (r < 5) return rng.NextBounded(4);
      if (r < 7) {
        const auto& pair = colliding[rng.NextBounded(
            static_cast<std::uint32_t>(colliding.size()))];
        return rng.NextBounded(2) == 0 ? pair.first : pair.second;
      }
      return 1000 + rng.NextBounded(400);
    };
    auto advance = [&] {
      // Half the records share the previous timestamp.
      if (rng.NextBounded(2) == 0) ts += 1 + rng.NextBounded(3);
    };
    auto insert = [&](std::uint64_t key) {
      if (p.HeadFull()) {
        p.Seal();
        for (ModelRec& m : model) m.sealed = true;
      }
      advance();
      p.Insert(R(ts, key));
      model.push_back(ModelRec{R(ts, key), false});
      ever_keys.push_back(key);
    };
    auto seal = [&] {
      p.Seal();
      for (ModelRec& m : model) m.sealed = true;
    };
    auto expire = [&](Time low_ts) {
      // Model: whole blocks of `cap` records from the front, never the
      // head block (the last ceil(n / cap)-th block).
      std::size_t expect = 0;
      while (model.size() - expect > cap &&
             model[expect + cap - 1].rec.ts < low_ts) {
        expect += cap;
      }
      ASSERT_EQ(p.ExpireBlocks(low_ts), expect);
      for (std::size_t n = 0; n < expect; ++n) ASSERT_TRUE(model[n].sealed);
      model.erase(model.begin(),
                  model.begin() + static_cast<std::ptrdiff_t>(expect));
      // The survivors are exactly the model's remaining records, in order.
      std::size_t n = 0;
      p.ForEachRecord([&](const Rec& r) {
        ASSERT_LT(n, model.size());
        ASSERT_EQ(r, model[n].rec);
        ++n;
      });
      ASSERT_EQ(n, model.size());
    };

    for (int step = 0; step < 400; ++step) {
      const std::uint32_t op = rng.NextBounded(100);
      if (op < 45) {
        insert(pick_key());
      } else if (op < 60) {
        seal();
      } else if (op < 75) {
        // InstallSealed needs a partition without fresh records.
        seal();
        advance();
        const std::uint64_t key = pick_key();
        p.InstallSealed(R(ts, key));
        model.push_back(ModelRec{R(ts, key), true});
        ever_keys.push_back(key);
      } else if (op < 93) {
        // A window lagging the newest record by 0-40 time units.
        expire(ts - static_cast<Time>(rng.NextBounded(40)));
      } else if (op < 97) {
        // Burst of fresh distinct keys: grows the ring and the table.
        const std::uint32_t n = 50 + rng.NextBounded(300);
        for (std::uint32_t i = 0; i < n; ++i) insert(next_cold++);
        seal();
      } else {
        // Expire everything but the head block: shrinks both arrays, and
        // every key that comes back restarts its chain.
        expire(kFarFuture);
      }
      CheckAgainstModel(p, model, ever_keys, rng, scratch, batch_scratch);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace sjoin
