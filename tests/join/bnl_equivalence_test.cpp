// The load-bearing correctness argument of the execution-driven simulation:
//
//   1. BnlPartitionJoin -- a literal, index-free implementation of the
//      paper's block-nested-loop algorithm -- produces exactly the
//      declarative sliding-window join answer (ReferenceSlidingJoin);
//   2. JoinModule -- the production pipeline with the per-key probe index
//      and the analytic comparison charge -- produces the same outputs AND
//      reports exactly the comparison count the real BNL scan performs.
//
// Together these show that accelerating match discovery does not change
// results, and that the virtual-clock CPU charge equals the work the
// paper's algorithm would really do.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "join/join_module.h"
#include "join/reference_join.h"

namespace sjoin {
namespace {

struct Workload {
  std::uint64_t seed;
  std::size_t tuples;
  std::uint64_t keys;        // distinct key count (small => many matches)
  Duration window;
  std::size_t block_capacity;
};

std::vector<Rec> MakeWorkload(const Workload& w) {
  Pcg32 rng(w.seed, 8);
  std::vector<Rec> recs;
  Time ts = 0;
  for (std::size_t i = 0; i < w.tuples; ++i) {
    ts += 1 + rng.NextBounded(2000);
    recs.push_back(Rec{ts,
                       rng.NextBounded(static_cast<std::uint32_t>(w.keys)),
                       static_cast<StreamId>(rng.NextBounded(2))});
  }
  return recs;
}

class EquivalenceTest : public ::testing::TestWithParam<Workload> {};

TEST_P(EquivalenceTest, BnlMatchesDeclarativeReference) {
  const Workload w = GetParam();
  auto recs = MakeWorkload(w);
  auto expect = ReferenceSlidingJoin(recs, w.window);
  auto bnl = BnlPartitionJoin(recs, w.window, w.block_capacity);
  EXPECT_EQ(bnl.pairs, expect);
}

TEST_P(EquivalenceTest, JoinModuleMatchesBnlOutputsAndComparisons) {
  const Workload w = GetParam();
  auto recs = MakeWorkload(w);

  // Configure the module as ONE mini-partition-group (single partition,
  // tuning off) so its batching exactly mirrors BnlPartitionJoin.
  SystemConfig cfg;
  cfg.workload.tuple_bytes = 64;
  cfg.join.num_partitions = 1;
  cfg.join.fine_tuning = false;
  cfg.join.block_bytes = w.block_capacity * cfg.workload.tuple_bytes;
  cfg.join.window = w.window;

  CollectSink sink;
  JoinModule jm(cfg, &sink);
  jm.EnqueueBatch(recs);
  jm.ProcessFor(0, 1'000'000 * kUsPerSec);
  ASSERT_EQ(jm.BufferedTuples(), 0u);

  std::vector<JoinPair> got;
  for (const JoinOutput& o : sink.Outputs()) {
    got.push_back(JoinPair{o.left.ts, o.right.ts, o.left.key});
  }
  std::sort(got.begin(), got.end());

  auto bnl = BnlPartitionJoin(recs, w.window, w.block_capacity);
  EXPECT_EQ(got, bnl.pairs);
  EXPECT_EQ(jm.Comparisons(), bnl.comparisons)
      << "analytic comparison charge must equal the real BNL scan count";
}

TEST_P(EquivalenceTest, PartitionedAndTunedModuleStillMatchesReference) {
  const Workload w = GetParam();
  auto recs = MakeWorkload(w);
  auto expect = ReferenceSlidingJoin(recs, w.window);

  SystemConfig cfg;
  cfg.workload.tuple_bytes = 64;
  cfg.join.num_partitions = 6;
  cfg.join.fine_tuning = true;
  cfg.join.theta_bytes = 16 * cfg.workload.tuple_bytes;  // aggressive tuning
  cfg.join.block_bytes = w.block_capacity * cfg.workload.tuple_bytes;
  cfg.join.window = w.window;

  CollectSink sink;
  JoinModule jm(cfg, &sink);
  jm.EnqueueBatch(recs);
  jm.ProcessFor(0, 1'000'000 * kUsPerSec);

  std::vector<JoinPair> got;
  for (const JoinOutput& o : sink.Outputs()) {
    got.push_back(JoinPair{o.left.ts, o.right.ts, o.left.key});
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect)
      << "partitioning + extendible-hash tuning must not change the answer";
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, EquivalenceTest,
    ::testing::Values(
        // seed, tuples, keys, window, block capacity
        Workload{1, 200, 5, 50 * kUsPerMs, 4},
        Workload{2, 500, 3, 200 * kUsPerMs, 8},
        Workload{3, 500, 50, 500 * kUsPerMs, 4},
        Workload{4, 1000, 10, 100 * kUsPerMs, 16},
        Workload{5, 1000, 1, 50 * kUsPerMs, 4},     // single hot key
        Workload{6, 300, 7, 1 * kUsPerMs, 4},       // tiny window, heavy expiry
        Workload{7, 800, 20, 2000 * kUsPerMs, 2},   // tiny blocks
        Workload{8, 64, 2, 100 * kUsPerMs, 64},     // single-block windows
        Workload{9, 1500, 100, 300 * kUsPerMs, 8}));

// Directly exercises the expiring-block vs. fresh-head completeness join
// (paper section IV-D): a match that is ONLY discoverable at expiry time.
TEST(ExpiryJoinTest, ExpiringBlockJoinsOppositeFreshTuples) {
  const Duration window = 100;
  // Stream 0: two tuples fill a 2-capacity block A, which seals. Stream 1:
  // one tuple within the window of block A stays fresh in its head. Then
  // stream 0's next block fills, and its flush expires block A -- but only
  // after both streams probed and sealed: the stream-1 tuple's ordinary
  // probe of stream 0's sealed records yields both pairs first, so the
  // paper's expiring-block join finds no fresh tuple left to join.
  std::vector<Rec> recs = {
      {10, 7, 0}, {20, 7, 0},   // block A fills and seals
      {90, 7, 1},               // fresh in stream 1's head (capacity 2)
      {500, 3, 0}, {510, 3, 0}, // this flush probes, seals, expires block A
  };
  auto expect = ReferenceSlidingJoin(recs, window);
  // (10,90) and (20,90) are within the window: the reference has them.
  ASSERT_EQ(expect.size(), 2u);

  auto bnl = BnlPartitionJoin(recs, window, /*block_capacity=*/2);
  EXPECT_EQ(bnl.pairs, expect);

  SystemConfig cfg;
  cfg.workload.tuple_bytes = 64;
  cfg.join.num_partitions = 1;
  cfg.join.fine_tuning = false;
  cfg.join.block_bytes = 2 * cfg.workload.tuple_bytes;
  cfg.join.window = window;
  CollectSink sink;
  JoinModule jm(cfg, &sink);
  // Feed one tuple at a time WITHOUT draining between them is impossible
  // through the public API (a drained buffer flushes partial heads), so
  // enqueue everything at once: the stream-1 tuple stays fresh until stream
  // 0's second block fills, and that flush also expires block A.
  jm.EnqueueBatch(recs);
  jm.ProcessFor(0, 1000 * kUsPerSec);
  std::vector<JoinPair> got;
  for (const JoinOutput& o : sink.Outputs()) {
    got.push_back(JoinPair{o.left.ts, o.right.ts, o.left.key});
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);
}

}  // namespace
}  // namespace sjoin
