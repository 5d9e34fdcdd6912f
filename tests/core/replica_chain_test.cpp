#include "core/replica_chain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "testutil/fuzz_env.h"

namespace sjoin {
namespace {

/// The model: a buddy chain as the runner kept it before pruning -- dedup on
/// the covered epoch, nothing ever dropped -- rebuilt by the runner's
/// original failover code.
class UnprunedChain {
 public:
  void Apply(const ReplicaSegment& seg) {
    if (chain_.empty() || seg.to > chain_.back().to) chain_.push_back(seg);
  }

  std::vector<Rec> Rebuild(std::uint64_t replay_from) const {
    std::vector<ReplicaSegment> chain = chain_;
    while (!chain.empty() && chain.back().to >= replay_from) {
      chain.pop_back();
    }
    std::size_t base = chain.size();
    for (std::size_t i = chain.size(); i-- > 0;) {
      if (chain[i].full) {
        base = i;
        break;
      }
    }
    std::vector<Rec> recs;
    if (base < chain.size()) {
      const Time expire = chain.back().expire_before;
      std::uint64_t prev_to = 0;
      for (std::size_t i = base; i < chain.size(); ++i) {
        if (i > base && chain[i].from != prev_to) break;  // torn chain
        prev_to = chain[i].to;
        for (const Rec& rec : chain[i].recs) {
          if (rec.ts >= expire) recs.push_back(rec);
        }
      }
    }
    return recs;
  }

  std::size_t Records() const {
    std::size_t n = 0;
    for (const ReplicaSegment& seg : chain_) n += seg.recs.size();
    return n;
  }

 private:
  std::vector<ReplicaSegment> chain_;
};

std::vector<Rec> Sorted(std::vector<Rec> recs) {
  std::sort(recs.begin(), recs.end(), [](const Rec& a, const Rec& b) {
    return std::tie(a.ts, a.key, a.stream) < std::tie(b.ts, b.key, b.stream);
  });
  return recs;
}

constexpr Time kEpochUs = 10;

/// `count` records with timestamps uniform in [lo, hi].
std::vector<Rec> RandomRecs(Pcg32& rng, std::uint32_t count, Time lo, Time hi) {
  std::vector<Rec> recs;
  for (std::uint32_t i = 0; i < count; ++i) {
    Rec rec;
    rec.ts = lo + static_cast<Time>(
                      rng.NextBounded(static_cast<std::uint32_t>(hi - lo + 1)));
    rec.key = rng.NextBounded(16);
    rec.stream = static_cast<StreamId>(rng.NextBounded(2));
    recs.push_back(rec);
  }
  return recs;
}

/// One owner's segments in command order: a full snapshot first, then
/// deltas continuing each other, with an occasional fresh full snapshot (an
/// owner change). Each covers 1-3 epochs; expiry watermarks rise; records
/// fall on both sides of them.
std::vector<ReplicaSegment> OwnerSegments(Pcg32& rng, Time window) {
  const std::uint32_t n = 8 + rng.NextBounded(28);
  std::vector<ReplicaSegment> segs;
  std::uint64_t epoch = 0;
  Time expire = -window;
  for (std::uint32_t i = 0; i < n; ++i) {
    ReplicaSegment seg;
    seg.full = i == 0 || rng.NextBounded(10) == 0;
    seg.from = seg.full ? 0 : segs.back().to;
    epoch += 1 + rng.NextBounded(3);
    seg.to = epoch;
    const Time now = static_cast<Time>(epoch) * kEpochUs;
    expire = std::max(expire, now - window -
                                  static_cast<Time>(rng.NextBounded(8)));
    seg.expire_before = expire;
    const Time lo = seg.full ? now - window - 20
                             : static_cast<Time>(seg.from) * kEpochUs - 15;
    seg.recs = RandomRecs(rng, rng.NextBounded(seg.full ? 12 : 6), lo, now);
    segs.push_back(std::move(seg));
  }
  return segs;
}

// The pruning rule is exact: for every replay_from above the largest
// committed epoch the chain has seen, the pruned chain rebuilds the same
// record multiset as the unpruned model. Each chain loses one segment in
// transit (a tear), receives duplicates and stale re-deliveries, and each
// segment carries a committed epoch at or below the acks the buddy had sent
// before it (lagging by up to three segments, or 0 as for a handover).
TEST(ReplicaChainTest, PrunedRebuildMatchesUnprunedModel) {
  const int trials = FuzzIters(300);
  int pruned_trials = 0;
  for (int t = 0; t < trials; ++t) {
    Pcg32 rng(static_cast<std::uint64_t>(t) + 1, 77);
    const Time window = kEpochUs * (2 + static_cast<Time>(rng.NextBounded(6)));
    const std::vector<ReplicaSegment> segs = OwnerSegments(rng, window);
    const std::size_t lost =
        1 + rng.NextBounded(static_cast<std::uint32_t>(segs.size() - 1));

    std::vector<const ReplicaSegment*> deliveries;
    for (std::size_t i = 0; i < segs.size(); ++i) {
      if (i == lost) continue;
      deliveries.push_back(&segs[i]);
      if (rng.NextBounded(6) == 0) deliveries.push_back(&segs[i]);
      if (i > 0 && rng.NextBounded(6) == 0) {
        deliveries.push_back(&segs[rng.NextBounded(
            static_cast<std::uint32_t>(i))]);
      }
    }

    ReplicaChain chain;
    UnprunedChain model;
    std::vector<std::uint64_t> frontier;  // acked `to` after each delivery
    std::uint64_t max_committed = 0;
    for (std::size_t p = 0; p < deliveries.size(); ++p) {
      const std::size_t lag = 1 + rng.NextBounded(4);
      std::uint64_t committed =
          p >= lag ? frontier[p - lag] : 0;
      if (rng.NextBounded(10) == 0) committed = 0;
      max_committed = std::max(max_committed, committed);

      const ReplicaSegment& seg = *deliveries[p];
      chain.Apply(seg, committed);
      model.Apply(seg);
      frontier.push_back(
          std::max(p > 0 ? frontier[p - 1] : 0, seg.to));
      ASSERT_LE(chain.Records(), model.Records());

      for (std::uint64_t replay_from = max_committed + 1;
           replay_from <= frontier.back() + 1; ++replay_from) {
        ReplicaChain copy = chain;
        ASSERT_EQ(Sorted(copy.Rebuild(replay_from)),
                  Sorted(model.Rebuild(replay_from)))
            << "trial " << t << " delivery " << p << " replay_from "
            << replay_from << " committed " << max_committed;
      }
    }
    if (chain.Pruned() > 0) ++pruned_trials;
  }
  // Not vacuous: most chains are long enough to prune.
  EXPECT_GT(pruned_trials, trials / 2);
}

// Duplicated and stale segments are not applied; the chain keeps what it
// has.
TEST(ReplicaChainTest, DedupsOnCoveredEpoch) {
  ReplicaChain chain;
  EXPECT_TRUE(chain.Apply(ReplicaSegment{0, 4, true, 0, {Rec{3, 1, 0}}}, 0));
  EXPECT_TRUE(chain.Apply(ReplicaSegment{4, 6, false, 0, {Rec{5, 1, 1}}}, 0));
  EXPECT_FALSE(chain.Apply(ReplicaSegment{4, 6, false, 0, {Rec{5, 1, 1}}}, 0));
  EXPECT_FALSE(chain.Apply(ReplicaSegment{0, 4, true, 0, {Rec{3, 1, 0}}}, 0));
  EXPECT_EQ(chain.Segments(), 2u);
  EXPECT_EQ(chain.Records(), 2u);
  EXPECT_EQ(chain.Rebuild(7).size(), 2u);
  EXPECT_EQ(chain.Records(), 0u);
}

// A steady sliding window: every sweep ships a two-epoch delta and the
// committed epoch trails by one sweep. The chain stays one window plus two
// sweeps long however long the run, and rebuilds what the model does.
TEST(ReplicaChainTest, SteadyChainStaysWindowSized) {
  constexpr Time kWindow = 6 * kEpochUs;
  constexpr std::uint64_t kSweep = 2;
  ReplicaChain chain;
  UnprunedChain model;
  std::uint64_t committed = 0;
  for (std::uint64_t to = kSweep; to <= 400; to += kSweep) {
    ReplicaSegment seg;
    seg.full = to == kSweep;
    seg.from = seg.full ? 0 : to - kSweep;
    seg.to = to;
    const Time now = static_cast<Time>(to) * kEpochUs;
    seg.expire_before = now - kWindow;
    for (Time ts = now - static_cast<Time>(kSweep) * kEpochUs + 1; ts <= now;
         ++ts) {
      seg.recs.push_back(Rec{ts, static_cast<std::uint64_t>(ts % 7), 0});
    }
    model.Apply(seg);
    chain.Apply(std::move(seg), committed);
    committed = to;
  }
  // Window (3 sweeps) + the committed sweep + the unacked one.
  EXPECT_LE(chain.Segments(), 5u);
  EXPECT_LE(chain.Records(), 5u * kSweep * kEpochUs);
  EXPECT_GT(chain.Pruned(), 190u);
  ReplicaChain copy = chain;
  EXPECT_EQ(Sorted(copy.Rebuild(400)), Sorted(model.Rebuild(400)));
  EXPECT_EQ(Sorted(chain.Rebuild(401)), Sorted(model.Rebuild(401)));
}

// Pruning never crosses a torn link: a rebuild stops at the tear, so the
// deltas behind it must not become reachable from a relabelled base.
TEST(ReplicaChainTest, TearBoundsThePrunedRun) {
  ReplicaChain chain;
  UnprunedChain model;
  const std::vector<ReplicaSegment> segs = {
      {0, 2, true, -40, {Rec{15, 1, 0}}},
      {2, 4, false, -20, {Rec{18, 2, 0}}},
      // (4, 6] was lost in transit.
      {6, 8, false, 20, {Rec{75, 3, 1}}},
      {8, 10, false, 40, {Rec{95, 4, 1}}},
  };
  for (const ReplicaSegment& seg : segs) {
    model.Apply(seg);
    chain.Apply(seg, /*committed_epoch=*/seg.to >= 8 ? 8 : 0);
  }
  // Neither (0, 2] nor (2, 4] holds a record at or above the watermark 20.
  // (0, 2] links to (2, 4]: it goes. (2, 4] links to nothing: it stays, as
  // the new base, and the rebuilds still stop at the tear.
  EXPECT_EQ(chain.Pruned(), 1u);
  EXPECT_EQ(chain.Segments(), 3u);
  for (std::uint64_t replay_from = 9; replay_from <= 11; ++replay_from) {
    ReplicaChain copy = chain;
    EXPECT_EQ(Sorted(copy.Rebuild(replay_from)),
              Sorted(model.Rebuild(replay_from)))
        << replay_from;
  }
}

// Without a full snapshot at or below the committed epoch nothing is
// dropped: a rebuild may still need every segment.
TEST(ReplicaChainTest, NothingPrunedBelowAnUncommittedBase) {
  ReplicaChain chain;
  chain.Apply(ReplicaSegment{0, 2, true, -40, {Rec{15, 1, 0}}}, 0);
  chain.Apply(ReplicaSegment{2, 4, false, 100, {Rec{35, 2, 0}}}, 1);
  chain.Apply(ReplicaSegment{4, 6, false, 200, {Rec{55, 3, 0}}}, 1);
  EXPECT_EQ(chain.Pruned(), 0u);
  EXPECT_EQ(chain.Segments(), 3u);
  EXPECT_EQ(chain.Records(), 3u);
}

}  // namespace
}  // namespace sjoin
