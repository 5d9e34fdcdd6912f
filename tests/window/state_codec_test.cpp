#include "window/state_codec.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"

namespace sjoin {
namespace {

constexpr sjoin::Time kFarFuture = 9'000'000'000'000;

JoinConfig SmallCfg(bool tuning = true) {
  JoinConfig cfg;
  cfg.block_bytes = 128;
  cfg.theta_bytes = 256;
  cfg.fine_tuning = tuning;
  return cfg;
}
constexpr std::size_t kTupleBytes = 32;

std::unique_ptr<PartitionGroup> MakeTunedGroup(std::size_t n,
                                               std::uint64_t seed,
                                               std::vector<Rec>* recs_out) {
  auto g = std::make_unique<PartitionGroup>(SmallCfg(), kTupleBytes);
  Pcg32 rng(seed, 2);
  for (std::size_t i = 0; i < n; ++i) {
    Rec r{static_cast<Time>(i + 1), rng.NextU64(),
          static_cast<StreamId>(i % 2)};
    g->InstallSealed(r);
    if (recs_out != nullptr) recs_out->push_back(r);
    if (i % 16 == 15) g->MaybeTune(r.key);
  }
  return g;
}

TEST(StateCodecTest, RoundTripPreservesCountsAndShape) {
  std::vector<Rec> recs;
  auto g = MakeTunedGroup(80, 11, &recs);
  Writer w;
  EncodeGroupState(w, *g);
  Reader r(w.Bytes());
  auto back = DecodeGroupState(r, SmallCfg(), kTupleBytes);
  EXPECT_TRUE(r.AtEnd());

  EXPECT_EQ(back->TotalCount(), g->TotalCount());
  EXPECT_EQ(back->MiniGroupCount(), g->MiniGroupCount());
  EXPECT_EQ(back->Directory().GlobalDepth(), g->Directory().GlobalDepth());
}

TEST(StateCodecTest, RoundTripPreservesEveryRecordAndProbeVisibility) {
  std::vector<Rec> recs;
  auto g = MakeTunedGroup(100, 13, &recs);
  Writer w;
  EncodeGroupState(w, *g);
  Reader r(w.Bytes());
  auto back = DecodeGroupState(r, SmallCfg(), kTupleBytes);

  std::vector<Time> orig_scratch;
  std::vector<Time> rebuilt_scratch;
  for (const Rec& rec : recs) {
    auto orig = g->GroupFor(rec.key).Part(rec.stream).ProbeSealed(
        rec.key, 0, kFarFuture, orig_scratch);
    auto rebuilt = back->GroupFor(rec.key).Part(rec.stream).ProbeSealed(
        rec.key, 0, kFarFuture, rebuilt_scratch);
    EXPECT_EQ(std::vector<Time>(orig.begin(), orig.end()),
              std::vector<Time>(rebuilt.begin(), rebuilt.end()));
  }
}

TEST(StateCodecTest, EmptyGroupRoundTrips) {
  PartitionGroup g(SmallCfg(), kTupleBytes);
  Writer w;
  EncodeGroupState(w, g);
  Reader r(w.Bytes());
  auto back = DecodeGroupState(r, SmallCfg(), kTupleBytes);
  EXPECT_EQ(back->TotalCount(), 0u);
  EXPECT_EQ(back->MiniGroupCount(), 1u);
}

TEST(StateCodecTest, UntunedGroupRoundTrips) {
  PartitionGroup g(SmallCfg(/*tuning=*/false), kTupleBytes);
  for (Time t = 1; t <= 30; ++t) {
    g.InstallSealed(Rec{t, static_cast<std::uint64_t>(t * 7),
                        static_cast<StreamId>(t % 2)});
  }
  Writer w;
  EncodeGroupState(w, g);
  Reader r(w.Bytes());
  auto back = DecodeGroupState(r, SmallCfg(/*tuning=*/false), kTupleBytes);
  EXPECT_EQ(back->TotalCount(), 30u);
}

TEST(StateCodecTest, EncodedSizeScalesWithTuples) {
  std::vector<Rec> recs;
  auto small = MakeTunedGroup(16, 17, &recs);
  auto large = MakeTunedGroup(160, 17, nullptr);
  Writer ws;
  Writer wl;
  EncodeGroupState(ws, *small);
  EncodeGroupState(wl, *large);
  // State movement cost is dominated by the records (>= wire tuple bytes
  // per record).
  EXPECT_GE(wl.Size() - ws.Size(), (160 - 16) * kTupleBytes);
}

TEST(StateCodecTest, TruncatedStateThrows) {
  std::vector<Rec> recs;
  auto g = MakeTunedGroup(40, 19, &recs);
  Writer w;
  EncodeGroupState(w, *g);
  auto bytes = w.Bytes();
  Reader r(bytes.subspan(0, bytes.size() / 2));
  EXPECT_THROW(DecodeGroupState(r, SmallCfg(), kTupleBytes), DecodeError);
}

}  // namespace
}  // namespace sjoin
