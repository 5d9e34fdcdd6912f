#include "common/rng.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace sjoin {
namespace {

TEST(Mix64Test, IsAPermutationOnSamples) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) seen.insert(Mix64(i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(Pcg32Test, Deterministic) {
  Pcg32 a(42, 3);
  Pcg32 b(42, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU32(), b.NextU32());
}

TEST(Pcg32Test, StreamsAreIndependent) {
  Pcg32 a(42, 1);
  Pcg32 b(42, 2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU32() == b.NextU32()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Pcg32Test, DoubleInUnitInterval) {
  Pcg32 rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Pcg32Test, DoubleMeanNearHalf) {
  Pcg32 rng(7);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

class Pcg32BoundedTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(Pcg32BoundedTest, StaysInRangeAndHitsAllValues) {
  const std::uint32_t bound = GetParam();
  Pcg32 rng(99, bound);
  std::vector<int> hits(bound, 0);
  for (int i = 0; i < 5000; ++i) {
    std::uint32_t v = rng.NextBounded(bound);
    ASSERT_LT(v, bound);
    ++hits[v];
  }
  for (std::uint32_t v = 0; v < bound; ++v) {
    EXPECT_GT(hits[v], 0) << "value " << v << " never drawn";
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, Pcg32BoundedTest,
                         ::testing::Values(1u, 2u, 3u, 7u, 60u));

TEST(Pcg32Test, BoundedOneAlwaysZero) {
  Pcg32 rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

}  // namespace
}  // namespace sjoin
