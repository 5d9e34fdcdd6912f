#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace sjoin {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.Sum(), 0.0);
}

TEST(RunningStatTest, MeanAndVariance) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.Count(), 8u);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  // Sample variance of the classic data set: 32/7.
  EXPECT_NEAR(s.Variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
  EXPECT_DOUBLE_EQ(s.Sum(), 40.0);
}

TEST(RunningStatTest, SingleObservationHasZeroVariance) {
  RunningStat s;
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.StdDev(), 0.0);
}

TEST(RunningStatTest, WeightedAddMatchesRepeatedAdd) {
  RunningStat a;
  RunningStat b;
  a.AddWeighted(3.0, 5);
  a.AddWeighted(10.0, 2);
  for (int i = 0; i < 5; ++i) b.Add(3.0);
  for (int i = 0; i < 2; ++i) b.Add(10.0);
  EXPECT_EQ(a.Count(), b.Count());
  EXPECT_NEAR(a.Mean(), b.Mean(), 1e-12);
  EXPECT_NEAR(a.Variance(), b.Variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.Min(), b.Min());
  EXPECT_DOUBLE_EQ(a.Max(), b.Max());
}

TEST(RunningStatTest, WeightZeroIsNoOp) {
  RunningStat s;
  s.Add(1.0);
  s.AddWeighted(100.0, 0);
  EXPECT_EQ(s.Count(), 1u);
  EXPECT_DOUBLE_EQ(s.Max(), 1.0);
}

TEST(RunningStatTest, MergeMatchesSequential) {
  RunningStat a;
  RunningStat b;
  RunningStat all;
  for (int i = 0; i < 100; ++i) {
    double v = std::sin(static_cast<double>(i)) * 10.0;
    (i < 40 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), all.Count());
  EXPECT_NEAR(a.Mean(), all.Mean(), 1e-9);
  EXPECT_NEAR(a.Variance(), all.Variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.Min(), all.Min());
  EXPECT_DOUBLE_EQ(a.Max(), all.Max());
}

TEST(RunningStatTest, MergeWithEmptySides) {
  RunningStat a;
  RunningStat b;
  b.Add(5.0);
  a.Merge(b);  // empty <- nonempty
  EXPECT_EQ(a.Count(), 1u);
  EXPECT_DOUBLE_EQ(a.Mean(), 5.0);
  RunningStat empty;
  a.Merge(empty);  // nonempty <- empty
  EXPECT_EQ(a.Count(), 1u);
}

TEST(RunningStatTest, ResetClears) {
  RunningStat s;
  s.Add(1.0);
  s.Reset();
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
}

TEST(HistogramTest, BucketsAndOverflow) {
  Histogram h({1.0, 10.0, 100.0});
  h.Add(0.5);
  h.Add(1.0);   // boundary lands in the bucket whose upper edge is >= x
  h.Add(5.0);
  h.Add(50.0);
  h.Add(1e6);   // overflow
  EXPECT_EQ(h.TotalCount(), 5u);
  EXPECT_EQ(h.CountAt(0), 2u);
  EXPECT_EQ(h.CountAt(1), 1u);
  EXPECT_EQ(h.CountAt(2), 1u);
  EXPECT_EQ(h.CountAt(3), 1u);
}

TEST(HistogramTest, QuantileInterpolates) {
  Histogram h({10.0, 20.0});
  for (int i = 0; i < 10; ++i) h.Add(5.0);
  double median = h.Quantile(0.5);
  EXPECT_GE(median, 0.0);
  EXPECT_LE(median, 10.0);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram h({1.0});
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, QuantileZeroSkipsEmptyLeadingBuckets) {
  // All mass sits in bucket (20, 30]; q=0 must answer from the first
  // *populated* bucket, not the empty leading ones.
  Histogram h({10.0, 20.0, 30.0});
  for (int i = 0; i < 4; ++i) h.Add(25.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 20.0);
}

TEST(HistogramTest, QuantileOneIsUpperEdgeOfLastPopulatedBucket) {
  Histogram h({10.0, 20.0, 30.0});
  h.Add(5.0);
  h.Add(15.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 20.0);
}

TEST(HistogramTest, OverflowOnlyMassReturnsLastFiniteBound) {
  Histogram h({10.0});
  h.Add(100.0);  // lands in the unbounded overflow bucket
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 10.0);
}

TEST(HistogramTest, SingleBucketQuantilesInterpolateWithinBucket) {
  Histogram h({8.0});
  h.Add(1.0);
  h.Add(1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 8.0);
}

TEST(HistogramTest, QuantileClampsOutOfRangeQ) {
  Histogram h({10.0});
  h.Add(5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(-0.5), h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(h.Quantile(2.0), h.Quantile(1.0));
}

}  // namespace
}  // namespace sjoin
