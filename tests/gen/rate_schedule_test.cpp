#include "gen/rate_schedule.h"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/stream_source.h"

namespace sjoin {
namespace {

TEST(RateScheduleTest, ConstantRate) {
  RateSchedule s(1000.0);
  EXPECT_DOUBLE_EQ(s.RateAt(0), 1000.0);
  EXPECT_DOUBLE_EQ(s.RateAt(123456789), 1000.0);
  EXPECT_DOUBLE_EQ(s.MeanRate(), 1000.0);
}

TEST(RateScheduleTest, PhasesAndCycling) {
  RateSchedule s({{2 * kUsPerSec, 100.0}, {3 * kUsPerSec, 400.0}});
  EXPECT_EQ(s.CycleLength(), 5 * kUsPerSec);
  EXPECT_DOUBLE_EQ(s.RateAt(0), 100.0);
  EXPECT_DOUBLE_EQ(s.RateAt(2 * kUsPerSec), 400.0);
  EXPECT_DOUBLE_EQ(s.RateAt(5 * kUsPerSec), 100.0);   // wrapped
  EXPECT_DOUBLE_EQ(s.RateAt(7 * kUsPerSec + 1), 400.0);
  EXPECT_DOUBLE_EQ(s.MeanRate(), (100.0 * 2 + 400.0 * 3) / 5);
}

TEST(ModulatedPoissonTest, ConstantScheduleMatchesRate) {
  ModulatedPoisson p(RateSchedule(2000.0), 7);
  const int n = 100000;
  Time last = 0;
  for (int i = 0; i < n; ++i) last = p.NextArrival();
  double measured = n / UsToSeconds(last);
  EXPECT_NEAR(measured, 2000.0, 60.0);
}

// Every source draws its arrivals from ModulatedPoisson; 100 and 6000
// bracket Table I's 1500 tuples/s per stream.
class PoissonRateTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonRateTest, MeanInterArrivalMatchesRate) {
  const double rate = GetParam();
  ModulatedPoisson p(RateSchedule(rate), 11);
  const int n = 200000;
  Time last = 0;
  for (int i = 0; i < n; ++i) last = p.NextArrival();
  const double mean_s = UsToSeconds(last) / n;
  EXPECT_NEAR(mean_s, 1.0 / rate, 0.03 / rate);
}

INSTANTIATE_TEST_SUITE_P(Rates, PoissonRateTest,
                         ::testing::Values(100.0, 1500.0, 6000.0));

TEST(ModulatedPoissonTest, VarianceOfExponentialGaps) {
  // Exponential(lambda) gaps: variance = 1/lambda^2 => cv = 1.
  ModulatedPoisson p(RateSchedule(1000.0), 13);
  const int n = 100000;
  double sum = 0;
  double sum2 = 0;
  Time prev = 0;
  for (int i = 0; i < n; ++i) {
    const Time t = p.NextArrival();
    const auto g = static_cast<double>(t - prev);
    prev = t;
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05);
}

TEST(ModulatedPoissonTest, StrictlyIncreasing) {
  ModulatedPoisson p(
      RateSchedule({{100 * kUsPerMs, 50000.0}, {100 * kUsPerMs, 100.0}}), 3);
  Time prev = 0;
  for (int i = 0; i < 20000; ++i) {
    Time t = p.NextArrival();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(ModulatedPoissonTest, PerPhaseRatesRealized) {
  // 1 s at 500 t/s, then 1 s at 4000 t/s, cycling.
  RateSchedule sched({{kUsPerSec, 500.0}, {kUsPerSec, 4000.0}});
  ModulatedPoisson p(sched, 11);
  std::vector<int> counts(2, 0);
  while (true) {
    Time t = p.NextArrival();
    if (t >= 20 * kUsPerSec) break;
    counts[(t / kUsPerSec) % 2 == 0 ? 0 : 1]++;
  }
  // 10 cycles: ~5000 arrivals in quiet phases, ~40000 in surges.
  EXPECT_NEAR(counts[0], 5000, 400);
  EXPECT_NEAR(counts[1], 40000, 1200);
}

TEST(ModulatedPoissonTest, Deterministic) {
  RateSchedule sched({{kUsPerSec, 100.0}, {kUsPerSec, 1000.0}});
  ModulatedPoisson a(sched, 5);
  ModulatedPoisson b(sched, 5);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.NextArrival(), b.NextArrival());
}

TEST(MergedSourceScheduleTest, BurstsShowUpInBothStreams) {
  RateSchedule sched({{kUsPerSec, 200.0}, {kUsPerSec, 2000.0}});
  MergedSource src(sched, 0.7, 1 << 20, 21);
  std::vector<Rec> out;
  src.DrainUntil(10 * kUsPerSec, out);
  int quiet = 0;
  int surge = 0;
  int stream1 = 0;
  for (const Rec& r : out) {
    ((r.ts / kUsPerSec) % 2 == 0 ? quiet : surge)++;
    stream1 += r.stream;
  }
  EXPECT_GT(surge, 5 * quiet);
  EXPECT_NEAR(static_cast<double>(stream1) / static_cast<double>(out.size()),
              0.5, 0.05);
}

}  // namespace
}  // namespace sjoin
