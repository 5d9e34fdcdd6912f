#include "core/epoch_tuner.h"

#include <gtest/gtest.h>

namespace sjoin {
namespace {

// The expectations spell the controller's constants out as literals
// (growth x1.5, shrink by 1 s, clamp to [250 ms, 8 s], comm band
// [0.05, 0.15], occupancy guard 0.1), so a change to any of them fails here.

EpochTunerConfig Cfg() {
  EpochTunerConfig cfg;
  cfg.enabled = true;
  return cfg;
}

TEST(EpochTunerTest, DisabledNeverMoves) {
  EpochTunerConfig cfg = Cfg();
  cfg.enabled = false;
  EpochTuner tuner(cfg, 2 * kUsPerSec);
  EXPECT_EQ(tuner.Update(0.9, 0.0), 2 * kUsPerSec);
  EXPECT_EQ(tuner.Update(0.0, 0.0), 2 * kUsPerSec);
  EXPECT_EQ(tuner.Grows(), 0u);
}

TEST(EpochTunerTest, GrowsOnHighCommFraction) {
  EpochTuner tuner(Cfg(), 2 * kUsPerSec);
  EXPECT_EQ(tuner.Update(0.3, 0.0), 3 * kUsPerSec);
  EXPECT_EQ(tuner.Update(0.16, 0.0), 4500 * kUsPerMs);
  EXPECT_EQ(tuner.Grows(), 2u);
}

TEST(EpochTunerTest, GrowthIsClampedAtMax) {
  EpochTuner tuner(Cfg(), 6 * kUsPerSec);
  EXPECT_EQ(tuner.Update(0.5, 0.0), 8 * kUsPerSec);
  EXPECT_EQ(tuner.Update(0.5, 0.0), 8 * kUsPerSec);  // no further growth
  EXPECT_EQ(tuner.Grows(), 1u);
}

TEST(EpochTunerTest, ShrinksWhenCommIsCheapAndLoadIsLow) {
  EpochTuner tuner(Cfg(), 3 * kUsPerSec);
  EXPECT_EQ(tuner.Update(0.01, 0.0), 2 * kUsPerSec);
  EXPECT_EQ(tuner.Update(0.04, 0.09), 1 * kUsPerSec);
  EXPECT_EQ(tuner.Shrinks(), 2u);
}

TEST(EpochTunerTest, ShrinkIsClampedAtMin) {
  EpochTuner tuner(Cfg(), 700 * kUsPerMs);
  EXPECT_EQ(tuner.Update(0.01, 0.0), 250 * kUsPerMs);
  EXPECT_EQ(tuner.Update(0.01, 0.0), 250 * kUsPerMs);
  EXPECT_EQ(tuner.Shrinks(), 1u);
}

TEST(EpochTunerTest, OccupancyGuardSuppressesShrink) {
  EpochTuner tuner(Cfg(), 2 * kUsPerSec);
  EXPECT_EQ(tuner.Update(0.01, 0.5), 2 * kUsPerSec);
  EXPECT_EQ(tuner.Update(0.01, 0.1), 2 * kUsPerSec);  // the guard itself
  EXPECT_EQ(tuner.Shrinks(), 0u);
}

TEST(EpochTunerTest, DeadBandHolds) {
  EpochTuner tuner(Cfg(), 2 * kUsPerSec);
  EXPECT_EQ(tuner.Update(0.10, 0.0), 2 * kUsPerSec);
  EXPECT_EQ(tuner.Update(0.15, 0.0), 2 * kUsPerSec);  // upper edge holds
  EXPECT_EQ(tuner.Update(0.05, 0.0), 2 * kUsPerSec);  // lower edge holds
  EXPECT_EQ(tuner.Grows(), 0u);
  EXPECT_EQ(tuner.Shrinks(), 0u);
}

TEST(EpochTunerTest, InitialEpochClampedIntoRange) {
  EXPECT_EQ(EpochTuner(Cfg(), 100 * kUsPerSec).CurrentEpoch(),
            8 * kUsPerSec);
  EXPECT_EQ(EpochTuner(Cfg(), 100 * kUsPerMs).CurrentEpoch(),
            250 * kUsPerMs);
}

TEST(EpochTunerTest, ConvergesUnderAlternatingPressure) {
  // AIMD: alternating high/low pressure must stay inside the clamp range
  // and not diverge.
  EpochTuner tuner(Cfg(), 2 * kUsPerSec);
  for (int i = 0; i < 100; ++i) {
    Duration e = tuner.Update(i % 2 == 0 ? 0.4 : 0.01, 0.0);
    EXPECT_GE(e, 250 * kUsPerMs);
    EXPECT_LE(e, 8 * kUsPerSec);
  }
  EXPECT_GT(tuner.Grows(), 10u);
  EXPECT_GT(tuner.Shrinks(), 10u);
}

}  // namespace
}  // namespace sjoin
