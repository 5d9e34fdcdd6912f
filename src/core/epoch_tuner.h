// Adaptive distribution-epoch controller.
//
// The paper leaves "dynamically tuning various performance parameters (i.e.,
// group size and distribution epoch)" as future work, after establishing the
// tradeoff empirically: shrinking t_d cuts production delay (Fig. 13) but
// inflates communication overhead, to the point where "the slaves are
// engaged only in communication" (Fig. 14).
//
// This controller walks t_d along that tradeoff with a simple, robust AIMD
// rule driven by the communication *fraction* (share of each epoch the
// slaves spend communicating), which is observable without any cost model:
//   * comm fraction above kCommHigh -> multiplicative increase of t_d
//     (messages too small; amortize the fixed per-message cost better);
//   * comm fraction below kCommLow AND backlog low -> additive decrease
//     of t_d (we can afford snappier delivery => lower delay);
//   * anything else -> hold.
// t_d is clamped to [kMinEpoch, kMaxEpoch]; the reorganization epoch keeps
// its configured ratio to t_d so the paper's "order of magnitude larger"
// invariant survives retuning.
#pragma once

#include "common/config.h"
#include "common/time.h"

namespace sjoin {

/// One decision per reorganization interval (EpochTunerConfig lives in
/// common/config.h alongside the rest of the system configuration).
class EpochTuner {
 public:
  static constexpr Duration kMinEpoch = 250 * kUsPerMs;
  static constexpr Duration kMaxEpoch = 8 * kUsPerSec;

  /// Comm fraction above which t_d grows (multiplicatively).
  static constexpr double kCommHigh = 0.15;

  /// Comm fraction below which t_d may shrink (additively), provided the
  /// slaves are keeping up.
  static constexpr double kCommLow = 0.05;

  /// Average buffer occupancy above which shrinking is suppressed (smaller
  /// epochs add overhead precisely when the system can least afford it).
  static constexpr double kOccupancyGuard = 0.1;

  /// Multiplicative-increase factor and additive-decrease step.
  static constexpr double kGrowFactor = 1.5;
  static constexpr Duration kShrinkStep = kUsPerSec;

  EpochTuner(const EpochTunerConfig& cfg, Duration initial_epoch);

  /// Feeds the interval's observations and returns the epoch to use next.
  /// `comm_fraction` = (sum of slave comm time) / (interval * slaves);
  /// `avg_occupancy` = mean slave buffer occupancy over the interval.
  Duration Update(double comm_fraction, double avg_occupancy);

  Duration CurrentEpoch() const { return epoch_; }
  std::uint64_t Grows() const { return grows_; }
  std::uint64_t Shrinks() const { return shrinks_; }

 private:
  bool enabled_;
  Duration epoch_;
  std::uint64_t grows_ = 0;
  std::uint64_t shrinks_ = 0;
};

}  // namespace sjoin
