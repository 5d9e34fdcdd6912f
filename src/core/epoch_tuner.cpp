#include "core/epoch_tuner.h"

#include <algorithm>

namespace sjoin {

EpochTuner::EpochTuner(const EpochTunerConfig& cfg, Duration initial_epoch)
    : enabled_(cfg.enabled),
      epoch_(std::clamp(initial_epoch, kMinEpoch, kMaxEpoch)) {}

Duration EpochTuner::Update(double comm_fraction, double avg_occupancy) {
  if (!enabled_) return epoch_;
  if (comm_fraction > kCommHigh) {
    Duration grown =
        static_cast<Duration>(static_cast<double>(epoch_) * kGrowFactor);
    grown = std::min(grown, kMaxEpoch);
    if (grown != epoch_) {
      epoch_ = grown;
      ++grows_;
    }
  } else if (comm_fraction < kCommLow && avg_occupancy < kOccupancyGuard) {
    Duration shrunk = std::max(epoch_ - kShrinkStep, kMinEpoch);
    if (shrunk != epoch_) {
      epoch_ = shrunk;
      ++shrinks_;
    }
  }
  return epoch_;
}

}  // namespace sjoin
