// Time-varying arrival rates.
//
// The paper's system model notes that "in a dynamic stream environment,
// this arrival rate can change over time" -- the whole point of adaptive
// load diffusion. RateSchedule describes a cyclic, piecewise-constant rate
// profile; ModulatedPoisson samples a nonhomogeneous Poisson process from
// it exactly (per-phase integration of a unit-rate exponential, no
// thinning), degenerating to a plain Poisson process for a single phase.
#pragma once

#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/time.h"

namespace sjoin {

class RateSchedule {
 public:
  /// Constant-rate schedule.
  explicit RateSchedule(double rate_per_sec);

  /// Cyclic schedule; every phase must have duration > 0 and rate > 0.
  explicit RateSchedule(std::vector<RatePhase> phases);

  /// Instantaneous rate at absolute time `t` (cyclic).
  double RateAt(Time t) const;

  Duration CycleLength() const { return cycle_; }
  const std::vector<RatePhase>& Phases() const { return phases_; }

  /// Average rate over one full cycle.
  double MeanRate() const;

 private:
  std::vector<RatePhase> phases_;
  Duration cycle_;
};

/// Nonhomogeneous Poisson arrivals following a RateSchedule.
class ModulatedPoisson {
 public:
  ModulatedPoisson(RateSchedule schedule, std::uint64_t seed,
                   std::uint64_t stream = 1);

  /// Next absolute arrival time (strictly increasing).
  Time NextArrival();

 private:
  RateSchedule schedule_;
  Pcg32 rng_;
  Time now_ = 0;
};

}  // namespace sjoin
