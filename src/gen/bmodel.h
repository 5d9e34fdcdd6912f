// b-model skewed value generator.
//
// The paper draws join-attribute values from the b-model (Wang, Ailamaki &
// Faloutsos 2002), "closely related to the 80/20 law in databases": the value
// domain is split recursively in half and a fraction b of the probability
// mass is assigned to one half at every level. b = 0.5 is uniform; b = 0.7
// (the paper's default) concentrates ~70% of tuples in half the domain, 49%
// in a quarter, and so on -- a self-similar hot-spot distribution.
#pragma once

#include <cstdint>

#include "common/rng.h"

namespace sjoin {

class BModelGenerator {
 public:
  /// `b` in [0.5, 1): bias per bisection level. `domain` > 0: values are
  /// drawn from [0, domain).
  BModelGenerator(double b, std::uint64_t domain, std::uint64_t seed,
                  std::uint64_t stream = 7);

  /// Draws one skewed value in [0, domain).
  std::uint64_t Next();

  /// Number of bisection levels used (enough to resolve the domain).
  std::uint32_t Levels() const { return levels_; }

 private:
  double b_;
  std::uint64_t domain_;
  std::uint32_t levels_;
  Pcg32 rng_;
};

}  // namespace sjoin
