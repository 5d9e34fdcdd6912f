// Deterministic pseudo-random number generation.
//
// Experiments must be exactly reproducible across runs and hosts, so the
// library carries its own small generators instead of relying on
// implementation-defined std::default_random_engine behaviour.
#pragma once

#include <cstdint>

namespace sjoin {

/// Stateless 64-bit mix of a value; the hash function H used for stream
/// partitioning and for extendible-hashing bucket addressing.
constexpr std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// PCG32 (Melissa O'Neill): small, fast, statistically solid generator with
/// a 64-bit state and 32-bit output. One independent stream per component.
class Pcg32 {
 public:
  explicit Pcg32(std::uint64_t seed, std::uint64_t stream = 1) {
    state_ = 0;
    inc_ = (stream << 1) | 1u;
    NextU32();
    state_ += seed;
    NextU32();
  }

  std::uint32_t NextU32() {
    std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18) ^ old) >> 27);
    auto rot = static_cast<std::uint32_t>(old >> 59);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  std::uint64_t NextU64() {
    return (static_cast<std::uint64_t>(NextU32()) << 32) | NextU32();
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU32()) * (1.0 / 4294967296.0);
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  std::uint32_t NextBounded(std::uint32_t bound);

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

}  // namespace sjoin
