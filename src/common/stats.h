// Online statistics used by the metrics subsystem.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace sjoin {

/// Welford-style running mean/variance plus min/max. Numerically stable and
/// O(1) per observation; used for production delay, buffer occupancy, and
/// per-slave communication time accounting.
class RunningStat {
 public:
  void Add(double x);

  /// Adds `x` with frequency weight `w` (w identical observations), in O(1).
  /// Used when one probe tuple yields many join outputs sharing a delay.
  void AddWeighted(double x, std::size_t w);

  std::size_t Count() const { return n_; }
  double Mean() const { return n_ ? mean_ : 0.0; }
  double Variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double StdDev() const;
  double Min() const { return n_ ? min_ : 0.0; }
  double Max() const { return n_ ? max_ : 0.0; }
  double Sum() const { return sum_; }

  /// Merges another RunningStat into this one (Chan's parallel update).
  void Merge(const RunningStat& other);

  void Reset();

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-boundary histogram with +Inf overflow bucket. Boundaries are the
/// *upper* edges of each bucket; an observation x lands in the first bucket
/// whose boundary is >= x.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Add(double x);

  std::size_t BucketCount() const { return counts_.size(); }
  std::uint64_t CountAt(std::size_t bucket) const { return counts_[bucket]; }
  double UpperBound(std::size_t bucket) const;
  std::uint64_t TotalCount() const { return total_; }

  /// Linear-interpolated quantile estimate, q in [0, 1].
  double Quantile(double q) const;

  /// Adds another histogram's counts; both must share identical bounds.
  void Merge(const Histogram& other);

  /// Reconstructs a histogram from externally-carried buckets (a metrics
  /// snapshot or a decoded kMetrics frame). `counts` must have
  /// `upper_bounds.size() + 1` entries (the last is the +Inf overflow).
  static Histogram FromCounts(std::vector<double> upper_bounds,
                              std::vector<std::uint64_t> counts);

 private:
  std::vector<double> bounds_;          // strictly increasing upper edges
  std::vector<std::uint64_t> counts_;   // bounds_.size() + 1 (overflow last)
  std::uint64_t total_ = 0;
};

/// Log-spaced bucket bounds (microseconds) suited to production-delay
/// distributions: half-decade steps from 1 ms to 100 s.
std::vector<double> DelayHistogramBounds();

}  // namespace sjoin
