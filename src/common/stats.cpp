#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sjoin {

void RunningStat::Add(double x) {
  ++n_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStat::AddWeighted(double x, std::size_t w) {
  if (w == 0) return;
  double wf = static_cast<double>(w);
  n_ += w;
  sum_ += x * wf;
  double delta = x - mean_;
  mean_ += delta * wf / static_cast<double>(n_);
  m2_ += wf * delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStat::StdDev() const { return std::sqrt(Variance()); }

void RunningStat::Merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  double delta = other.mean_ - mean_;
  std::size_t total = n_ + other.n_;
  double nf = static_cast<double>(n_);
  double mf = static_cast<double>(other.n_);
  double tf = static_cast<double>(total);
  mean_ += delta * mf / tf;
  m2_ += other.m2_ + delta * delta * nf * mf / tf;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ = total;
}

void RunningStat::Reset() { *this = RunningStat(); }

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::Add(double x) {
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  counts_[static_cast<std::size_t>(it - bounds_.begin())]++;
  ++total_;
}

double Histogram::UpperBound(std::size_t bucket) const {
  return bucket < bounds_.size() ? bounds_[bucket]
                                 : std::numeric_limits<double>::infinity();
}

double Histogram::Quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  auto target = static_cast<std::uint64_t>(q * static_cast<double>(total_));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    // `cum > 0` guards q = 0 with empty leading buckets: the answer must
    // come from the first *populated* bucket, not from an empty bucket whose
    // upper bound sits below the whole distribution.
    if (cum >= target && cum > 0) {
      double hi = UpperBound(i);
      double lo = i == 0 ? 0.0 : bounds_[i - 1];
      if (std::isinf(hi)) return lo;
      if (counts_[i] == 0) return hi;
      double frac = static_cast<double>(counts_[i] - (cum - target)) /
                    static_cast<double>(counts_[i]);
      return lo + frac * (hi - lo);
    }
  }
  return UpperBound(counts_.size() - 1);
}

Histogram Histogram::FromCounts(std::vector<double> upper_bounds,
                                std::vector<std::uint64_t> counts) {
  Histogram h(std::move(upper_bounds));
  assert(counts.size() == h.counts_.size());
  h.counts_ = std::move(counts);
  h.total_ = 0;
  for (std::uint64_t c : h.counts_) h.total_ += c;
  return h;
}

void Histogram::Merge(const Histogram& other) {
  assert(bounds_ == other.bounds_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

std::vector<double> DelayHistogramBounds() {
  std::vector<double> bounds;
  double b = 1e3;  // 1 ms in us
  while (b <= 1e8) {
    bounds.push_back(b);
    b *= 3.1622776601683795;  // half-decade steps
  }
  return bounds;
}

}  // namespace sjoin
