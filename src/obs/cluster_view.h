// ClusterMetricsView: the master's live, cluster-wide metrics table.
//
// Each slave ships a compact snapshot of its registry (counters, gauges, and
// histograms with buckets) inside the epoch protocol as a kMetrics frame,
// stamped with the *slave's* epoch ordinal -- the number of distribution
// epochs its join thread has fully drained. The master merges frames into
// this per-(rank, epoch) table keyed by the stamp, NOT by arrival epoch:
// arrival order races against the join backlog and wall scheduling, so only
// stamp-keyed storage gives a deterministic table under a seeded run.
//
// kMetrics is fire-and-forget from the slave's join thread; the master never
// waits for it (the paper's epoch protocol stays asynchronous, and the
// overhead guard stays honest). Consequently the table may be missing the
// last in-flight epochs of a rank when the run shuts down -- readers iterate
// what is present.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"  // for obs::Rank

namespace sjoin::obs {

/// One metric value as shipped over the wire. Histogram samples carry their
/// full bucket vectors so the master's cluster view can answer delay
/// quantiles per (rank, epoch) -- the end-to-end tuple-delay telemetry.
struct MetricSample {
  std::string name;
  std::string labels;  ///< canonical "k=v,..." form
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;
  double gauge = 0.0;
  std::vector<double> hist_bounds;          ///< kHistogram only: upper edges
  std::vector<std::uint64_t> hist_counts;   ///< bounds.size() + 1 buckets
  std::uint64_t hist_total = 0;
};

/// Flattens a registry into wire-able samples (counters, gauges, and
/// histograms with their buckets).
std::vector<MetricSample> CollectSamples(const MetricsRegistry& reg,
                                         bool include_volatile);

class ClusterMetricsView {
 public:
  void Record(Rank rank, std::int64_t epoch, std::vector<MetricSample> samples);

  /// nullptr when the (rank, epoch) frame never arrived.
  const std::vector<MetricSample>* Get(Rank rank, std::int64_t epoch) const;

  /// 0 when absent (mirrors MetricsRegistry::CounterValue semantics).
  std::uint64_t CounterAt(Rank rank, std::int64_t epoch, std::string_view name,
                          std::string_view labels = "") const;

  /// Highest epoch recorded for `rank`, or -1.
  std::int64_t LatestEpoch(Rank rank) const;
  /// All epochs recorded for `rank`, ascending.
  std::vector<std::int64_t> Epochs(Rank rank) const;
  std::size_t FrameCount() const { return table_.size(); }

  /// One CSV row per (epoch, rank) frame; header is the sorted union of
  /// sample names. Deterministic for a deterministic table.
  std::string ExportCsv() const;

 private:
  // (rank, epoch) -> samples. std::map gives deterministic iteration.
  std::map<std::pair<Rank, std::int64_t>, std::vector<MetricSample>> table_;
};

}  // namespace sjoin::obs
