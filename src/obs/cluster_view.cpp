#include "obs/cluster_view.h"

#include <cstdio>
#include <set>

#include "common/stats.h"

namespace sjoin::obs {

std::vector<MetricSample> CollectSamples(const MetricsRegistry& reg,
                                         bool include_volatile) {
  std::vector<MetricSample> out;
  for (const SnapshotEntry& e : reg.Collect(include_volatile)) {
    MetricSample s;
    s.name = e.name;
    s.labels = e.labels;
    s.kind = e.kind;
    s.counter = e.counter;
    s.gauge = e.gauge;
    if (e.kind == MetricKind::kHistogram) {
      s.hist_bounds = e.hist_bounds;
      s.hist_counts = e.hist_counts;
      s.hist_total = e.hist_total;
    }
    out.push_back(std::move(s));
  }
  return out;
}

void ClusterMetricsView::Record(Rank rank, std::int64_t epoch,
                                std::vector<MetricSample> samples) {
  table_[{rank, epoch}] = std::move(samples);
}

const std::vector<MetricSample>* ClusterMetricsView::Get(
    Rank rank, std::int64_t epoch) const {
  auto it = table_.find({rank, epoch});
  return it == table_.end() ? nullptr : &it->second;
}

std::uint64_t ClusterMetricsView::CounterAt(Rank rank, std::int64_t epoch,
                                            std::string_view name,
                                            std::string_view labels) const {
  const std::vector<MetricSample>* samples = Get(rank, epoch);
  if (!samples) return 0;
  for (const MetricSample& s : *samples) {
    if (s.kind == MetricKind::kCounter && s.name == name && s.labels == labels) {
      return s.counter;
    }
  }
  return 0;
}

std::int64_t ClusterMetricsView::LatestEpoch(Rank rank) const {
  std::int64_t latest = -1;
  for (const auto& [key, _] : table_) {
    if (key.first == rank && key.second > latest) latest = key.second;
  }
  return latest;
}

std::vector<std::int64_t> ClusterMetricsView::Epochs(Rank rank) const {
  std::vector<std::int64_t> out;
  for (const auto& [key, _] : table_) {
    if (key.first == rank) out.push_back(key.second);
  }
  return out;
}

std::string ClusterMetricsView::ExportCsv() const {
  auto col_name = [](const MetricSample& s) {
    return s.labels.empty() ? s.name : s.name + "{" + s.labels + "}";
  };
  std::set<std::string> columns;
  for (const auto& [_, samples] : table_) {
    for (const MetricSample& s : samples) {
      if (s.kind == MetricKind::kHistogram) {
        // Histograms surface as three derived cells per frame: sample count
        // plus interpolated p50/p95 from the shipped buckets.
        columns.insert(col_name(s) + ".count");
        columns.insert(col_name(s) + ".p50");
        columns.insert(col_name(s) + ".p95");
      } else {
        columns.insert(col_name(s));
      }
    }
  }
  std::string out = "epoch,rank";
  for (const std::string& c : columns) {
    out += ',';
    out += c;
  }
  out += '\n';
  // Rows sorted by (epoch, rank) -- natural plotting order.
  std::map<std::pair<std::int64_t, Rank>, const std::vector<MetricSample>*>
      by_epoch;
  for (const auto& [key, samples] : table_) {
    by_epoch[{key.second, key.first}] = &samples;
  }
  for (const auto& [key, samples] : by_epoch) {
    out += std::to_string(key.first);
    out += ',';
    out += std::to_string(key.second);
    std::map<std::string, std::string> cells;
    for (const MetricSample& s : *samples) {
      std::string col = col_name(s);
      char buf[64];
      if (s.kind == MetricKind::kCounter) {
        cells[col] = std::to_string(s.counter);
      } else if (s.kind == MetricKind::kGauge) {
        std::snprintf(buf, sizeof buf, "%.6f", s.gauge);
        cells[col] = buf;
      } else if (s.hist_counts.size() == s.hist_bounds.size() + 1) {
        cells[col + ".count"] = std::to_string(s.hist_total);
        Histogram h = Histogram::FromCounts(s.hist_bounds, s.hist_counts);
        std::snprintf(buf, sizeof buf, "%.6f", h.Quantile(0.50));
        cells[col + ".p50"] = buf;
        std::snprintf(buf, sizeof buf, "%.6f", h.Quantile(0.95));
        cells[col + ".p95"] = buf;
      }
    }
    for (const std::string& c : columns) {
      out += ',';
      auto it = cells.find(c);
      if (it != cells.end()) out += it->second;
    }
    out += '\n';
  }
  return out;
}

}  // namespace sjoin::obs
