#include "obs/profiler.h"

#include <cstdio>

#include "common/stats.h"

namespace sjoin::obs {

namespace {

/// Extracts NAME from the canonical label string "stage=NAME", or
/// "NAME[wK]" from the per-worker form "stage=NAME,worker=K"; empty when
/// the labels are in neither form.
std::string StageFromLabels(const std::string& labels) {
  constexpr std::string_view kPrefix = "stage=";
  if (labels.compare(0, kPrefix.size(), kPrefix) != 0) return {};
  std::string stage = labels.substr(kPrefix.size());
  const std::size_t comma = stage.find(',');
  if (comma == std::string::npos) return stage;
  constexpr std::string_view kWorker = "worker=";
  const std::string rest = stage.substr(comma + 1);
  if (rest.compare(0, kWorker.size(), kWorker) != 0 ||
      rest.find(',') != std::string::npos) {
    return {};
  }
  return stage.substr(0, comma) + "[w" + rest.substr(kWorker.size()) + "]";
}

}  // namespace

std::vector<double> WallStageBounds() {
  std::vector<double> bounds;
  double b = 1.0;  // 1 us
  while (b <= 1e7) {
    bounds.push_back(b);
    b *= 3.1622776601683795;  // half-decade steps up to 10 s
  }
  return bounds;
}

HistogramMetric& WallStage(MetricsRegistry& reg, std::string_view stage) {
  return reg.GetHistogram(kWallStageMetric, WallStageBounds(),
                          {{"stage", std::string(stage)}}, Stability::kWall);
}

HistogramMetric& WallStageWorker(MetricsRegistry& reg, std::string_view stage,
                                 std::uint32_t worker) {
  return reg.GetHistogram(kWallStageMetric, WallStageBounds(),
                          {{"stage", std::string(stage)},
                           {"worker", std::to_string(worker)}},
                          Stability::kWall);
}

std::vector<WallStageSummary> SummarizeWallStages(const MetricsRegistry& reg) {
  std::vector<WallStageSummary> out;
  for (const SnapshotEntry& e : reg.Collect(/*include_volatile=*/true)) {
    if (e.name != kWallStageMetric || e.kind != MetricKind::kHistogram) continue;
    if (e.hist_total == 0) continue;
    WallStageSummary s;
    s.stage = StageFromLabels(e.labels);
    if (s.stage.empty()) continue;
    s.count = e.hist_total;
    const Histogram h = Histogram::FromCounts(e.hist_bounds, e.hist_counts);
    s.p50_us = h.Quantile(0.50);
    s.p95_us = h.Quantile(0.95);
    out.push_back(std::move(s));
  }
  // Collect() is (name, labels)-sorted, so `out` is already stage-sorted.
  return out;
}

std::string FormatWallStages(const std::vector<WallStageSummary>& stages) {
  if (stages.empty()) return "-";
  std::string out;
  char buf[160];
  for (const WallStageSummary& s : stages) {
    if (!out.empty()) out += " | ";
    std::snprintf(buf, sizeof buf,
                  "stage=%s count=%llu p50_us=%.1f p95_us=%.1f",
                  s.stage.c_str(), static_cast<unsigned long long>(s.count),
                  s.p50_us, s.p95_us);
    out += buf;
  }
  return out;
}

void AppendWallStageSamples(const MetricsRegistry& reg,
                            std::vector<MetricSample>* samples) {
  for (const WallStageSummary& s : SummarizeWallStages(reg)) {
    const std::string labels = "stage=" + s.stage;
    MetricSample count;
    count.name = "wall_stage_count";
    count.labels = labels;
    count.kind = MetricKind::kCounter;
    count.counter = s.count;
    samples->push_back(std::move(count));
    MetricSample p50;
    p50.name = "wall_stage_p50_us";
    p50.labels = labels;
    p50.kind = MetricKind::kGauge;
    p50.gauge = s.p50_us;
    samples->push_back(std::move(p50));
    MetricSample p95;
    p95.name = "wall_stage_p95_us";
    p95.labels = labels;
    p95.kind = MetricKind::kGauge;
    p95.gauge = s.p95_us;
    samples->push_back(std::move(p95));
  }
}

}  // namespace sjoin::obs
