// Wall-clock stage profiler: scoped RAII timers feeding per-stage
// HistogramMetrics tagged Stability::kWall.
//
// The whole observability layer up to now measures *virtual* time (the cost
// model's clock) so that seeded runs are byte-identical. This profiler is
// the deliberate exception: it measures real elapsed wall time of the hot
// paths (distribute, probe/insert, codec, transport, checkpoint). The kWall
// stability tag keeps those measurements out of every deterministic export
// path -- per-epoch recorder snapshots and kMetrics frames both collect with
// include_volatile=false -- so chaos tests' byte-identical assertions are
// unaffected. Wall stages surface through:
//   * SummarizeWallStages(): per-stage count/p50/p95 for run-summary logs
//     and bench JSON,
//   * AppendWallStageSamples(): synthetic gauge samples a slave may append
//     to its kMetrics frame so the master's ClusterMetricsView sees live
//     per-stage quantiles (readers must treat them as wall data).
#pragma once

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "obs/cluster_view.h"
#include "obs/metrics.h"

namespace sjoin::obs {

/// Histogram family name shared by all stages; the stage is a label, e.g.
/// wall_stage_us{stage=distribute}.
inline constexpr std::string_view kWallStageMetric = "wall_stage_us";

/// Canonical stage names used by the built-in instrumentation sites.
inline constexpr std::string_view kStageDistribute = "distribute";
inline constexpr std::string_view kStageProbeInsert = "probe_insert";
inline constexpr std::string_view kStageCodecEncode = "codec_encode";
inline constexpr std::string_view kStageCodecDecode = "codec_decode";
inline constexpr std::string_view kStageNetSend = "net_send";
inline constexpr std::string_view kStageNetRecv = "net_recv";
inline constexpr std::string_view kStageCkptSnapshot = "ckpt_snapshot";
inline constexpr std::string_view kStageCkptJournal = "ckpt_journal";

/// Log-spaced microsecond bucket bounds for stage durations (1 us .. 10 s,
/// half-decade steps) -- hot-path stages span nanoseconds-rounded-up to
/// multi-millisecond checkpoint snapshots.
std::vector<double> WallStageBounds();

/// Finds-or-creates the kWall histogram for `stage`. Cache the reference;
/// registration takes the registry mutex.
HistogramMetric& WallStage(MetricsRegistry& reg, std::string_view stage);

/// Per-worker variant for stages run by the intra-slave worker pool:
/// wall_stage_us{stage=...,worker=k}. Summaries render the stage as
/// "<stage>[wK]" so per-worker rows sort next to their aggregate stage.
HistogramMetric& WallStageWorker(MetricsRegistry& reg, std::string_view stage,
                                 std::uint32_t worker);

/// RAII wall timer: observes elapsed microseconds into `hist` on destruction.
/// A null histogram disables the timer (zero-cost off switch for call sites
/// whose registry may be absent).
class ScopedTimer {
 public:
  explicit ScopedTimer(HistogramMetric* hist)
      : hist_(hist),
        start_(hist ? std::chrono::steady_clock::now()
                    : std::chrono::steady_clock::time_point{}) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  /// Drops the sample (the timed scope turned out to do no work).
  void Cancel() { hist_ = nullptr; }
  ~ScopedTimer() {
    if (hist_ == nullptr) return;
    const auto us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    hist_->Observe(us);
  }

 private:
  HistogramMetric* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// Per-stage digest of one registry's wall_stage_us family.
struct WallStageSummary {
  std::string stage;
  std::uint64_t count = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
};

/// All wall stages observed in `reg`, sorted by stage name; stages with zero
/// observations are omitted.
std::vector<WallStageSummary> SummarizeWallStages(const MetricsRegistry& reg);

/// "stage=distribute count=12 p50_us=34.5 p95_us=81.2 | stage=..." -- the
/// run-summary log form ("-" when no stage fired).
std::string FormatWallStages(const std::vector<WallStageSummary>& stages);

/// Appends synthetic per-stage samples (wall_stage_count counter plus
/// wall_stage_p50_us / wall_stage_p95_us gauges, labeled stage=...) to a
/// kMetrics sample vector. Wall data in a deterministic channel: callers must
/// only feed views that are never byte-compared across runs.
void AppendWallStageSamples(const MetricsRegistry& reg,
                            std::vector<MetricSample>* samples);

}  // namespace sjoin::obs
