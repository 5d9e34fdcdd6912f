// Shared scaffolding for the figure-reproduction benches.
//
// Every bench regenerates one table/figure of the paper's evaluation as a
// gnuplot-ready text table on stdout, with a header recording the exact
// configuration and the paper's expected shape. EXPERIMENTS.md records
// paper-vs-measured for each.
//
// Alongside the stdout table, every bench also emits a structured JSON
// report (obs/bench_report.h, schema "sjoin-bench-report" v1) carrying the
// same rows plus the run's stable registry counters and wall-clock stage
// profile. tools/bench_all merges the per-bench files into one suite file;
// tools/bench_diff gates regressions between two suites. The Reporter class
// below is the single producer of both outputs: a cell is printed and
// recorded by the same call, so table and JSON cannot drift apart.
//
//   SJOIN_BENCH=quick          shrink warmup/measure for smoke runs
//   SJOIN_BENCH_JSON_DIR=DIR   where the JSON report is written (default ".")
//   SJOIN_BENCH_JSON=0|off     disable the JSON report entirely
//
// Geometry scaling: the paper runs W = 10 min windows for 20 minutes per
// point on a 930 MHz cluster. This harness runs the *same protocol at the
// same arrival rates* but scales the window to 60 s and theta proportionally
// (150 KB instead of 1.5 MB, preserving theta / per-group window volume);
// with fine tuning on, a probe's cost depends on theta (the mini-group size
// cap), not W, so the saturation knees sit where the paper's do while each
// point simulates in seconds. The CostModel in common/cost_model.h supplies
// the calibrated P3-era per-comparison / per-byte / per-message charges.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "core/metrics.h"
#include "core/sim_driver.h"
#include "obs/bench_report.h"
#include "obs/cluster_view.h"
#include "obs/obs.h"
#include "obs/profiler.h"

namespace sjoin::bench {

/// The scaled experiment configuration (see file comment). Everything not
/// listed here keeps the paper's Table I default.
inline SystemConfig ScaledConfig() {
  SystemConfig cfg;
  cfg.join.window = 60 * kUsPerSec;     // paper: 600 s (scaled 10x)
  cfg.join.theta_bytes = 150 * 1024;    // paper: 1.5 MB (scaled 10x)
  return cfg;
}

/// Deterministic two-stream trace for the wall-clock cluster benches:
/// `count` tuples with strictly increasing timestamps over about
/// [1, span_us], gaps and keys (uniform over [0, key_domain)) drawn from
/// PCG stream (`seed`, `stream`), streams alternating.
inline std::vector<Rec> MakeTrace(std::uint64_t seed, std::uint64_t stream,
                                  std::size_t count, Time span_us,
                                  std::uint64_t key_domain) {
  Pcg32 rng(Mix64(seed), stream);
  std::vector<Rec> trace;
  trace.reserve(count);
  const Time step = std::max<Time>(1, span_us / static_cast<Time>(count));
  Time ts = 0;
  for (std::size_t i = 0; i < count; ++i) {
    ts += 1 + rng.NextBounded(static_cast<std::uint32_t>(step));
    const std::uint64_t key =
        rng.NextBounded(static_cast<std::uint32_t>(key_domain));
    trace.push_back(Rec{ts, key, static_cast<StreamId>(i & 1)});
  }
  return trace;
}

struct BenchTimes {
  Duration warmup;
  Duration measure;
};

inline bool QuickMode() {
  const char* v = std::getenv("SJOIN_BENCH");
  return v != nullptr && std::strcmp(v, "quick") == 0;
}

inline const char* ModeName() { return QuickMode() ? "quick" : "full"; }

/// Warmup must exceed the window so steady-state window volume is reached
/// before measurement starts (the paper warms up 10 of its 20 minutes).
inline BenchTimes Times() {
  if (QuickMode()) {
    return {75 * kUsPerSec, 45 * kUsPerSec};
  }
  return {90 * kUsPerSec, 120 * kUsPerSec};
}

/// Observability bundle shared by every simulated point of this bench
/// process: registry counters accumulate across points and land in the JSON
/// report's `counters` map, the wall-stage histograms in `wall_stages`.
inline obs::NodeObs& SharedObs() {
  static obs::NodeObs ob;
  return ob;
}

inline SimOptions Opts() {
  BenchTimes t = Times();
  SimOptions o{t.warmup, t.measure};
  o.obs = &SharedObs();
  return o;
}

/// Average per-active-slave value of a duration metric, in seconds.
inline double PerSlaveSec(const RunMetrics& rm, Duration total) {
  double n = rm.avg_active_slaves > 0.0
                 ? rm.avg_active_slaves
                 : static_cast<double>(rm.slaves.size());
  return UsToSeconds(total) / n;
}

inline RunMetrics Run(const SystemConfig& cfg) {
  SimDriver driver(cfg, Opts());
  return driver.Run();
}

/// Produces the stdout table and the JSON report from the same cell stream.
///
/// Usage:
///   bench::Reporter rep("fig05_delay_small", "Fig 5", title, shape, cfg);
///   rep.Columns({"rate", "delay_s_n1", "delay_s_n2"});
///   ... per point: rep.Num("%-8.0f", rate); rep.Num(" %10.2f", d); ...
///   rep.EndRow();
///   return rep.Finish();
///
/// Cells print with the exact printf format the old table used, so the
/// stdout output is unchanged; the numeric value is recorded unformatted in
/// the JSON row. Column-header lines stay hand-printed (their formatting is
/// per-bench); Columns() only records the machine-readable names.
class Reporter {
 public:
  Reporter(std::string bench_id, std::string figure, std::string title,
           std::string paper_shape, const SystemConfig& cfg) {
    BenchTimes t = Times();
    report_.bench_id = std::move(bench_id);
    report_.figure = std::move(figure);
    report_.title = std::move(title);
    report_.paper_shape = std::move(paper_shape);
    report_.mode = ModeName();
    report_.warmup_s = UsToSeconds(t.warmup);
    report_.measure_s = UsToSeconds(t.measure);
    report_.config = Summarize(cfg);
    std::printf("# %s -- %s\n", report_.figure.c_str(),
                report_.title.c_str());
    std::printf("# paper shape: %s\n", report_.paper_shape.c_str());
    std::printf("# cfg: %s\n", report_.config.c_str());
    std::printf("# warmup=%.0fs measure=%.0fs mode=%s\n", report_.warmup_s,
                report_.measure_s, report_.mode.c_str());
  }

  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  /// Marks the bench's numbers as wall-clock derived: bench_diff will check
  /// the table's structure but not gate on the values.
  void Deterministic(bool d) { report_.deterministic = d; }

  void Columns(std::vector<std::string> names) {
    report_.columns = std::move(names);
  }

  /// Prints `v` with `fmt` (one %-conversion consuming a double) and records
  /// the raw value as the next cell of the current row.
  void Num(const char* fmt, double v) {
    std::printf(fmt, v);  // NOLINT(cert-err33-c)
    row_.push_back(obs::BenchCell::Num(v));
  }

  /// Prints `s` with `fmt` (one %s) and records the text cell.
  void Text(const char* fmt, const char* s) {
    std::printf(fmt, s);  // NOLINT(cert-err33-c)
    row_.push_back(obs::BenchCell::Text(s));
  }

  /// Records a cell without printing (for benches whose stdout formatting
  /// does not map one printf per cell).
  void CellNum(double v) { row_.push_back(obs::BenchCell::Num(v)); }
  void CellText(std::string s) {
    row_.push_back(obs::BenchCell::Text(std::move(s)));
  }

  /// Ends the current row: newline on stdout, row appended to the report.
  void EndRow() {
    std::printf("\n");
    EndRowQuiet();
  }

  /// Ends the current row without touching stdout (for benches whose table
  /// is printed by other machinery, e.g. google-benchmark's console).
  void EndRowQuiet() {
    report_.rows.push_back(std::move(row_));
    row_.clear();
  }

  /// Adds a bench-specific counter to the report (beyond the registry ones).
  void Counter(std::string name, std::uint64_t v) {
    extra_counters_.emplace_back(std::move(name), v);
  }

  /// Harvests the shared registry and writes `<bench_id>.json` into
  /// SJOIN_BENCH_JSON_DIR (default "."). Returns the bench's exit code:
  /// 0 on success (or with SJOIN_BENCH_JSON=0), 1 when the write failed.
  int Finish() {
    const obs::MetricsRegistry& reg = SharedObs().registry;
    for (const obs::MetricSample& s : obs::CollectSamples(reg, false)) {
      if (s.kind != obs::MetricKind::kCounter) continue;
      std::string name = s.name;
      if (!s.labels.empty()) name += "{" + s.labels + "}";
      report_.counters.emplace_back(std::move(name), s.counter);
    }
    for (auto& kv : extra_counters_) {
      report_.counters.push_back(std::move(kv));
    }
    report_.wall_stages = obs::SummarizeWallStages(reg);

    const char* off = std::getenv("SJOIN_BENCH_JSON");
    if (off != nullptr &&
        (std::strcmp(off, "0") == 0 || std::strcmp(off, "off") == 0)) {
      return 0;
    }
    const char* dir = std::getenv("SJOIN_BENCH_JSON_DIR");
    std::string path = (dir != nullptr && *dir != '\0') ? dir : ".";
    path += "/" + report_.bench_id + ".json";
    std::string json = report_.ToJson();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "bench json: %s\n", path.c_str());
    return 0;
  }

  const obs::BenchReport& Report() const { return report_; }

 private:
  obs::BenchReport report_;
  std::vector<obs::BenchCell> row_;
  std::vector<std::pair<std::string, std::uint64_t>> extra_counters_;
};

}  // namespace sjoin::bench
