// Extension: distributed-telemetry cost and yield (ISSUE 8) -- what the
// end-to-end tuple-delay sampling, the causal trace context, and the trace
// sink's ring of recent events cost at run time, and what the sampled
// histograms actually report.
//
// A wall-clock mini-cluster (master + 3 slaves + collector over
// InProcTransport) distributes a fixed trace while the telemetry knobs
// sweep:
//   * delay_sample_rate in {0 (off), 16 (default), 1 (every probe)} --
//     the sampling predicate is one Mix64 per probe tuple, the histogram
//     update two relaxed atomics; `sampled` counts the observations the
//     rate admitted, and the delay quantiles are read back from the
//     per-group tuple_delay_us histograms the slaves shipped;
//   * trace_events on at rate 16 -- adds the flow starts/finishes of the
//     causal batch/stats flows on top of the span events.
// The trace sink's ring fills in every configuration (traced or not), so
// its cost is part of every row's wall_ms.
//
// `wall_ms` is real elapsed time of the full cluster run and varies with
// machine load: the JSON report is marked deterministic=false, so
// bench_diff checks structure only. `sampled`, the quantiles, and `skew`
// are seed-deterministic (asserted by the worker-count identity test in
// tests/harness/worker_chaos_test.cpp); they are reported here so the
// telemetry's yield is visible next to its cost.
//
// SJOIN_BENCH=quick shrinks the trace for smoke runs.
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "common/config.h"
#include "common/stats.h"
#include "core/runner.h"
#include "net/inproc_transport.h"
#include "obs/cluster_view.h"
#include "obs/obs.h"

namespace {

using namespace sjoin;

struct RunResult {
  MasterSummary master;
  double wall_ms = 0.0;
  std::uint64_t sampled = 0;  ///< observations across every slave histogram
  double p50_ms = 0.0;        ///< merged tuple-delay quantiles
  double p95_ms = 0.0;
  double skew = 0.0;  ///< master's final group_skew_ratio gauge
};

/// One full cluster run, one thread per rank, per-rank obs bundles.
RunResult RunCluster(const SystemConfig& cfg, WallOptions wall,
                     bool trace_events) {
  const Rank n = cfg.num_slaves;
  InProcHub hub(n + 2);
  std::vector<std::unique_ptr<obs::NodeObs>> obs;
  for (Rank r = 0; r < n + 2; ++r) {
    obs.push_back(std::make_unique<obs::NodeObs>());
    obs[r]->trace.SetRank(r);
    obs[r]->trace.SetEnabled(trace_events);
  }
  wall.master_obs = obs[0].get();
  wall.slave_obs.clear();
  for (Rank s = 1; s <= n; ++s) wall.slave_obs.push_back(obs[s].get());

  std::vector<std::unique_ptr<Transport>> eps;
  std::vector<Transport*> nodes;
  for (Rank r = 0; r < n + 2; ++r) {
    eps.push_back(hub.Endpoint(r));
    nodes.push_back(eps.back().get());
  }

  const auto t0 = std::chrono::steady_clock::now();
  RunResult res;
  res.master =
      RunInProcessCluster(hub, nodes, cfg, wall, obs[n + 1].get()).master;
  res.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

  // Merge every slave's per-group delay histograms into one distribution.
  Histogram merged(DelayHistogramBounds());
  for (Rank s = 1; s <= n; ++s) {
    for (const obs::MetricSample& m :
         obs::CollectSamples(obs[s]->registry, /*include_volatile=*/false)) {
      if (m.name != "tuple_delay_us") continue;
      res.sampled += m.hist_total;
      merged.Merge(Histogram::FromCounts(m.hist_bounds, m.hist_counts));
    }
  }
  if (res.sampled > 0) {
    res.p50_ms = merged.Quantile(0.50) / 1000.0;
    res.p95_ms = merged.Quantile(0.95) / 1000.0;
  }
  res.skew = obs[0]->registry.GaugeValue("group_skew_ratio");
  return res;
}

}  // namespace

int main() {
  const bool quick = bench::QuickMode();
  const std::size_t tuples = quick ? 3000 : 12000;
  const Time span = (quick ? 300 : 1200) * kUsPerMs;

  SystemConfig cfg;
  cfg.num_slaves = 3;
  cfg.join.num_partitions = 24;
  cfg.join.window = 40 * kUsPerMs;
  cfg.epoch.t_dist = 5 * kUsPerMs;
  cfg.epoch.t_rep = 20 * kUsPerMs;
  cfg.workload.tuple_bytes = 64;

  WallOptions wall;
  wall.run_for = 60 * kUsPerSec;  // cap; the trace ends the run
  wall.recv_timeout_us = 250 * kUsPerMs;
  wall.recv_max_retries = 3;
  const std::vector<Rec> trace =
      bench::MakeTrace(0xDE1A9ULL, 7, tuples, span, 48);
  wall.input_trace = &trace;

  bench::Reporter rep("ext_delay_telemetry", "Ext telemetry",
                      "distributed-telemetry cost: delay sampling rate and "
                      "causal tracing vs run wall time",
                      "sampled observations scale ~1/rate at flat wall cost; "
                      "tracing adds flow events, not run time",
                      cfg);
  rep.Deterministic(false);  // wall-clock cluster: timings vary run to run
  std::printf("# trace: %zu tuples over %.3f s; 3 slaves, 24 groups\n",
              tuples, UsToSeconds(span));
  std::printf("%-8s %6s %9s %10s %10s %7s %9s\n", "rate", "trace", "sampled",
              "p50_ms", "p95_ms", "skew", "wall_ms");
  rep.Columns(
      {"rate", "trace", "sampled", "p50_ms", "p95_ms", "skew", "wall_ms"});

  struct Case {
    std::uint32_t rate;
    bool trace_events;
  };
  const std::vector<Case> cases = {
      {0, false}, {16, false}, {1, false}, {16, true}};
  for (const Case& c : cases) {
    SystemConfig run_cfg = cfg;
    run_cfg.obs.delay_sample_rate = c.rate;
    RunResult r = RunCluster(run_cfg, wall, c.trace_events);
    rep.Num("%-8.0f", static_cast<double>(c.rate));
    rep.Num(" %6.0f", c.trace_events ? 1.0 : 0.0);
    rep.Num(" %9.0f", static_cast<double>(r.sampled));
    rep.Num(" %10.3f", r.p50_ms);
    rep.Num(" %10.3f", r.p95_ms);
    rep.Num(" %7.2f", r.skew);
    rep.Num(" %9.2f", r.wall_ms);
    rep.EndRow();
    std::fflush(stdout);
  }
  return rep.Finish();
}
