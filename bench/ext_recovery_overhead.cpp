// Extension: the replication trade-off of ISSUE 2 -- checkpoint interval vs
// replication overhead and recovery cost.
//
// A wall-clock mini-cluster (master + 3 slaves + collector over
// InProcTransport + FaultTransport) distributes a fixed trace; one slave
// crashes mid-run and its partition-groups fail over to their buddies with
// the retained batches replayed. Sweeping the checkpoint interval exposes
// the paper-style trade-off:
//   * small intervals  -> more checkpoint traffic (ckpt_bytes), but a short
//     retention buffer and a small replay at recovery;
//   * large intervals  -> cheap steady state, but the master retains more
//     epochs and recovery replays more tuples.
// `recovery_ms` is the master-observed failover span (dead-slave verdict
// through the last retained batch redelivered); `replayed_tuples` is the
// recovery work the adopting buddies must redo.
//
// Every run is differentially safe by construction (the chaos suite asserts
// exactness under this exact scenario); this bench only measures cost.
//
//   column 1: checkpoint interval in distribution epochs ("off" = baseline)
//   gnuplot: plot "..." using 1:4 (overhead %), 1:7 (replayed tuples)
//
// Wall-clock timings make this bench non-deterministic: its JSON report is
// marked deterministic=false, so bench_diff checks structure only.
//
// SJOIN_BENCH=quick shrinks the trace for smoke runs.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "common/config.h"
#include "core/runner.h"
#include "net/fault_transport.h"
#include "net/inproc_transport.h"

namespace {

using namespace sjoin;

/// One full cluster run over in-process channels: every rank is a thread,
/// every endpoint is decorated with the (possibly crash-injecting) fault
/// transport.
ClusterSummaries RunCluster(const SystemConfig& cfg, const WallOptions& wall,
                            const FaultConfig& faults) {
  const Rank n = cfg.num_slaves;
  InProcHub hub(n + 2);
  std::vector<std::unique_ptr<FaultEndpoint>> eps(n + 2);
  for (Rank r = 0; r < n + 2; ++r) {
    eps[r] = std::make_unique<FaultEndpoint>(hub.Endpoint(r), faults);
  }

  std::vector<Transport*> nodes;
  for (Rank r = 0; r < n + 2; ++r) nodes.push_back(eps[r].get());
  return RunInProcessCluster(hub, nodes, cfg, wall);
}

}  // namespace

int main() {
  const bool quick = bench::QuickMode();
  const std::size_t tuples = quick ? 2400 : 8000;
  const Time span = (quick ? 300 : 900) * kUsPerMs;

  SystemConfig cfg;
  cfg.num_slaves = 3;
  cfg.join.num_partitions = 24;
  cfg.join.window = 40 * kUsPerMs;
  cfg.epoch.t_dist = 5 * kUsPerMs;
  cfg.epoch.t_rep = 1000 * kUsPerSec;  // no reorganizations: isolate repl cost
  cfg.workload.tuple_bytes = 64;

  WallOptions wall;
  wall.run_for = 60 * kUsPerSec;  // cap; the trace ends the run
  wall.recv_timeout_us = 30 * kUsPerMs;
  wall.recv_max_retries = 2;
  // The master's wall-stage profile (codec/net) lands in the JSON report.
  wall.master_obs = &bench::SharedObs();
  const std::vector<Rec> trace =
      bench::MakeTrace(0xBEEFULL, 7, tuples, span, 60);
  wall.input_trace = &trace;

  FaultConfig crash;
  crash.crash_rank = 1;
  // Crash mid-run: roughly half the trace distributed, retention live.
  crash.crash_after_batches =
      static_cast<std::uint64_t>(span / cfg.epoch.t_dist) / 2;

  bench::Reporter rep("ext_recovery_overhead", "Ext recovery",
                      "replication overhead and recovery cost vs checkpoint "
                      "interval",
                      "ckpt_bytes falls and replayed_tuples grows as the "
                      "interval widens",
                      cfg);
  rep.Deterministic(false);  // wall-clock cluster: timings vary run to run
  std::printf("# trace: %zu tuples over %.3f s, slave 1 crashes at epoch "
              "%llu\n",
              tuples, UsToSeconds(span),
              static_cast<unsigned long long>(crash.crash_after_batches));
  std::printf("%-10s %12s %12s %12s %10s %12s %14s %12s\n", "ckpt_every",
              "tuple_bytes", "ckpt_bytes", "overhead_pct", "ckpt_acks",
              "replay_batch", "replay_tuples", "recovery_ms");
  rep.Columns({"ckpt_every", "tuple_bytes", "ckpt_bytes", "overhead_pct",
               "ckpt_acks", "replay_batch", "replay_tuples", "recovery_ms"});

  // Baseline: replication off, same crash -- no overhead, no recovery (the
  // dead groups' matches are simply lost).
  {
    SystemConfig base = cfg;
    base.replication.enabled = false;
    ClusterSummaries r = RunCluster(base, wall, crash);
    rep.Text("%-10s", "off");
    rep.Num(" %12.0f", static_cast<double>(r.master.tuples_sent * 64));
    rep.Num(" %12.0f", 0.0);
    rep.Num(" %12.2f", 0.0);
    rep.Num(" %10.0f", 0.0);
    rep.Num(" %12.0f", 0.0);
    rep.Num(" %14.0f", 0.0);
    rep.Num(" %12.2f", 0.0);
    rep.EndRow();
  }

  for (std::uint32_t every : {1u, 2u, 4u, 8u, 16u}) {
    SystemConfig run_cfg = cfg;
    run_cfg.replication.enabled = true;
    run_cfg.replication.ckpt_interval_epochs = every;
    ClusterSummaries r = RunCluster(run_cfg, wall, crash);
    const double tuple_bytes =
        static_cast<double>(r.master.tuples_sent) * 64.0;
    const double overhead =
        tuple_bytes > 0.0
            ? 100.0 * static_cast<double>(r.master.ckpt_bytes) / tuple_bytes
            : 0.0;
    rep.Num("%-10.0f", static_cast<double>(every));
    rep.Num(" %12.0f", tuple_bytes);
    rep.Num(" %12.0f", static_cast<double>(r.master.ckpt_bytes));
    rep.Num(" %12.2f", overhead);
    rep.Num(" %10.0f", static_cast<double>(r.master.ckpt_acks));
    rep.Num(" %12.0f", static_cast<double>(r.master.replayed_batches));
    rep.Num(" %14.0f", static_cast<double>(r.master.replayed_tuples));
    rep.Num(" %12.2f", static_cast<double>(r.master.recovery_us) / 1000.0);
    rep.EndRow();
    std::fflush(stdout);
  }
  return rep.Finish();
}
