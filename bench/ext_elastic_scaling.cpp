// Extension: elastic membership cost (ISSUE 7) -- what a runtime scale
// event costs, and how that cost scales with the partition-group count and
// the membership change rate.
//
// A wall-clock mini-cluster (master + 4 slaves + collector over
// InProcTransport) distributes a fixed trace while a scheduled membership
// plan admits and drains slaves mid-run. Two sweeps share one table:
//   * group count: one graceful leave at npart in {12, 24, 48} -- more
//     groups mean more drain migrations and replica handovers per
//     transition, so the drain latency and the epochs-to-steady-state
//     (master epochs with a transition in progress) grow;
//   * change rate: 1 / 2 / 4 alternating leave/join events at npart = 24 --
//     transition work accumulates linearly, the per-event cost stays flat
//     (transitions never overlap: one at a time by design).
// The drain chunk row shows the disruption/latency dial: a smaller
// drain_groups_per_epoch spreads the same moves over more epochs.
//
// `drain_ms` is the master-observed wall time inside transitions (handshake
// through farewell, summed); `memb_epochs` is deterministic for a scheduled
// plan and is the steady-state metric the chaos suite pins.
//
// Every scenario here is differentially safe by construction (the
// membership chaos suite asserts exactness and zero duplicate deliveries
// under these exact transitions); this bench only measures cost.
//
//   columns 1-3: npart, scheduled events, drain chunk
//   gnuplot: plot "..." using 1:7 (drain_ms) for the group-count sweep
//
// Wall-clock timings make this bench non-deterministic: its JSON report is
// marked deterministic=false, so bench_diff checks structure only.
//
// SJOIN_BENCH=quick shrinks the trace for smoke runs.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "common/config.h"
#include "core/runner.h"
#include "net/inproc_transport.h"

namespace {

using namespace sjoin;

/// Alternating leave/join plan on slave index 1, starting at epoch 4: each
/// leave fully drains before the matching re-join, `events` transitions in
/// total.
std::vector<MembershipEvent> AlternatingPlan(std::size_t events,
                                             std::uint64_t gap) {
  std::vector<MembershipEvent> plan;
  std::uint64_t epoch = 4;
  for (std::size_t i = 0; i < events; ++i, epoch += gap) {
    plan.push_back(MembershipEvent{epoch, /*join=*/(i % 2) == 1, 1});
  }
  return plan;
}

/// One full cluster run over in-process channels, one thread per rank.
MasterSummary RunCluster(const SystemConfig& cfg, const WallOptions& wall) {
  const Rank n = cfg.num_slaves;
  InProcHub hub(n + 2);
  std::vector<std::unique_ptr<Transport>> eps;
  std::vector<Transport*> nodes;
  for (Rank r = 0; r < n + 2; ++r) {
    eps.push_back(hub.Endpoint(r));
    nodes.push_back(eps.back().get());
  }
  return RunInProcessCluster(hub, nodes, cfg, wall).master;
}

}  // namespace

int main() {
  const bool quick = bench::QuickMode();
  const std::size_t tuples = quick ? 2400 : 8000;
  const Time span = (quick ? 300 : 900) * kUsPerMs;

  SystemConfig cfg;
  cfg.num_slaves = 4;
  cfg.join.window = 40 * kUsPerMs;
  cfg.epoch.t_dist = 5 * kUsPerMs;
  cfg.epoch.t_rep = 1000 * kUsPerSec;  // no reorgs: isolate transition cost
  cfg.workload.tuple_bytes = 64;
  cfg.replication.enabled = true;  // handovers are part of the cost
  cfg.replication.ckpt_interval_epochs = 4;
  cfg.cluster.elastic.enabled = true;

  WallOptions wall;
  wall.run_for = 60 * kUsPerSec;  // cap; the trace ends the run
  wall.recv_timeout_us = 250 * kUsPerMs;
  wall.recv_max_retries = 3;
  wall.master_obs = &bench::SharedObs();
  const std::vector<Rec> trace =
      bench::MakeTrace(0x7E1AULL, 7, tuples, span, 60);
  wall.input_trace = &trace;

  bench::Reporter rep("ext_elastic_scaling", "Ext elastic",
                      "membership transition cost vs group count, change "
                      "rate, and drain chunk",
                      "drain_moves and drain_ms grow with the group count "
                      "and the change rate; smaller chunks raise "
                      "memb_epochs, not total moves",
                      cfg);
  rep.Deterministic(false);  // wall-clock cluster: timings vary run to run
  std::printf("# trace: %zu tuples over %.3f s; transitions on slave idx 1 "
              "starting at epoch 4\n",
              tuples, UsToSeconds(span));
  std::printf("%-8s %8s %8s %12s %11s %12s %10s %12s\n", "npart", "events",
              "chunk", "drain_moves", "handovers", "memb_epochs", "drain_ms",
              "ms_per_event");
  rep.Columns({"npart", "events", "chunk", "drain_moves", "handovers",
               "memb_epochs", "drain_ms", "ms_per_event"});

  struct Case {
    std::uint32_t npart;
    std::size_t events;
    std::uint32_t chunk;
  };
  std::vector<Case> cases;
  // Group-count sweep: one graceful leave.
  for (std::uint32_t npart : {12u, 24u, 48u}) cases.push_back({npart, 1, 4});
  // Change-rate sweep at npart = 24.
  for (std::size_t events : {2u, 4u}) cases.push_back({24, events, 4});
  // Drain-chunk dial at npart = 24, one leave.
  for (std::uint32_t chunk : {1u, 8u}) cases.push_back({24, 1, chunk});

  for (const Case& c : cases) {
    SystemConfig run_cfg = cfg;
    run_cfg.join.num_partitions = c.npart;
    run_cfg.cluster.elastic.drain_groups_per_epoch = c.chunk;
    WallOptions run_wall = wall;
    // Leaves drain all of slave 1's groups; joins rebalance a share back.
    // The gap leaves room for the widest transition (48 groups / chunk 4).
    run_wall.membership = AlternatingPlan(c.events, /*gap=*/16);
    MasterSummary m = RunCluster(run_cfg, run_wall);
    const double drain_ms = static_cast<double>(m.membership_us) / 1000.0;
    const double per_event =
        c.events > 0 ? drain_ms / static_cast<double>(c.events) : 0.0;
    rep.Num("%-8.0f", static_cast<double>(c.npart));
    rep.Num(" %8.0f", static_cast<double>(c.events));
    rep.Num(" %8.0f", static_cast<double>(c.chunk));
    rep.Num(" %12.0f", static_cast<double>(m.drain_moves));
    rep.Num(" %11.0f", static_cast<double>(m.buddy_handovers));
    rep.Num(" %12.0f", static_cast<double>(m.membership_epochs));
    rep.Num(" %10.2f", drain_ms);
    rep.Num(" %12.2f", per_event);
    rep.EndRow();
    std::fflush(stdout);
  }
  return rep.Finish();
}
