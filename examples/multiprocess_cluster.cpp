// The real shared-nothing deployment: master, slaves, and collector run as
// separate OS processes connected by AF_UNIX stream sockets, exchanging the
// actual protocol messages in wall-clock time. This is the "MPI-native,
// multi-process on one machine" configuration; pointing the transport at
// AF_INET sockets would spread the same binaries across hosts.
//
//   $ ./build/examples/multiprocess_cluster [num_slaves] [seconds] [inet]
//
// Passing "inet" as the third argument switches the mesh to AF_INET TCP
// connections over loopback (cfg.net.use_inet) -- the real network stack
// instead of AF_UNIX socketpairs.
//
// The cluster runs the full elastic membership loop over real processes:
// only part of the fleet starts as members, and the ElasticPolicy scales
// the member set out of the per-epoch occupancy reports (admitting forked
// standby processes mid-run) and back in when load permits -- with the
// per-group skew detector vetoing scale-in under key skew. Slave 1 is
// given an artificial per-tuple processing cost (the paper's non-dedicated
// node with background load), so the reorganization protocol also visibly
// migrates partition-groups away from it. The master prints the policy's
// decisions and the telemetry it acted on (occupancy, skew ratio).
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/runner.h"
#include "net/socket_transport.h"
#include "obs/obs.h"

int main(int argc, char** argv) {
  using namespace sjoin;

  // atoi yields 0 for a non-numeric argument, which is rejected too.
  const int slaves_arg = argc > 1 ? std::atoi(argv[1]) : 4;
  if (slaves_arg < 1) {
    std::fprintf(stderr, "usage: %s [num_slaves >= 1] [seconds] [inet]\n",
                 argv[0]);
    return 2;
  }
  const Rank num_slaves = static_cast<Rank>(slaves_arg);
  const double seconds = argc > 2 ? std::atof(argv[2]) : 8.0;

  SystemConfig cfg;
  cfg.num_slaves = num_slaves;
  cfg.join.window = 4 * kUsPerSec;
  cfg.join.num_partitions = 12;
  cfg.join.theta_bytes = 64 * 1024;
  cfg.epoch.t_dist = 250 * kUsPerMs;
  cfg.epoch.t_rep = kUsPerSec;
  cfg.workload.lambda = 2000.0;
  cfg.workload.key_domain = 10'000;
  cfg.balance.th_sup = 0.02;  // migrate eagerly in this short demo
  // Small report denominator so the handicapped slave's transient inbox
  // backlog (tens of tuples between batch arrivals) registers as real
  // occupancy -- with the default 1 MiB buffer the mean never leaves
  // ~0 and the idle streak, not the surge, drives every decision.
  cfg.balance.slave_buffer_bytes = 32 * 1024;
  cfg.net.use_inet = argc > 3 && std::strcmp(argv[3], "inet") == 0;

  // Elastic membership with the policy loop driving it: start with half
  // the fleet, let occupancy-surge proposals admit the forked standbys
  // (lowest-index standby first), and let a sustained idle streak retire
  // the newest member again. The thresholds are aggressive so a
  // several-second run shows decisions.
  cfg.initial_active_slaves = num_slaves > 1 ? (num_slaves + 1) / 2 : 1;
  cfg.cluster.elastic.enabled = true;
  cfg.cluster.elastic.policy = true;
  cfg.cluster.elastic.surge_occupancy = 0.015;
  cfg.cluster.elastic.surge_epochs = 2;
  // The idle streak must outlast any plausible surge ramp: occupancy
  // reports on a loaded box are noisy, and a shorter streak lets an early
  // lull retire a starting member before the surge ever admits a standby.
  cfg.cluster.elastic.idle_occupancy = 0.008;
  cfg.cluster.elastic.idle_epochs = 16;
  cfg.cluster.elastic.cooldown_epochs = 4;
  cfg.cluster.elastic.skew_scale_in_veto = 4.0;

  WallOptions opts;
  opts.run_for = SecondsToUs(seconds);
  // Slave 1 is "busy" elsewhere, so the reorganization protocol must
  // offload it. The cost is chosen to sit just under its arrival gap at
  // the half-fleet share: near-saturation keeps a standing inbox backlog
  // (the occupancy signal the surge proposal needs) without diverging --
  // a cost above the gap would grow the backlog without bound and the
  // post-shutdown drain would outlive the demo by minutes.
  opts.slave_spin_us_per_tuple.assign(num_slaves, 0);
  opts.slave_spin_us_per_tuple[0] = 800;

  const Rank ranks = num_slaves + 2;  // master + slaves + collector
  SocketMesh mesh(ranks, cfg.net.use_inet ? SocketDomain::kInet
                                          : SocketDomain::kUnix);

  std::printf("forking %u processes (1 master, %u slaves of which %u start "
              "as members, 1 collector) over %s, running %.1f s...\n",
              ranks, num_slaves, cfg.ActiveSlavesAtStart(),
              cfg.net.use_inet ? "loopback TCP" : "AF_UNIX", seconds);
  std::fflush(stdout);

  std::vector<pid_t> children;
  for (Rank r = 1; r < ranks; ++r) {
    pid_t pid = fork();
    if (pid == 0) {
      auto ep = mesh.TakeEndpoint(r);
      if (r == num_slaves + 1) {
        CollectorSummary sum = RunCollectorNode(*ep, cfg);
        std::printf("[collector] outputs=%llu avg_delay=%.3fs "
                    "max_delay=%.3fs reports=%u\n",
                    static_cast<unsigned long long>(sum.outputs),
                    sum.avg_delay_us / 1e6, sum.max_delay_us / 1e6,
                    sum.reports);
      } else {
        // A standby past ActiveSlavesAtStart() idles in this very call
        // until the policy's kJoinCmd admits it -- same binary, same code
        // path, the membership protocol decides when it starts joining.
        SlaveSummary sum = RunSlaveNode(*ep, cfg, opts);
        std::printf("[slave %u] processed=%llu outputs=%llu moved_out=%llu "
                    "moved_in=%llu%s\n",
                    r, static_cast<unsigned long long>(sum.tuples_processed),
                    static_cast<unsigned long long>(sum.outputs),
                    static_cast<unsigned long long>(sum.groups_moved_out),
                    static_cast<unsigned long long>(sum.groups_moved_in),
                    r == 1 ? " (handicapped)" : "");
      }
      std::fflush(stdout);
      _exit(0);
    }
    children.push_back(pid);
  }

  // Parent is the master; its obs bundle survives the run, so the policy's
  // inputs (the skew detector, the watermark) can be printed afterwards.
  obs::NodeObs master_obs;
  opts.master_obs = &master_obs;
  auto ep = mesh.TakeEndpoint(0);
  MasterSummary sum = RunMasterNode(*ep, cfg, opts);
  std::printf("[master] epochs=%llu tuples_sent=%llu migrations=%llu\n",
              static_cast<unsigned long long>(sum.epochs),
              static_cast<unsigned long long>(sum.tuples_sent),
              static_cast<unsigned long long>(sum.migrations));
  std::printf("[master] policy: scale_outs=%llu scale_ins=%llu joins=%llu "
              "leaves=%llu drain_moves=%llu membership_epochs=%llu\n",
              static_cast<unsigned long long>(sum.policy_scale_outs),
              static_cast<unsigned long long>(sum.policy_scale_ins),
              static_cast<unsigned long long>(sum.joins),
              static_cast<unsigned long long>(sum.leaves),
              static_cast<unsigned long long>(sum.drain_moves),
              static_cast<unsigned long long>(sum.membership_epochs));
  std::printf("[master] telemetry: group_skew_ratio=%.2f "
              "watermark_vt=%.3fs (veto threshold %.1f)\n",
              master_obs.registry.GaugeValue("group_skew_ratio"),
              master_obs.registry.GaugeValue("watermark_vt_us") / 1e6,
              cfg.cluster.elastic.skew_scale_in_veto);
  std::fflush(stdout);

  for (pid_t pid : children) {
    int status = 0;
    waitpid(pid, &status, 0);
  }
  return 0;
}
