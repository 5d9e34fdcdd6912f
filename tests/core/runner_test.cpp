// Integration tests of the wall-clock node runners: the full protocol
// (clock sync, batched distribution, load reports, migration, shutdown)
// running as real concurrent nodes over the in-process transport, and one
// replicated cluster forked into processes over AF_UNIX sockets (the
// deployment examples/multiprocess_cluster runs).
#include "core/runner.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <thread>

#include "net/inproc_transport.h"
#include "net/socket_transport.h"

namespace sjoin {
namespace {

SystemConfig WallCfg(std::uint32_t slaves) {
  SystemConfig cfg;
  cfg.num_slaves = slaves;
  cfg.join.window = kUsPerSec;
  cfg.join.num_partitions = 8;
  cfg.join.theta_bytes = 64 * 1024;
  cfg.epoch.t_dist = 50 * kUsPerMs;   // 50 ms epochs: a fast real-time run
  cfg.epoch.t_rep = 200 * kUsPerMs;
  cfg.workload.lambda = 800.0;
  cfg.workload.key_domain = 2000;
  cfg.workload.seed = 99;
  return cfg;
}

ClusterSummaries RunCluster(const SystemConfig& cfg, const WallOptions& opts) {
  const Rank ranks = cfg.num_slaves + 2;
  InProcHub hub(ranks);
  std::vector<std::unique_ptr<InProcEndpoint>> eps;
  std::vector<Transport*> nodes;
  for (Rank r = 0; r < ranks; ++r) {
    eps.push_back(hub.Endpoint(r));
    nodes.push_back(eps.back().get());
  }
  return RunInProcessCluster(hub, nodes, cfg, opts);
}

TEST(RunnerTest, EndToEndProducesResults) {
  SystemConfig cfg = WallCfg(2);
  WallOptions opts;
  opts.run_for = 1500 * kUsPerMs;
  ClusterSummaries r = RunCluster(cfg, opts);

  EXPECT_GT(r.master.epochs, 20u);
  EXPECT_GT(r.master.tuples_sent, 1000u);
  std::uint64_t processed = 0;
  for (const SlaveSummary& s : r.slaves) processed += s.tuples_processed;
  EXPECT_EQ(processed, r.master.tuples_sent);
  EXPECT_GT(r.collector.outputs, 0u);
  // Collector aggregates exactly what the slaves produced.
  std::uint64_t slave_outputs = 0;
  for (const SlaveSummary& s : r.slaves) slave_outputs += s.outputs;
  EXPECT_EQ(r.collector.outputs, slave_outputs);
  // Real-time delays: positive, bounded by a few epochs in underload.
  EXPECT_GT(r.collector.avg_delay_us, 0.0);
  EXPECT_LT(r.collector.avg_delay_us, 1e6);
}

TEST(RunnerTest, MigrationMovesLoadAwayFromBusyNode) {
  SystemConfig cfg = WallCfg(2);
  cfg.balance.th_sup = 0.005;  // tiny buffer threshold: migrate readily
  cfg.balance.th_con = 0.004;
  WallOptions opts;
  opts.run_for = 2000 * kUsPerMs;
  // Slave 1 pays 2 ms of fake background work per tuple; its share of the
  // ~1600 t/s combined arrivals is ~800 t/s (1.25 ms gaps), so it cannot
  // keep up and must become a supplier.
  opts.slave_spin_us_per_tuple = {2000, 0};
  ClusterSummaries r = RunCluster(cfg, opts);

  EXPECT_GT(r.master.migrations, 0u);
  EXPECT_GT(r.slaves[0].groups_moved_out, 0u);
  EXPECT_EQ(r.slaves[1].groups_moved_in, r.slaves[0].groups_moved_out);
}

TEST(RunnerTest, SingleSlaveCluster) {
  SystemConfig cfg = WallCfg(1);
  WallOptions opts;
  opts.run_for = 800 * kUsPerMs;
  ClusterSummaries r = RunCluster(cfg, opts);
  EXPECT_GT(r.collector.outputs, 0u);
  EXPECT_EQ(r.master.migrations, 0u);  // nowhere to move
}

// A replicated cluster, one process per rank over AF_UNIX sockets, whose
// last epoch is a checkpoint sweep with segments several times a socket's
// send buffer. A slave's comm thread stops reading on kShutdown, so a
// segment still in flight to it would block its sender for good, and with
// it the sender's shutdown and the collector's. The master drains the
// sweep's acks first; every process must exit on its own well within the
// deadline, after which the test kills what is left and fails.
TEST(RunnerTest, ForkedReplicatedClusterExitsAfterALargeLastSweep) {
  SystemConfig cfg;
  cfg.num_slaves = 2;
  cfg.join.window = 10 * kUsPerSec;   // the whole run stays in the window
  cfg.join.num_partitions = 2;        // one big group per owner
  cfg.join.block_bytes = 64 * 1024;
  cfg.workload.tuple_bytes = 1024;
  cfg.epoch.t_dist = 20 * kUsPerMs;
  cfg.epoch.t_rep = 10 * kUsPerSec;   // no reorganization
  cfg.replication.enabled = true;
  cfg.replication.ckpt_interval_epochs = 5;

  // 4000 tuples over exactly 10 epochs: epoch 10 is the last and a sweep,
  // and each group's delta (5, 10] carries ~1000 records, ~1 MB on the wire.
  constexpr int kEpochs = 10;
  constexpr int kTuples = 4000;
  std::vector<Rec> trace;
  for (int i = 1; i <= kTuples; ++i) {
    trace.push_back(Rec{static_cast<Time>(i) * kEpochs * cfg.epoch.t_dist /
                            kTuples,
                        static_cast<std::uint64_t>((i / 2 * 7919) % 500),
                        static_cast<StreamId>(i % 2)});
  }
  WallOptions opts;
  opts.run_for = 10 * kUsPerSec;
  opts.input_trace = &trace;

  const Rank ranks = cfg.num_slaves + 2;
  SocketMesh mesh(ranks);
  std::vector<pid_t> children;
  for (Rank r = 0; r < ranks; ++r) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      auto ep = mesh.TakeEndpoint(r);
      bool ok = false;
      if (r == 0) {
        const MasterSummary sum = RunMasterNode(*ep, cfg, opts);
        ok = sum.epochs == static_cast<std::uint64_t>(kEpochs) &&
             sum.dead_slaves == 0 &&
             sum.ckpt_acks > 0;
      } else if (r == ranks - 1) {
        ok = RunCollectorNode(*ep, cfg).outputs > 0;
      } else {
        ok = RunSlaveNode(*ep, cfg, opts).ckpt_segments_applied > 0;
      }
      _exit(ok ? 0 : 1);
    }
    children.push_back(pid);
  }
  mesh.CloseAll();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::vector<int> status(children.size(), -1);
  std::size_t running = children.size();
  while (running > 0 && std::chrono::steady_clock::now() < deadline) {
    for (std::size_t i = 0; i < children.size(); ++i) {
      if (status[i] != -1) continue;
      int st = 0;
      if (waitpid(children[i], &st, WNOHANG) == children[i]) {
        status[i] = st;
        --running;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::size_t i = 0; i < children.size(); ++i) {
    if (status[i] != -1) continue;
    kill(children[i], SIGKILL);
    waitpid(children[i], nullptr, 0);
  }
  for (std::size_t i = 0; i < children.size(); ++i) {
    EXPECT_NE(status[i], -1) << "rank " << i << " still ran at the deadline";
    if (status[i] != -1) {
      EXPECT_TRUE(WIFEXITED(status[i]) && WEXITSTATUS(status[i]) == 0)
          << "rank " << i << " status " << status[i];
    }
  }
}

}  // namespace
}  // namespace sjoin
