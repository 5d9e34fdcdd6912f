// Worker-pool tests: the pool's barrier/reuse semantics, and the
// serial-vs-parallel equivalence of JoinModule's batch pass -- the sorted
// output set, the fold-stat counters, and the match set must not depend on
// the worker count; only the virtual-clock charge (critical path vs sum)
// may differ. These run under TSan in CI: the RunOnAll barrier plus the
// worker-disjoint lane/group state is the entire synchronization story.
#include "core/worker_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "join/join_module.h"
#include "join/reference_join.h"
#include "join/sink.h"

namespace sjoin {
namespace {

TEST(WorkerPoolTest, SingleWorkerRunsInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.WorkerCount(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on{};
  std::uint32_t ran_as = 99;
  pool.RunOnAll([&](std::uint32_t w) {
    ran_on = std::this_thread::get_id();
    ran_as = w;
  });
  EXPECT_EQ(ran_on, caller);  // no thread hop for the paper's 1-worker slave
  EXPECT_EQ(ran_as, 0u);
}

TEST(WorkerPoolTest, EveryWorkerRunsExactlyOnce) {
  WorkerPool pool(4);
  ASSERT_EQ(pool.WorkerCount(), 4u);
  std::vector<std::atomic<int>> hits(4);
  pool.RunOnAll([&](std::uint32_t w) { hits[w].fetch_add(1); });
  for (std::uint32_t w = 0; w < 4; ++w) {
    EXPECT_EQ(hits[w].load(), 1) << "worker " << w;
  }
}

TEST(WorkerPoolTest, CallerParticipatesAsWorkerZero) {
  WorkerPool pool(3);
  std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> zero_on_caller{false};
  pool.RunOnAll([&](std::uint32_t w) {
    if (w == 0) zero_on_caller = std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(zero_on_caller.load());
}

TEST(WorkerPoolTest, BarrierAndReuseAcrossManyRounds) {
  // RunOnAll is a full barrier: after it returns, every worker's write is
  // visible, so a plain counter may be read and the pool reused
  // immediately. 200 rounds also exercises the generation handshake.
  WorkerPool pool(4);
  std::vector<std::uint64_t> per_worker(4, 0);
  for (int round = 0; round < 200; ++round) {
    pool.RunOnAll([&](std::uint32_t w) { per_worker[w] += w + 1; });
  }
  for (std::uint32_t w = 0; w < 4; ++w) {
    EXPECT_EQ(per_worker[w], 200u * (w + 1));
  }
}

TEST(WorkerPoolTest, IdleDestructionDoesNotHang) {
  // Destroying a pool that never ran a job (and one that did) must wake the
  // sleeping workers through the stop flag and join them promptly.
  { WorkerPool pool(4); }
  {
    WorkerPool pool(4);
    pool.RunOnAll([](std::uint32_t) {});
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// JoinModule equivalence: the parallel pass must produce the same join.
// ---------------------------------------------------------------------------

SystemConfig PoolCfg() {
  SystemConfig cfg;
  cfg.workload.tuple_bytes = 32;
  cfg.join.block_bytes = 128;        // 4 records per block
  cfg.join.theta_bytes = 1024;
  cfg.join.window = 50 * kUsPerMs;
  cfg.join.num_partitions = 16;      // enough groups to shard across lanes
  return cfg;
}

/// Deterministic two-stream workload with dense matches.
std::vector<Rec> MakeRecs(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed, 7);
  std::vector<Rec> recs;
  Time ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ts += static_cast<Time>(rng.NextU64() % 50);
    recs.push_back(Rec{ts, rng.NextU64() % 64,
                       static_cast<StreamId>(rng.NextU64() % 2)});
  }
  return recs;
}

std::vector<JoinPair> SortedPairs(const CollectSink& sink) {
  std::vector<JoinPair> out;
  for (const JoinOutput& o : sink.Outputs()) {
    out.push_back(JoinPair{o.left.ts, o.right.ts, o.left.key});
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct PassResult {
  std::vector<JoinPair> pairs;
  std::uint64_t outputs = 0;
  std::uint64_t comparisons = 0;
  std::uint64_t processed = 0;
  Duration cost = 0;
};

/// Feeds `recs` in epoch-sized batches, fully draining after each batch
/// (the wall runner's schedule), under `workers`.
PassResult RunPass(const std::vector<Rec>& recs, std::uint32_t workers) {
  SystemConfig cfg = PoolCfg();
  cfg.slave.workers = workers;
  CollectSink sink;
  JoinModule jm(cfg, &sink);
  WorkerPool pool(workers);
  jm.SetWorkerPool(&pool);
  PassResult res;
  const std::size_t kBatch = 100;
  for (std::size_t i = 0; i < recs.size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, recs.size() - i);
    jm.EnqueueBatch(std::span<const Rec>(recs.data() + i, n));
    res.cost += jm.ProcessFor(static_cast<Time>(i) * 1000,
                              365LL * 24 * 3600 * kUsPerSec);
    EXPECT_EQ(jm.BufferedTuples(), 0u);  // unbounded budget: full drain
  }
  res.pairs = SortedPairs(sink);
  res.outputs = jm.Outputs();
  res.comparisons = jm.Comparisons();
  res.processed = jm.TuplesProcessed();
  return res;
}

TEST(WorkerPoolJoinTest, ParallelPassMatchesSerialExactly) {
  const std::vector<Rec> recs = MakeRecs(3000, 11);
  const PassResult serial = RunPass(recs, 1);
  ASSERT_GT(serial.pairs.size(), 100u);  // non-trivial workload
  for (std::uint32_t workers : {2u, 4u, 8u}) {
    const PassResult par = RunPass(recs, workers);
    EXPECT_EQ(par.pairs, serial.pairs) << "workers=" << workers;
    EXPECT_EQ(par.outputs, serial.outputs) << "workers=" << workers;
    EXPECT_EQ(par.comparisons, serial.comparisons) << "workers=" << workers;
    EXPECT_EQ(par.processed, serial.processed) << "workers=" << workers;
    // Critical-path accounting: the parallel pass never charges more
    // virtual time than the serial sum (merge cost is the only addition,
    // bounded by outputs * merge_ns).
    const Duration merge_bound =
        PoolCfg().cost.MergeCost(serial.outputs) + static_cast<Duration>(1);
    EXPECT_LE(par.cost, serial.cost + merge_bound) << "workers=" << workers;
  }
}

TEST(WorkerPoolJoinTest, BindingBudgetRequeuesLeftoversExactly) {
  // A budget of a few tuples per lane binds several times per batch, so
  // every call leaves leftovers the module must re-queue in arrival order.
  // Each batch is drained before the next arrives: every group's flushes
  // then fall on the same tuples whatever the budget or worker count, so
  // once drained the join must equal the serial run's exactly. The first
  // batch touches every partition, so the lanes create every group
  // themselves inside a bounded pass (first-touch creation runs under TSan
  // in CI).
  const std::vector<Rec> recs = MakeRecs(3000, 11);
  const SystemConfig base = PoolCfg();
  const Duration budget = 4 * base.cost.TupleFixedCost(1);
  const std::size_t first_batch = 600;
  std::set<PartitionId> first_pids;
  std::set<PartitionId> all_pids;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const PartitionId pid = PartitionOf(recs[i].key, base.join.num_partitions);
    if (i < first_batch) first_pids.insert(pid);
    all_pids.insert(pid);
  }
  ASSERT_EQ(first_pids, all_pids);

  auto run = [&](std::uint32_t workers) {
    SystemConfig cfg = base;
    cfg.slave.workers = workers;
    CollectSink sink;
    JoinModule jm(cfg, &sink);
    WorkerPool pool(workers);
    jm.SetWorkerPool(&pool);
    std::size_t enqueued = 0;
    std::size_t batches = 0;
    std::size_t calls = 0;
    Time now = 0;
    while (enqueued < recs.size()) {
      const std::size_t n =
          std::min(batches == 0 ? first_batch : std::size_t{100},
                   recs.size() - enqueued);
      jm.EnqueueBatch(std::span<const Rec>(recs.data() + enqueued, n));
      enqueued += n;
      ++batches;
      while (jm.BufferedTuples() > 0) {
        now += jm.ProcessFor(now, budget);
        ++calls;
        EXPECT_EQ(jm.TuplesProcessed() + jm.BufferedTuples(), enqueued);
      }
      if (batches == 1) {
        EXPECT_EQ(jm.Store().GroupCount(), all_pids.size());
      }
    }
    EXPECT_GE(calls, 3 * batches);  // the budget really binds
    PassResult res;
    res.pairs = SortedPairs(sink);
    res.outputs = jm.Outputs();
    res.comparisons = jm.Comparisons();
    res.processed = jm.TuplesProcessed();
    return res;
  };

  const PassResult serial = run(1);
  ASSERT_GT(serial.pairs.size(), 100u);
  ASSERT_EQ(serial.pairs, RunPass(recs, 1).pairs);  // budget-independent
  for (std::uint32_t workers : {2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const PassResult par = run(workers);
    EXPECT_EQ(par.pairs, serial.pairs);
    EXPECT_EQ(par.outputs, serial.outputs);
    EXPECT_EQ(par.comparisons, serial.comparisons);
    EXPECT_EQ(par.processed, serial.processed);
  }
}

TEST(WorkerPoolJoinTest, WorkerCostsAreAccounted) {
  const std::vector<Rec> recs = MakeRecs(2000, 23);
  SystemConfig cfg = PoolCfg();
  cfg.slave.workers = 4;
  CollectSink sink;
  JoinModule jm(cfg, &sink);
  WorkerPool pool(4);
  jm.SetWorkerPool(&pool);
  jm.EnqueueBatch(recs);
  const Duration critical =
      jm.ProcessFor(0, 365LL * 24 * 3600 * kUsPerSec);
  // The summed busy cost across workers is at least the critical path the
  // clock advanced by (equality only if one lane did all the work).
  EXPECT_GT(jm.WorkerBusyUs(), 0u);
  EXPECT_GE(jm.WorkerBusyUs() +
                static_cast<std::uint64_t>(cfg.cost.MergeCost(jm.Outputs())),
            static_cast<std::uint64_t>(critical));
}

}  // namespace
}  // namespace sjoin
