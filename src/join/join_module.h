// JoinModule: the per-slave join processor (paper section IV-D).
//
// Pipeline per processed tuple:
//   1. charge the fixed per-tuple cost and route by hash to the owned
//      partition-group, then (fine tuning) to the mini-partition-group;
//   2. append to the head block of its stream's mini-partition as fresh;
//   3. when the head block fills -- or the input buffer drains -- run the
//      batch join pass: fresh tuples of each stream probe the *sealed*
//      records of the opposite stream (the paper's duplicate-elimination
//      rule) and are sealed, then expired blocks leave the window, and the
//      partition-tuning invariant is re-checked. The paper's completeness
//      rule -- an expiring block joins the opposite side's fresh tuples on
//      its way out -- holds by construction: both streams probe and seal
//      before any block expires, so no fresh tuple is left to join.
//
// All work is charged to a virtual work clock through the CostModel; the
// block-nested-loop comparison count is exact (fresh x opposite-sealed per
// batch) while match discovery itself uses the per-key index (see
// window/mini_partition.h).
//
// Intra-slave parallelism (extension; DESIGN.md "Intra-slave multicore
// execution"): with a WorkerPool of k > 1 attached, ProcessFor shards the
// slave's partition-groups across workers through a fixed pid -> lane table
// (each group is owned by exactly one lane, so the hot path takes no locks).
// Every lane scans the input buffer in place, processes the tuples of its
// own pids in arrival order (creating their groups on first use), and
// stages its match emissions per pid. The join thread then emits pids
// 0 .. P-1, each from the lane that owns it, in deterministic (group-id,
// seq) order; only this sink emission stays serial, and the produced output
// set is identical for any worker count. The virtual clock advances by the
// critical path max(worker costs) + merge cost. Without a pool (or with
// k == 1) the original serial path runs unchanged.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/config.h"
#include "join/sink.h"
#include "window/state_codec.h"
#include "window/window_store.h"

namespace sjoin::obs {
class Counter;
class HistogramMetric;
class MetricsRegistry;
}  // namespace sjoin::obs

namespace sjoin {

class WorkerPool;

/// The master's stream-partitioning hash: partition id of a join key.
inline PartitionId PartitionOf(std::uint64_t key, std::uint32_t num_partitions) {
  return static_cast<PartitionId>(Mix64(key) % num_partitions);
}

class JoinModule {
 public:
  /// `sink` must outlive the module.
  JoinModule(const SystemConfig& cfg, JoinSink* sink);

  /// Attaches node-level observability counters (`group_splits`,
  /// `group_merges`, `join_tuning_moves`) to this module and to every
  /// partition-group it owns now or acquires later (creation, migration,
  /// failover rebuild). Call once at node setup; `reg` must outlive the
  /// module. nullptr detaches nothing and is a no-op.
  void AttachMetrics(obs::MetricsRegistry* reg);

  /// Attaches the intra-slave worker pool driving the parallel batch pass.
  /// The pool must outlive the module; nullptr (default) or a 1-worker pool
  /// keeps the serial path. Call at node setup, before processing starts.
  /// With k > 1 and metrics attached, a stable `worker_busy_cost` counter
  /// (summed per-worker virtual cost, us) and per-worker kWall histograms
  /// `wall_stage_us{stage=probe_insert,worker=k}` are registered.
  void SetWorkerPool(WorkerPool* pool);

  // -- Ingest ---------------------------------------------------------------

  /// Appends a received batch to the stream buffer (arrival order).
  void EnqueueBatch(std::span<const Rec> recs);

  std::size_t BufferedTuples() const { return buffer_.size(); }
  std::size_t BufferedBytes() const {
    return buffer_.size() * tuple_bytes_;
  }

  // -- Processing -----------------------------------------------------------

  /// Processes buffered tuples, charging virtual time from `from`, until the
  /// buffer drains or the consumed cost reaches `budget` (the final tuple may
  /// overshoot). When the buffer drains, partial head blocks are flushed so
  /// no tuple waits indefinitely for its block to fill. Returns the cost
  /// actually consumed -- with a worker pool attached, the critical-path
  /// max over the per-worker costs plus the staged-emission merge cost, each
  /// worker individually honoring `budget`.
  Duration ProcessFor(Time from, Duration budget);

  // -- Migration ------------------------------------------------------------

  /// Supplier side: flushes the group's pending fresh tuples, detaches its
  /// window state, and extracts this group's still-buffered tuples into
  /// `pending_out` (they travel with the state and are re-enqueued at the
  /// consumer). Returns the group and the CPU cost of the extraction.
  std::unique_ptr<PartitionGroup> ExtractGroup(PartitionId pid, Time from,
                                               Duration& cost,
                                               std::vector<Rec>& pending_out);

  /// Consumer side: installs a migrated group.
  void InstallGroup(PartitionId pid, std::unique_ptr<PartitionGroup> group);

  // -- Checkpoint journal -----------------------------------------------------

  /// Starts journaling, per partition-group, every record that enters sealed
  /// window state (the incremental-checkpoint payload of the replication
  /// protocol). Off by default -- replication pays for its own bookkeeping.
  void EnableCheckpointJournal() { journal_enabled_ = true; }

  /// Returns and clears the records sealed into `pid` since the last take
  /// (or since journaling began). The journal may include records that have
  /// already expired again -- the replica holds a harmless superset, pruned
  /// by the expiry watermark travelling with each checkpoint.
  std::vector<Rec> TakeJournal(PartitionId pid);

  // -- Introspection ----------------------------------------------------------

  WindowStore& Store() { return store_; }
  const WindowStore& Store() const { return store_; }

  /// Deterministic snapshot of one owned partition-group's window state:
  /// shape-independent content digest (window/state_codec.h
  /// DigestGroupRecords) plus counts for human-readable state dumps.
  struct GroupDigest {
    PartitionId pid = 0;
    std::uint64_t digest = 0;      ///< FNV-1a over sorted (ts, key, stream)
    std::uint64_t records = 0;     ///< sealed records across both streams
    std::uint64_t bytes = 0;       ///< wire bytes of those records
    std::uint32_t mini_groups = 0; ///< fine-tuning mini-partition-groups
    std::uint64_t journal = 0;     ///< untaken checkpoint-journal records
  };

  /// Digests every owned group, sorted by pid. Requires the groups flushed
  /// (no fresh records) -- true at every epoch boundary after ProcessFor
  /// drained the buffer, which is where the replayer calls it.
  std::vector<GroupDigest> DigestGroups() const;

  std::uint64_t Comparisons() const { return comparisons_; }
  std::uint64_t Outputs() const { return outputs_; }
  std::uint64_t TuplesProcessed() const { return processed_; }
  std::uint64_t Splits() const;
  std::uint64_t Merges() const;

  /// Total virtual cost accumulated by pool workers across all parallel
  /// batch passes (sum over workers, not the critical path). 0 on the
  /// serial path.
  std::uint64_t WorkerBusyUs() const { return worker_busy_us_; }

 private:
  /// Reusable buffers of the batched probe (MiniPartition::ProbeSealedBatch):
  /// one fresh block's probes and the walk's match buffers. One per lane and
  /// one for the serial path, so they do not grow with the group count.
  struct ProbeScratch {
    std::vector<MiniPartition::SealedProbe> probes;
    MiniPartition::BatchScratch batch;
  };

  /// Mutable state of one (possibly worker-local) batch-join pass: where
  /// matches go and what the pass tallied. Serial passes fold the tallies
  /// into the module totals when the public call returns; parallel passes
  /// fold after the barrier, keeping the hot path free of shared writes.
  struct PassCtx {
    JoinSink* sink = nullptr;
    ProbeScratch* scratch = nullptr;
    std::uint64_t comparisons = 0;
    std::uint64_t outputs = 0;
    std::uint64_t processed = 0;
  };

  /// Per-worker staging of match emissions, filed per partition id. The
  /// probe scratch is reused by the next probe, so partner timestamps are
  /// copied into a reusable flat arena at emission time. Entry order within
  /// a pid is the lane's emission order for that group -- the `seq` of the
  /// (group-id, seq) merge key, since a group belongs to exactly one lane.
  class StagingSink final : public JoinSink {
   public:
    void Resize(std::uint32_t num_partitions) {
      by_pid_.resize(num_partitions);
    }
    void SetPartition(PartitionId pid) { pid_ = pid; }

    void OnMatches(const Rec& probe, std::span<const Time> partner_ts,
                   Time produced_at) override {
      by_pid_[pid_].push_back(
          Entry{probe, produced_at, arena_.size(), partner_ts.size()});
      arena_.insert(arena_.end(), partner_ts.begin(), partner_ts.end());
    }

    /// Emits `pid`'s staged entries into `sink` in staging order and drops
    /// them. Returns the number of outputs emitted.
    std::uint64_t Drain(PartitionId pid, JoinSink& sink) {
      std::uint64_t outputs = 0;
      for (const Entry& e : by_pid_[pid]) {
        outputs += e.count;
        sink.OnMatches(e.probe, {arena_.data() + e.offset, e.count},
                       e.produced_at);
      }
      by_pid_[pid].clear();
      return outputs;
    }
    /// Call once every pid has been drained.
    void ClearArena() { arena_.clear(); }

   private:
    struct Entry {
      Rec probe;
      Time produced_at = 0;
      std::size_t offset = 0;  ///< into arena_
      std::size_t count = 0;
    };

    PartitionId pid_ = 0;
    std::vector<std::vector<Entry>> by_pid_;
    std::vector<Time> arena_;
  };

  /// One worker's share of the parallel pass and everything it mutates.
  struct WorkerLane {
    std::vector<PartitionId> pids;  ///< owned partitions, ascending
    StagingSink staging;
    ProbeScratch scratch;
    PassCtx stats;
    Duration used = 0;
    std::size_t stop = 0;  ///< buffer index of its first unprocessed tuple
  };

  /// The original single-threaded pass (bit-identical to the pre-pool code).
  Duration ProcessSerial(Time from, Duration budget);

  /// The pooled pass: lanes route and join, then the per-pid merge (see
  /// file comment).
  Duration ProcessParallel(Time from, Duration budget);

  /// Body of lane `w` of the parallel pass.
  void RunLane(std::uint32_t w);

  /// Runs the batch join pass on one mini-group (probe fresh of each stream
  /// against the opposite sealed records, seal, expire, re-tune). Returns the
  /// charged cost; `work_start` stamps the produced outputs. Re-entrant:
  /// touches only `group`, `mg`, and `ctx` (plus atomic obs counters), so
  /// concurrent calls on distinct groups with distinct scratches are safe.
  Duration FlushMiniGroup(PartitionGroup& group, MiniGroup& mg,
                          Time work_start, PassCtx& ctx);

  /// Flushes every mini-group of `group` that still holds fresh records.
  Duration FlushGroupPartials(PartitionGroup& group, Time from, PassCtx& ctx);

  /// Flushes every owned group's partials (buffer drain, serial path).
  Duration FlushAllPartials(Time from, PassCtx& ctx);

  /// Adds a finished pass's tallies to the module totals.
  void FoldStats(const PassCtx& ctx);

  /// Shard rule: the worker owning `pid`. Decorrelated from PartitionOf
  /// (partition ids land on a slave in arithmetic patterns; taking
  /// pid % workers could collapse a slave's groups onto few workers).
  static std::uint32_t WorkerOf(PartitionId pid, std::uint32_t workers) {
    return static_cast<std::uint32_t>(
        Mix64(static_cast<std::uint64_t>(pid) ^ 0xA24BAED4963EE407ULL) %
        workers);
  }

  /// Registers worker_busy_cost + per-worker wall histograms once both the
  /// registry and a multi-worker pool are attached (keeps the workers=1
  /// registry byte-identical to the pre-pool one).
  void EnsureWorkerObs();

  JoinConfig join_cfg_;
  CostModel cost_;
  std::size_t tuple_bytes_;
  std::uint32_t num_partitions_;
  Duration window_;
  JoinSink* sink_;

  WindowStore store_;
  std::deque<Rec> buffer_;
  ProbeScratch serial_scratch_;  ///< the serial path's and migrations'

  std::uint64_t comparisons_ = 0;
  std::uint64_t outputs_ = 0;
  std::uint64_t processed_ = 0;
  obs::Counter* obs_tuning_ = nullptr;
  obs::HistogramMetric* wall_probe_insert_ = nullptr;  ///< probe/insert stage
  obs::MetricsRegistry* reg_ = nullptr;

  bool journal_enabled_ = false;

  WorkerPool* pool_ = nullptr;
  std::vector<WorkerLane> lanes_;
  std::vector<std::uint32_t> lane_of_;  ///< pid -> owning lane (WorkerOf)

  // Parallel-pass plumbing, hoisted out of the per-batch hot path: the pass
  // job closure is built once in SetWorkerPool (RunOnAll takes it by
  // reference, so a per-batch lambda would heap-allocate its captures every
  // batch), with the per-pass parameters passed through these members --
  // written before RunOnAll, published to workers by the pool's start
  // barrier.
  std::function<void(std::uint32_t)> pass_job_;
  Time pass_from_ = 0;
  Duration pass_budget_ = 0;

  std::uint64_t worker_busy_us_ = 0;
  obs::Counter* c_worker_busy_ = nullptr;
  std::vector<obs::HistogramMetric*> wall_workers_;
};

}  // namespace sjoin
