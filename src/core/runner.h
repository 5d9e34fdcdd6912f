// Wall-clock node runners: the real deployment of the epoch protocol over a
// Transport (AF_UNIX sockets between forked processes, or in-process
// channels between threads for tests).
//
// Rank layout: 0 = master, 1..N = slaves, N+1 = collector.
//
// Protocol per distribution epoch (fixed, predefined order -- the paper's
// central communication constraint):
//   1. master -> slave_i : kTupleBatch (this epoch's tuples, serially);
//   2. slave_i -> master : kLoadReport (answered immediately by the slave's
//      comm module, independent of join backlog; carries the batch sequence
//      it answers so duplicates are discarded);
//   3. at reorganization epochs the master classifies the reports, then per
//      supplier/consumer pair: kMoveCmd -> supplier, kInstallCmd ->
//      consumer, supplier -> consumer kStateTransfer, both -> master kAck;
//      the master withholds the moving partition's tuples until both acks.
//      Every message of the sub-protocol carries the migration's move_seq,
//      so duplicated or stale copies are identified and ignored.
// Slaves push kResultStats deltas to the collector; kShutdown tears
// everything down (the master's copy to the collector names how many live
// slaves will still report).
//
// Fault tolerance (see DESIGN.md "Fault model"): the master never waits on
// a slave unboundedly. Every receive runs under `recv_timeout_us`; after
// `recv_max_retries` consecutive timeouts the slave is declared dead:
//   * it is excluded from all subsequent epochs and reorganizations;
//   * migrations it was party to are cancelled (withheld partitions are
//     released);
//   * its partition-groups are force-evacuated to the surviving slaves
//     (balancer PlanEvacuation); without replication their window state
//     died with the node, so joins spanning it are lost -- new tuples
//     re-grow state at the new owners.
// Master and collector death are out of scope (single coordinator, as in
// the paper).
//
// Replication and failover (cfg.replication.enabled): every partition-group
// gets a *buddy* slave holding a checkpointed replica (PartitionMap, ring
// successor by default; never the owner). Every `ckpt_interval_epochs`
// epochs the master sends each owner a kCkptCmd; the owner ships each listed
// group's state to its buddy as one kCheckpoint segment -- a full snapshot
// after any owner/buddy change, an incremental journal delta otherwise --
// and the buddy applies it atomically and acks to the master. The master's
// ReplicationLedger (core/replication_ledger.h) retains each group's runs
// per epoch until the covering checkpoint is acked, and makes every buddy
// change: the new buddy's ack watermark starts at 0 and its first segment
// is a full snapshot. Each command entry carries the group's committed epoch
// (the ledger's watermark); the owner copies it into the segment, and the
// buddy prunes its chain below it to about one window plus two sweeps
// (core/replica_chain.h). Before kShutdown the master waits, bounded, for
// the last sweep's acks: a slave stops reading on kShutdown, and a segment
// still in flight to it would block its sender. On a dead-slave verdict the
// groups fail over to their buddies (PlanEvacuation prefers them): each
// buddy rebuilds the group from its acked segments and the master
// redelivers the retained runs from the first unacked epoch onward as
// kReplayBatch frames, tagged with their original epochs. Together with the
// per-(group, epoch) output voiding rule (join/epoch_tag_sink.h) the
// cluster's output set is exactly the reference join output despite the
// crash. A group is never migrated to its own buddy (the replica would
// collide with the live state).
//
// The master (RunMasterNode) does the I/O: it sends, waits -- every wait
// bounded, every frame it receives dispatched by type -- and keeps the
// counters and the trace. Its rules live in units a test drives without a
// transport:
//   * MigrationTable (core/migration_table.h): the moves in flight, the
//     groups they withhold, whose ack each awaits, and the orphan rule;
//   * ReplicationLedger (core/replication_ledger.h): retention, ack
//     watermarks, sweep entries, buddy changes and handovers, and the plan
//     of a dead slave's failover;
//   * core/balancer.h: the reorganization, evacuation, admission, drain
//     and buddy-handover plans;
//   * core/membership.h: member states, the queue of membership
//     transitions with its skip rule, and the scaling policy.
// tests/core/master_protocol_test.cpp plays every peer of one master.
//
// Each slave runs the paper's two software components as two threads. The
// comm module blocks in Recv and does only what must not wait for the
// join: it decodes each kTupleBatch and answers its kLoadReport at once (so
// the decode overlaps the join), acks a kJoinCmd, and stops after
// kShutdown or a closure. Every frame, those included, passes to the join
// module through one FIFO queue exactly as received; a batch passes as its
// decoded records. The join module decodes every other frame where it
// handles it, one case per message type, in arrival order, so the sends
// that replay verification compares keep their order. Clock sync: the
// master opens each connection with kClockSync; the join module converts
// local time to master time with the learned offset so production delays
// are comparable.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/config.h"
#include "common/time.h"
#include "core/membership.h"
#include "join/sink.h"
#include "net/transport.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "tuple/tuple.h"

namespace sjoin {

class EpochTagSink;
class InProcHub;
class JoinModule;

struct WallOptions {
  /// Wall-clock duration of the run (master stops distributing after this).
  Duration run_for = 5 * kUsPerSec;

  /// Artificial per-tuple processing cost injected at each slave (busy
  /// wait), emulating the paper's non-dedicated nodes with background load;
  /// index = slave rank - 1. Empty = no spin.
  std::vector<Duration> slave_spin_us_per_tuple;

  /// Master-side timeout of one receive attempt while waiting on a slave.
  Duration recv_timeout_us = 1 * kUsPerSec;

  /// Consecutive timeouts on one slave before the dead-slave verdict; the
  /// worst-case wait per slave per epoch is recv_timeout_us * (retries + 1).
  std::uint32_t recv_max_retries = 4;

  /// When set, the master distributes this fixed, timestamp-ordered trace
  /// instead of drawing from the configured Poisson source, and runs until
  /// the trace is exhausted (`run_for` still caps the run). This makes the
  /// distributed tuple set -- and hence the cluster's join answer --
  /// deterministic, which the chaos harness checks against reference_join.
  const std::vector<Rec>* input_trace = nullptr;

  /// Optional extra per-slave sinks (index = rank - 1; nullptr entries ok):
  /// every join output is also delivered here. The chaos harness uses
  /// CollectSinks to materialize the cluster's exact output set.
  std::vector<JoinSink*> slave_extra_sinks;

  /// Optional per-slave epoch-tag sinks (index = rank - 1; nullptr entries
  /// ok). When set, the slave also fans outputs into the sink and keeps its
  /// epoch tag current: the batch ordinal before each kTupleBatch, the
  /// *original* epoch before each kReplayBatch. The chaos harness needs the
  /// tags to apply the failover output-voiding rule.
  std::vector<EpochTagSink*> slave_epoch_sinks;

  /// Scheduled membership transitions (cfg.cluster.elastic.enabled only):
  /// at the first epoch boundary >= event.epoch with no transition already
  /// in progress, the master admits or drains the named slave. Events are
  /// processed in schedule order; the policy loop (elastic.policy) appends
  /// its own proposals behind them. See DESIGN.md "Elastic membership".
  std::vector<MembershipEvent> membership;

  /// Observability bundles (obs/obs.h). The master records its protocol
  /// counters, per-epoch snapshots, trace spans, and the cluster-wide
  /// kMetrics view into `master_obs`; slave rank r uses `slave_obs[r - 1]`
  /// (nullptr entries ok). A node without a bundle runs against a private
  /// one -- instrumentation always executes, only the handles differ.
  /// Trace timestamps in wall mode are *logical*: epoch ordinal times
  /// cfg.epoch.t_dist, so same-seed runs produce byte-identical traces.
  obs::NodeObs* master_obs = nullptr;
  std::vector<obs::NodeObs*> slave_obs;

  /// Offline-replay inspection seam (core/replayer.h): invoked by
  /// RunSlaveNode after its work loop exits, while the JoinModule (and its
  /// window state) is still alive, with the number of distribution epochs
  /// the slave completed. Live runs leave it unset; the replayer uses it to
  /// dump window/checkpoint state and per-group digests at a breakpoint.
  std::function<void(Rank self, JoinModule& join, std::uint64_t epochs_done)>
      slave_inspect;
};

/// One group's failover, recorded for the output-voiding rule: outputs
/// tagged (pid, replay_from <= epoch <= replay_to) count only from
/// `target` -- the replay regenerates exactly those, and any copy another
/// rank produced before dying (or before being falsely evicted) is void.
/// The upper bound is the epoch of the verdict: no batch past it was ever
/// delivered to the dead (or falsely evicted) rank, so later epochs belong
/// to whoever owns the group then -- possibly a third rank, if an elastic
/// membership transition migrates the group off the failover target.
struct FailoverRecord {
  std::uint32_t pid = 0;
  Rank target = 0;  ///< slave rank (1-based) that adopted the group
  std::uint64_t replay_from = 0;  ///< first epoch redelivered to it
  std::uint64_t replay_to = 0;    ///< verdict epoch: last voidable epoch
};

struct MasterSummary {
  std::uint64_t tuples_sent = 0;
  std::uint64_t epochs = 0;
  std::uint64_t migrations = 0;
  std::uint32_t dead_slaves = 0;      ///< slaves evicted by the timeout verdict
  std::uint64_t groups_rehosted = 0;  ///< partitions force-evacuated off them

  // Replication / recovery (all zero with replication disabled).
  std::uint64_t ckpt_sweeps = 0;  ///< checkpoint commands issued (epochs)
  std::uint64_t ckpt_acks = 0;    ///< segments acknowledged by buddies
  std::uint64_t ckpt_bytes = 0;   ///< wire bytes of acknowledged segments
  std::uint64_t groups_failed_over = 0;   ///< groups adopted by a buddy
  std::uint64_t degraded_failovers = 0;   ///< buddy dead too: replica lost
  std::uint64_t replayed_batches = 0;     ///< retained epochs redelivered
  std::uint64_t replayed_tuples = 0;
  std::vector<FailoverRecord> failovers;  ///< for the output-voiding rule

  // Elastic membership (all zero with cfg.cluster.elastic disabled).
  std::uint64_t joins = 0;             ///< standbys admitted as members
  std::uint64_t leaves = 0;            ///< members gracefully retired
  std::uint64_t drain_moves = 0;       ///< groups migrated by transitions
  std::uint64_t buddy_handovers = 0;   ///< replicas re-homed via handover
  std::uint64_t handshake_retries = 0; ///< join/leave frames resent
  std::uint64_t stale_ckpt_acks = 0;   ///< checkpoint acks dropped by guard
  std::uint64_t policy_scale_outs = 0; ///< policy-proposed admissions
  std::uint64_t policy_scale_ins = 0;  ///< policy-proposed drains
  std::uint64_t membership_skipped = 0;  ///< invalid scheduled events

  /// Master-observed wall time spent inside membership transitions
  /// (handshake through farewell), summed. Wall-clock derived, like
  /// `recovery_us` (bench/ext_elastic_scaling reports it).
  Duration membership_us = 0;

  /// Epochs during which a membership transition was in progress
  /// (epochs-to-steady-state; deterministic for scheduled transitions).
  std::uint64_t membership_epochs = 0;

  /// Master-observed recovery time: dead-slave verdict through the last
  /// retained batch redelivered, summed over evictions. Wall-clock derived
  /// (bench/ext_recovery_overhead reports it; excluded from deterministic
  /// chaos summaries).
  Duration recovery_us = 0;

  /// Wall-clock stage profile of this node (obs/profiler.h): distribute,
  /// codec_encode, net_send, net_recv. Real elapsed time -- never part of
  /// deterministic exports.
  std::vector<obs::WallStageSummary> wall_stages;
};

struct SlaveSummary {
  std::uint64_t tuples_processed = 0;
  std::uint64_t outputs = 0;
  std::uint64_t groups_moved_out = 0;
  std::uint64_t groups_moved_in = 0;

  // Replication / recovery (all zero with replication disabled).
  std::uint64_t ckpt_segments_sent = 0;     ///< as owner, to buddies
  std::uint64_t ckpt_bytes_sent = 0;
  std::uint64_t ckpt_segments_applied = 0;  ///< as buddy, from owners
  std::uint64_t groups_adopted = 0;         ///< failed over to this slave
  std::uint64_t replayed_tuples = 0;        ///< redelivered and reprocessed
  /// Segments the chains a failover rebuilt had dropped below the committed
  /// watermark, counted at the adoption. It depends on when the master heard
  /// the acks, so no deterministic summary carries it.
  std::uint64_t adopted_segments_pruned = 0;

  /// Summed per-worker virtual cost of the intra-slave pool's batch passes
  /// (mirrors the stable `worker_busy_cost` registry counter; 0 with
  /// cfg.slave.workers == 1).
  std::uint64_t worker_busy_cost_us = 0;

  /// Wall-clock stage profile of this node (obs/profiler.h): probe_insert
  /// (plus per-worker probe_insert[wK] rows under a pool), codec_decode,
  /// ckpt_snapshot, ckpt_journal.
  std::vector<obs::WallStageSummary> wall_stages;
};

struct CollectorSummary {
  std::uint64_t outputs = 0;
  double avg_delay_us = 0.0;
  double max_delay_us = 0.0;
  std::uint32_t reports = 0;

  // Run summary relayed by the master's final kShutdown (printed by the
  // collector as the per-run observability line).
  std::uint32_t dead_slaves = 0;
  std::uint64_t groups_failed_over = 0;
  std::uint64_t ckpt_bytes = 0;
  std::uint64_t replayed_batches = 0;

  // Elastic membership mirror. The graceful-leave acceptance check keys on
  // these: joins/leaves count completed transitions, drain_moves the groups
  // migrated for them.
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t drain_moves = 0;
};

/// Runs the master node until `opts.run_for` elapses (or `opts.input_trace`
/// drains), then shuts the cluster down. `transport.Self()` must be 0.
MasterSummary RunMasterNode(Transport& transport, const SystemConfig& cfg,
                            const WallOptions& opts);

/// Runs one slave node until shutdown. `transport.Self()` in [1, N].
SlaveSummary RunSlaveNode(Transport& transport, const SystemConfig& cfg,
                          const WallOptions& opts);

/// Runs the collector until shutdown. `transport.Self()` must be N+1.
/// When `obs` is given, the collector records its registry and trace events
/// there, snapshots its registry into the recorder once at exit, and
/// finishes the slaves' stats_flow trace flows (sorted by logical send
/// time, so the export is deterministic under a seeded run).
CollectorSummary RunCollectorNode(Transport& transport, const SystemConfig& cfg,
                                  obs::NodeObs* obs = nullptr);

/// Every node's summary of one in-process cluster run.
struct ClusterSummaries {
  MasterSummary master;
  std::vector<SlaveSummary> slaves;  ///< index = rank - 1
  CollectorSummary collector;
};

/// Runs a whole cluster in this process over `nodes` (index = rank, N + 2
/// transports the caller built on `hub`, decorated as it likes): each slave
/// and the collector on a thread of its own, the master on the calling
/// thread. When the master returns, the collector is joined first (it exits
/// once every live slave delivered its shutdown), then `hub` is shut down,
/// which frees a slave still blocked in a receive (a hung one), then the
/// slaves are joined. `collector_obs` goes to RunCollectorNode.
ClusterSummaries RunInProcessCluster(InProcHub& hub,
                                     const std::vector<Transport*>& nodes,
                                     const SystemConfig& cfg,
                                     const WallOptions& opts,
                                     obs::NodeObs* collector_obs = nullptr);

}  // namespace sjoin
