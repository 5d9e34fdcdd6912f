// Typed payload codecs for the protocol messages (machine-independent wire
// format; see common/serialize.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/serialize.h"
#include "common/time.h"
#include "net/message.h"
#include "obs/cluster_view.h"
#include "tuple/tuple.h"

namespace sjoin {

/// master -> slave: the tuples of one distribution epoch. Stream membership
/// travels as an attribute of each tuple (the paper's "augmenting an extra
/// attribute, containing the stream ID" option; the punctuation-mark
/// alternative would change only this codec).
struct TupleBatchMsg {
  std::vector<Rec> recs;

  /// Serialized size; `tuple_bytes` is the configured wire tuple size.
  static std::size_t WireSize(std::size_t count, std::size_t tuple_bytes) {
    return 8 + count * tuple_bytes;
  }
};
void Encode(Writer& w, const TupleBatchMsg& m, std::size_t tuple_bytes);
/// Encodes the TupleBatchMsg whose `recs` are `runs` concatenated, without
/// gathering them first: the same bytes as Encode.
void EncodeTupleBatch(Writer& w, std::span<const std::span<const Rec>> runs,
                      std::size_t tuple_bytes);
TupleBatchMsg DecodeTupleBatch(Reader& r, std::size_t tuple_bytes);

/// slave -> master: load feedback for the reorganization protocol. `seq`
/// counts the kTupleBatch this report answers (1-based, per slave): the
/// master accepts only the report matching the batch it just sent, which
/// makes duplicated or stale reports harmless (idempotent protocol
/// hardening; see core/runner.h).
struct LoadReportMsg {
  double avg_buffer_occupancy = 0.0;  ///< mean of per-epoch occupancy samples
  std::uint64_t buffered_tuples = 0;
  std::uint64_t window_tuples = 0;
  std::uint64_t seq = 0;
};
void Encode(Writer& w, const LoadReportMsg& m);
LoadReportMsg DecodeLoadReport(Reader& r);

/// master -> supplier / consumer: one partition-group migration. `move_seq`
/// is a master-global migration counter echoed through kStateTransfer and
/// kAck, so every party can discard duplicated or stale copies of the
/// reorganization sub-protocol messages exactly.
struct MoveCmdMsg {
  std::uint32_t partition_id = 0;
  Rank peer = 0;  ///< consumer (in kMoveCmd) or supplier (in kInstallCmd)
  std::uint64_t move_seq = 0;
};
void Encode(Writer& w, const MoveCmdMsg& m);
MoveCmdMsg DecodeMoveCmd(Reader& r);

/// supplier -> consumer: serialized group state plus its pending tuples.
struct StateTransferMsg {
  std::uint32_t partition_id = 0;
  std::vector<std::uint8_t> group_state;  ///< window/state_codec payload
  std::vector<Rec> pending;
  std::uint64_t move_seq = 0;  ///< echo of the kMoveCmd that caused this
};
void Encode(Writer& w, const StateTransferMsg& m, std::size_t tuple_bytes);
StateTransferMsg DecodeStateTransfer(Reader& r, std::size_t tuple_bytes);

/// mover -> master.
struct AckMsg {
  std::uint32_t partition_id = 0;
  std::uint64_t move_seq = 0;  ///< echo of the migration being acknowledged
};
void Encode(Writer& w, const AckMsg& m);
AckMsg DecodeAck(Reader& r);

/// master -> slave: epoch clock synchronization (Algorithm 1, line 18).
struct ClockSyncMsg {
  Time master_now = 0;
  Time next_epoch_start = 0;
};
void Encode(Writer& w, const ClockSyncMsg& m);
ClockSyncMsg DecodeClockSync(Reader& r);

/// Length-prefixed record list: the wire form of a replica state delta
/// (window/state_codec collects/installs the records; this frames them).
void EncodeStateDelta(Writer& w, const std::vector<Rec>& recs,
                      std::size_t tuple_bytes);
std::vector<Rec> DecodeStateDelta(Reader& r, std::size_t tuple_bytes);

/// master -> owner: run a checkpoint sweep covering every batch up to and
/// including `covered_epoch`. One entry per partition-group the addressee
/// owns: the buddy rank to ship the delta to, whether a full snapshot is
/// required (first checkpoint for this (group, owner) pairing, or the buddy
/// changed -- an incremental delta would be meaningless to the new replica),
/// and the group's committed epoch, which the owner copies into the segment.
struct CkptCmdMsg {
  struct Entry {
    std::uint32_t partition_id = 0;
    Rank buddy = 0;     ///< replica holder (slave rank, 1-based)
    bool full = false;  ///< true: ship the whole group, not the journal
    /// The master's ack watermark for this buddy (0 for a pending handover
    /// buddy): no failover of the group replays from at or below it.
    std::uint64_t committed_epoch = 0;
  };
  std::uint64_t covered_epoch = 0;
  std::vector<Entry> entries;
};
void Encode(Writer& w, const CkptCmdMsg& m);
CkptCmdMsg DecodeCkptCmd(Reader& r);

/// owner -> buddy: one partition-group's replica segment. A full snapshot
/// (`full`) carries the group's entire sealed window state; an incremental
/// delta carries the records sealed since the previous checkpoint
/// (`from_epoch` .. `to_epoch`, contiguous per group). `expire_before` is
/// the group's expiry watermark: replica records older than it can never
/// match a future probe and may be pruned. `committed_epoch` is copied from
/// the command entry; the buddy prunes its chain below it
/// (core/replica_chain.h). Applied atomically by the buddy -- a crash
/// mid-sweep loses whole segments, never parts of one.
struct CheckpointMsg {
  std::uint32_t partition_id = 0;
  std::uint64_t from_epoch = 0;  ///< previous covered epoch (0 for full)
  std::uint64_t to_epoch = 0;    ///< epoch this segment covers through
  bool full = false;
  Time expire_before = 0;
  std::uint64_t committed_epoch = 0;
  std::vector<Rec> recs;
};
void Encode(Writer& w, const CheckpointMsg& m, std::size_t tuple_bytes);
CheckpointMsg DecodeCheckpoint(Reader& r, std::size_t tuple_bytes);

/// buddy -> master: the segment for (partition, covered epoch) is applied.
/// The master drops its retained tuple batches for the group up to the
/// covered epoch and accounts `bytes` as replication overhead.
struct CheckpointAckMsg {
  std::uint32_t partition_id = 0;
  std::uint64_t covered_epoch = 0;
  std::uint64_t bytes = 0;  ///< wire size of the applied segment
};
void Encode(Writer& w, const CheckpointAckMsg& m);
CheckpointAckMsg DecodeCheckpointAck(Reader& r);

/// master -> buddy: adopt the listed partition-groups of a dead slave.
/// `replay_from` is the first epoch not covered by an acknowledged
/// checkpoint: the buddy rebuilds each group from replica segments strictly
/// below it (discarding unacknowledged segments -- they are regenerated by
/// the replay) and the master redelivers the retained batches from
/// `replay_from` onward as kReplayBatch frames.
struct FailoverCmdMsg {
  struct Entry {
    std::uint32_t partition_id = 0;
    std::uint64_t replay_from = 0;
  };
  Rank dead = 0;  ///< the evicted slave rank (for logging/metrics)
  std::vector<Entry> entries;
};
void Encode(Writer& w, const FailoverCmdMsg& m);
FailoverCmdMsg DecodeFailoverCmd(Reader& r);

/// master -> buddy: retained tuples of one distribution epoch, redelivered
/// after a failover. The buddy processes them exactly like a tuple batch but
/// tags the produced outputs with the original epoch (so the collector-side
/// per-(group, epoch) watermarks deduplicate the replay overlap) and answers
/// no load report.
struct ReplayBatchMsg {
  std::uint64_t epoch = 0;  ///< the epoch the tuples were first distributed
  std::vector<Rec> recs;
};
void Encode(Writer& w, const ReplayBatchMsg& m, std::size_t tuple_bytes);
ReplayBatchMsg DecodeReplayBatch(Reader& r, std::size_t tuple_bytes);

/// slave -> master: a compact registry snapshot (counters, gauges, and
/// histogram buckets) for one distribution epoch. Sent fire-and-forget by the slave's *join thread*
/// after it fully drains the epoch's batch, stamped with the slave's own
/// epoch ordinal -- so the master's ClusterMetricsView is keyed by what the
/// values mean, not by when they happened to arrive. The master consumes
/// these opportunistically alongside acks; it never waits for one.
struct MetricsMsg {
  std::uint64_t epoch = 0;  ///< slave-local count of fully drained epochs
  std::vector<obs::MetricSample> samples;
};
void Encode(Writer& w, const MetricsMsg& m);
MetricsMsg DecodeMetrics(Reader& r);

/// slave -> collector: result aggregates of one reporting interval.
struct ResultStatsMsg {
  std::uint64_t outputs = 0;
  double delay_sum_us = 0.0;
  double delay_max_us = 0.0;
};
void Encode(Writer& w, const ResultStatsMsg& m);
ResultStatsMsg DecodeResultStats(Reader& r);

/// master -> standby: become a member. `admit_epoch` is the distribution
/// epoch whose batch will be the first the joiner receives; the joiner
/// resynchronizes its local epoch ordinal to `admit_epoch - 1` so its
/// checkpoint stamps keep equalling the global epoch of the last covered
/// batch. `num_partitions` echoes the cluster's partition count as a
/// configuration sanity check. Idempotent: a duplicated command re-acks.
struct JoinCmdMsg {
  std::uint64_t admit_epoch = 0;
  std::uint32_t num_partitions = 0;
};
void Encode(Writer& w, const JoinCmdMsg& m);
JoinCmdMsg DecodeJoinCmd(Reader& r);

/// standby -> master: admission acknowledged (echoes the epoch so stale
/// acks of an aborted earlier admission are identifiable).
struct JoinAckMsg {
  std::uint64_t admit_epoch = 0;
};
void Encode(Writer& w, const JoinAckMsg& m);
JoinAckMsg DecodeJoinAck(Reader& r);

/// master -> member: the drain is complete (the addressee owns no groups
/// and holds no committed replicas); return to standby. Idempotent.
struct LeaveCmdMsg {
  std::uint64_t epoch = 0;
};
void Encode(Writer& w, const LeaveCmdMsg& m);
LeaveCmdMsg DecodeLeaveCmd(Reader& r);

/// member -> master: farewell acknowledged (sent by the join thread, so it
/// orders after every previously queued move and checkpoint command).
struct LeaveAckMsg {
  std::uint64_t epoch = 0;
};
void Encode(Writer& w, const LeaveAckMsg& m);
LeaveAckMsg DecodeLeaveAck(Reader& r);

}  // namespace sjoin
