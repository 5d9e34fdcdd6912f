// Serialization of a PartitionGroup's window state for migration between
// slaves (the paper's state mover sends the tuples of both stream windows
// plus "the splitting information ... to enable [the consumer to]
// reconstruct the fine-tuned partitions").
#pragma once

#include <memory>
#include <vector>

#include "common/config.h"
#include "common/serialize.h"
#include "window/partition_group.h"

namespace sjoin {

/// Encodes the full state of a group: the extendible-directory shape
/// (bucket patterns + local depths) followed by every sealed record. The
/// group must be flushed (no fresh records) before encoding.
void EncodeGroupState(Writer& w, const PartitionGroup& group);

/// Rebuilds a group from its encoded state. Throws DecodeError on a
/// truncated frame or on records out of temporal order.
std::unique_ptr<PartitionGroup> DecodeGroupState(Reader& r,
                                                 const JoinConfig& cfg,
                                                 std::size_t tuple_bytes);

/// Collects every sealed record of a (flushed) group in timestamp order --
/// the full-snapshot payload of the replication protocol. Unlike
/// EncodeGroupState this drops the directory shape: a replica rebuilt with
/// any shape joins identically (probes bound by exact timestamp windows),
/// and the buddy re-tunes from scratch after a failover anyway.
std::vector<Rec> CollectGroupRecords(const PartitionGroup& group);

/// Deterministic FNV-1a digest over a (flushed) group's sealed records in
/// timestamp order -- (ts, key, stream) per record, independent of the
/// directory shape for the same reason CollectGroupRecords drops it. Two
/// groups holding the same window contents digest identically regardless of
/// split/merge history; the record/replay divergence pinpointer
/// (core/replayer.h) compares these per partition-group at epoch
/// boundaries.
std::uint64_t DigestGroupRecords(const PartitionGroup& group);

/// Rebuilds a group purely from records (failover recovery path): the
/// records -- any concatenation of replica segments, in any order -- are
/// stable-sorted by timestamp and installed as sealed state into a fresh
/// directory. Per-mini-partition temporal order follows from the global
/// sort, so InstallSealed's invariant holds for every routing.
std::unique_ptr<PartitionGroup> BuildGroupFromRecords(std::vector<Rec> recs,
                                                      const JoinConfig& cfg,
                                                      std::size_t tuple_bytes);

}  // namespace sjoin
