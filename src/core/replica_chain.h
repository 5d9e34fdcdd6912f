// ReplicaChain: a buddy's replica of one partition-group (runner.h
// "Replication and failover", DESIGN.md "Fault model").
//
// The chain is the group's applied kCheckpoint segments in apply order: a
// full snapshot followed by incremental deltas, each covering the epochs
// (from, to]. A failover rebuilds the group from the segments strictly below
// the master's `replay_from`: it discards the unacknowledged tail, starts at
// the newest full snapshot left, follows the deltas until the first torn
// link, and keeps the records at or above the expiry watermark of the last
// segment it kept.
//
// Pruning keeps the chain about one window plus two sweeps long. Each
// segment carries the group's committed epoch: the master's ack watermark
// for this buddy when it commanded the segment (0 for a pending handover).
// The master's next `replay_from` for the group is always above it, so every
// segment at or below the committed epoch survives any rebuild's tail cut.
// On each apply the chain
//   1. drops the segments older than the newest full snapshot at or below the
//      committed epoch -- no rebuild can start before it;
//   2. from that snapshot on, drops the longest run of segments whose newest
//      record is older than the expiry watermark of the newest segment at or
//      below the committed epoch, as long as each dropped segment links
//      untorn to the delta after it, and relabels the first survivor as the
//      chain's base (a full snapshot).
// Expiry watermarks only rise along one owner's deltas, so every rebuild
// would filter the dropped records out anyway, and no tear is crossed: for
// every `replay_from` above the committed epoch the rebuild returns exactly
// what the unpruned chain would (tests/core/replica_chain_test.cpp keeps the
// unpruned rebuild as its model).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time.h"
#include "tuple/tuple.h"

namespace sjoin {

/// One applied replica segment (the payload of a kCheckpoint frame).
struct ReplicaSegment {
  std::uint64_t from = 0;  ///< previous covered epoch (0 for a full snapshot)
  std::uint64_t to = 0;    ///< epoch the segment covers through
  bool full = false;       ///< the chain's base: a whole-group snapshot
  Time expire_before = 0;  ///< the owner's expiry watermark at `to`
  std::vector<Rec> recs;
};

class ReplicaChain {
 public:
  /// Appends `seg` unless it does not cover a newer epoch than the newest
  /// applied segment (a duplicate or stale segment), then prunes against the
  /// largest committed epoch seen. Returns whether the segment was applied.
  bool Apply(ReplicaSegment seg, std::uint64_t committed_epoch);

  /// Rebuilds the group's records from the segments strictly below
  /// `replay_from` and empties the chain.
  std::vector<Rec> Rebuild(std::uint64_t replay_from);

  std::size_t Records() const { return records_; }
  std::size_t Segments() const { return chain_.size(); }
  /// Segments dropped by pruning since the chain was created.
  std::uint64_t Pruned() const { return pruned_; }

 private:
  struct Applied {
    ReplicaSegment seg;
    Time newest;  ///< newest record's ts (the Time minimum when empty)
  };

  void Prune();

  std::vector<Applied> chain_;
  std::uint64_t committed_ = 0;
  std::size_t records_ = 0;
  std::uint64_t pruned_ = 0;
};

}  // namespace sjoin
