// ReplicationLedger: the master's buddy-replication bookkeeping (runner.h
// "Replication and failover", DESIGN.md "Fault model"), one record per
// partition-group. It makes every buddy change of the PartitionMap, so the
// watermark reset and forced full snapshot that go with one cannot be
// forgotten, and it plans a dead slave's failover. Pure bookkeeping -- wire
// I/O, counters and trace events stay in the runner -- so a test can drive
// it alone.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/membership.h"
#include "core/partition_map.h"
#include "net/codec.h"

namespace sjoin {

class ReplicationLedger {
 public:
  /// The newest sweep's checkpoint command for a group.
  struct SweepEntry {
    std::uint64_t epoch = 0;
    SlaveIdx owner = 0;
    SlaveIdx buddy = 0;
  };

  struct Group {
    /// Distributed runs by ascending epoch, all above `committed`: the
    /// failover replay.
    std::deque<std::pair<std::uint64_t, std::vector<Rec>>> retained;
    /// The newest epoch the current buddy acked a checkpoint of.
    std::uint64_t committed = 0;
    bool need_full = true;  ///< the next checkpoint is a full snapshot
    bool touched = false;   ///< the group ever received a tuple
    /// Handover target: sweeps ship the group to it in full, while the
    /// map's buddy (and the old replica) stay authoritative until it acks.
    std::optional<SlaveIdx> pending;
    std::optional<SweepEntry> unacked;  ///< until the buddy named acks it
  };

  /// One group a failover moves, in planning order.
  struct Adoption {
    PartitionId pid = 0;
    SlaveIdx target = 0;
    std::uint64_t replay_from = 0;  ///< the group's committed epoch + 1
    bool degraded = false;  ///< the target was not the buddy: replica lost
  };

  /// A dead slave's failover (FailOver).
  struct Failover {
    /// The dead slave's own groups first, then the orphans.
    std::vector<Adoption> adoptions;
    std::size_t evacuated = 0;  ///< adoptions of the dead slave's own groups
    /// One command per target, by ascending target, entries in planning
    /// order: what the runner sends before it replays.
    std::map<SlaveIdx, FailoverCmdMsg> commands;
  };

  enum class AckVerdict {
    kIgnored,   ///< names no group of the ledger
    kStale,     ///< a replaced buddy, a dead sender, a duplicate: dropped
    kAccepted,  ///< the current buddy's watermark advanced
    kHandover,  ///< the pending buddy acked: it is the buddy now
  };

  /// `num_groups` records (0 with replication off) over `pmap`'s buddies.
  ReplicationLedger(std::uint32_t num_groups, PartitionMap& pmap,
                    const MembershipTable& members)
      : pmap_(pmap), members_(members), groups_(num_groups) {}

  const Group& Of(PartitionId pid) const { return groups_[pid]; }

  void Retain(PartitionId pid, std::uint64_t epoch, std::vector<Rec> run);

  /// Starts a checkpoint sweep: the previous sweep's entries are forgotten.
  void BeginSweep();

  /// One owner's sweep entries over its groups `pids`: to the pending buddy
  /// in full with committed 0 during a handover, else to the buddy with the
  /// watermark. Groups whose target is not an active member, or is the
  /// owner, are skipped. A touched group's entry is owed an ack.
  std::vector<CkptCmdMsg::Entry> SweepEntries(
      SlaveIdx owner, std::uint64_t epoch, std::span<const PartitionId> pids);

  /// Whether `buddy` owes an ack for a last-sweep entry of a live owner.
  bool OwesSweepAcks(SlaveIdx buddy) const;

  /// Settles the sweep entry the ack answers, then commits a handover to
  /// `src`, or advances the current buddy's watermark (AcceptCheckpointAck)
  /// and releases the retention it covers.
  AckVerdict Apply(SlaveIdx src, const CheckpointAckMsg& ack);

  /// Points the group at a buddy that holds nothing of it: the watermark
  /// resets, the next checkpoint is full, a pending handover is moot.
  void ChangeBuddy(PartitionId pid, SlaveIdx buddy);

  /// ChangeBuddy to the owner's successor on the member ring, if distinct.
  void ReRing(PartitionId pid, SlaveIdx owner);

  void BeginHandover(PartitionId pid, SlaveIdx buddy) {
    groups_[pid].pending = buddy;
  }
  void DissolveHandoversTo(SlaveIdx dead);

  /// After an owner change: the new owner's journal cannot continue the old
  /// one's segment chain.
  void ForceFull(PartitionId pid) { groups_[pid].need_full = true; }

  /// Plans and applies the failover of `dead` (already evicted from the
  /// membership table) onto the active members; none left plans nothing.
  /// Each of its groups goes where PlanEvacuation sends it (the buddy when
  /// it survives); each orphan -- a group whose move `dead` supplied before
  /// the consumer acked (MigrationTable::Cancel) -- goes to its buddy if
  /// active, else to the member owning the fewest groups. An adopted group
  /// replays from its committed epoch + 1 and re-rings from its new owner;
  /// a group that replicated to `dead` re-rings from its live owner.
  Failover FailOver(SlaveIdx dead, std::span<const PartitionId> orphans);

  /// A failover's replay: the adopted groups' runs from each `replay_from`
  /// on, merged per epoch in adoption order.
  std::map<std::uint64_t, std::vector<Rec>> ReplayBatches(
      std::span<const FailoverCmdMsg::Entry> adopted) const;

 private:
  PartitionMap& pmap_;
  const MembershipTable& members_;
  std::vector<Group> groups_;
};

}  // namespace sjoin
