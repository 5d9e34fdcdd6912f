// Elastic cluster membership: the master-side bookkeeping and the scaling
// policy behind runtime slave join/leave (DESIGN.md "Elastic membership").
//
// The wall-clock master distinguishes three node states per slave rank:
//   * member  -- receives tuple batches, owns partition-groups, holds
//                replicas; what the fixed-set protocol calls "a slave";
//   * standby -- alive but idle: admitted later by the kJoinCmd handshake,
//                or returned here by a graceful leave (it may rejoin);
//   * dead    -- evicted by the timeout verdict; never comes back.
// With elastic membership disabled every alive slave is a member, which
// degenerates to the original fixed-set behavior.
//
// Everything here is pure, deterministic bookkeeping -- all I/O and timing
// stays in the runner -- so the state machines are unit-testable and the
// same decisions replay identically across same-seed runs.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/config.h"
#include "core/partition_map.h"

namespace sjoin {

/// Master-side membership table. Idempotent transitions: a second eviction
/// of the same rank (a racing verdict) reports `false` instead of
/// re-entering eviction, and Admit/Retire on a node already in the target
/// state are no-ops.
class MembershipTable {
 public:
  /// `n` slave ranks total; ranks [0, initial_members) start as members,
  /// the rest as standbys.
  MembershipTable(std::uint32_t n, std::uint32_t initial_members);

  bool Alive(SlaveIdx s) const { return alive_[s]; }
  bool Member(SlaveIdx s) const { return member_[s]; }

  /// Alive member: the only state that receives batches / owns groups.
  bool Active(SlaveIdx s) const { return alive_[s] && member_[s]; }

  std::uint32_t LiveCount() const;
  std::uint32_t MemberCount() const;  ///< alive members

  /// Alive members, ascending.
  std::vector<SlaveIdx> Members() const;

  /// Alive non-members, ascending (the admission candidates).
  std::vector<SlaveIdx> Standbys() const;

  /// standby -> member (no-op if already a member or dead).
  void Admit(SlaveIdx s);

  /// member -> standby after a graceful drain (no-op if already standby).
  void Retire(SlaveIdx s);

  /// Dead-slave verdict at `epoch`. Returns true when this call performed
  /// the eviction; false when `s` was already dead -- the caller must not
  /// re-run eviction side effects (satellite: a failover racing a late
  /// checkpoint ack from the evicted slave observes exactly this).
  bool Evict(SlaveIdx s, std::uint64_t epoch);

  /// Epoch of the eviction verdict; 0 while alive.
  std::uint64_t EvictedAt(SlaveIdx s) const { return evicted_at_[s]; }

  /// The skip rule of membership events: a join needs an alive standby, a
  /// leave an active member that is not the last one.
  bool CanStart(const MembershipEvent& ev) const;

 private:
  std::vector<bool> alive_;
  std::vector<bool> member_;
  std::vector<std::uint64_t> evicted_at_;
};

/// The master's queue of membership transitions waiting to start: the
/// schedule, ordered by epoch (stably, so same-epoch events keep their
/// order), then the policy's proposals in the order they came.
class MembershipQueue {
 public:
  explicit MembershipQueue(std::vector<MembershipEvent> schedule);

  void Propose(const MembershipEvent& ev) { proposals_.push_back(ev); }
  bool HasProposal() const { return !proposals_.empty(); }

  /// Takes the next event to start at `epoch`: the first scheduled one if
  /// it is due, else the oldest proposal; nullopt when neither is there.
  std::optional<MembershipEvent> Pop(std::uint64_t epoch);

 private:
  std::deque<MembershipEvent> schedule_;
  std::deque<MembershipEvent> proposals_;
};

/// Guard for the master's checkpoint-ack path, extracted so the stale-ack
/// regression is unit-testable: an ack advances the retention watermark only
/// when its sender is still alive (an evicted slave's late ack must be
/// dropped, not re-enter eviction bookkeeping), is the group's *current*
/// buddy (a replaced buddy's ack must not release retention the new replica
/// does not cover), and actually advances the watermark (duplicates fall
/// out on the covered-epoch comparison).
bool AcceptCheckpointAck(bool src_alive, bool src_is_current_buddy,
                         std::uint64_t covered_epoch,
                         std::uint64_t acked_watermark);

/// Scale proposal of the master's elastic policy loop.
enum class ScaleDecision : std::uint8_t { kNone, kOut, kIn };

/// Hysteresis policy over the per-epoch mean member occupancy (the load
/// metric the reorganization protocol already collects): `surge_epochs`
/// consecutive epochs above `surge_occupancy` propose scale-out,
/// `idle_epochs` consecutive epochs below `idle_occupancy` propose
/// scale-in; any proposal (or an epoch that breaks a streak) resets the
/// counters, and `cooldown_epochs` quiet epochs follow every proposal so
/// the cluster observes the new membership before the next decision.
///
/// Straggler veto: when cfg.skew_scale_in_veto > 0 and the observed
/// per-group skew ratio (max/median tuples routed per group, from the
/// master's telemetry) is at or above the threshold, the epoch cannot
/// count toward the idle streak -- a low *mean* occupancy with one hot
/// group means the load would concentrate, not disappear, after scale-in.
/// Scale-out is never vetoed. The default threshold 0.0 disables the veto
/// entirely, preserving pre-telemetry decisions bit-for-bit.
class ElasticPolicy {
 public:
  explicit ElasticPolicy(const ElasticConfig& cfg) : cfg_(cfg) {}

  /// Feed one epoch's observation. `members` and `standbys` bound the
  /// decision: kOut needs a standby to admit, kIn never drops below one
  /// member. `skew_ratio` is the epoch's max/median group-load ratio (0
  /// when unknown).
  ScaleDecision Observe(double mean_occupancy, std::uint32_t members,
                        std::uint32_t standbys, double skew_ratio = 0.0);

 private:
  ElasticConfig cfg_;
  std::uint32_t surge_streak_ = 0;
  std::uint32_t idle_streak_ = 0;
  std::uint32_t cooldown_ = 0;
};

}  // namespace sjoin
