// Load-balancing decisions (paper sections IV-C and V-A), as pure functions
// shared by the simulation driver and the wall-clock runners.
//
// At each reorganization epoch the master classifies every active slave by
// its average buffer occupancy f_i:
//   supplier: f_i > Th_sup;   consumer: f_i < Th_con;   else neutral.
// Each supplier yields exactly one randomly selected partition-group to a
// distinct consumer (pairs found by a single scan). The degree of
// declustering grows when N_sup > beta * N_con, and shrinks when the system
// has no supplier at all (keeping it "minimally overloaded").
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "core/partition_map.h"

namespace sjoin::obs {
class MetricsRegistry;
}  // namespace sjoin::obs

namespace sjoin {

enum class Role : std::uint8_t { kSupplier, kConsumer, kNeutral };

/// Classifies each occupancy value (one per active slave). With `reg` it
/// also bumps the `balancer_rounds` / `balancer_suppliers` /
/// `balancer_consumers` counters (registered kVolatile -- occupancies are
/// timing-dependent in wall mode, so the classification tallies must stay
/// out of per-epoch snapshots).
std::vector<Role> ClassifySlaves(const std::vector<double>& occupancy,
                                 const BalanceConfig& cfg,
                                 obs::MetricsRegistry* reg = nullptr);

/// A planned migration: `supplier` yields one partition-group to `consumer`.
struct MovePlan {
  std::uint32_t supplier = 0;  ///< index into the active-slave list
  std::uint32_t consumer = 0;
};

/// Pairs each supplier with a distinct consumer by a single scan over the
/// slave list; unpaired suppliers (or consumers) are left alone.
std::vector<MovePlan> PairSuppliersWithConsumers(const std::vector<Role>& roles);

/// One planned live migration: the group travels from `from` to `to` via
/// the kMoveCmd/kInstallCmd/kStateTransfer sub-protocol.
struct RebalanceMove {
  PartitionId pid = 0;
  SlaveIdx from = 0;
  SlaveIdx to = 0;
};

/// Plans one reorganization round over the active `members` and their
/// `roles` (ClassifySlaves, in the same order): each supplier gives the
/// consumer it pairs with (PairSuppliersWithConsumers) one of its groups,
/// drawn from `rng`. With `respect_buddies` a group never moves onto its
/// own buddy, and a supplier whose every group is backed by its consumer
/// moves nothing. Moves are in pairing order, one draw per move.
std::vector<RebalanceMove> PlanReorganization(
    const PartitionMap& pmap, const std::vector<SlaveIdx>& members,
    const std::vector<Role>& roles, Pcg32& rng, bool respect_buddies);

/// One forced reassignment of a dead slave's partition-group.
struct EvacuationMove {
  PartitionId pid = 0;
  SlaveIdx target = 0;  ///< surviving slave that takes over the partition
};

/// Plans the forced evacuation of every partition-group owned by `dead`:
/// each is reassigned to the surviving slave with the fewest assigned
/// partitions at that point (ties to the lowest index), keeping the
/// survivors balanced. With `prefer_buddies` (buddy replication active) a
/// group whose buddy survives goes to that buddy instead -- the buddy holds
/// the group's checkpointed replica, so recovery needs no state transfer;
/// the least-loaded rule stays as the fallback for groups whose buddy died
/// too. Deterministic. `survivors` must be non-empty and must not contain
/// `dead`.
std::vector<EvacuationMove> PlanEvacuation(
    const PartitionMap& pmap, SlaveIdx dead,
    const std::vector<SlaveIdx>& survivors, bool prefer_buddies = false);

/// Plans the partition-groups a newly admitted member takes over: up to an
/// equal share (floor(npart / members.size())) of groups, pulled one at a
/// time from whichever *other* member currently owns the most. Deterministic
/// (ties to the lowest slave index, lowest partition id first). With
/// `respect_buddies` a group is never moved onto its own buddy -- owner and
/// replica must stay distinct. Groups the joiner already owns count toward
/// its share. `members` must be ascending and include `joiner`.
///
/// Recomputable: the plan is a function of the current map, so the caller
/// may execute any prefix, mutate the map, and re-plan -- convergence is
/// monotone (the joiner's deficit only shrinks).
std::vector<RebalanceMove> PlanAdmission(const PartitionMap& pmap,
                                         const std::vector<SlaveIdx>& members,
                                         SlaveIdx joiner,
                                         bool respect_buddies = false);

/// Plans the graceful drain of every partition-group owned by `leaver` onto
/// `remaining` (ascending, must not contain `leaver`): each group goes to
/// the remaining member with the fewest assigned partitions (ties to the
/// lowest index). With `respect_buddies` a group avoids its own buddy when
/// any other member is available; when the buddy is the *only* remaining
/// member it is used anyway -- liveness over replica placement, and the
/// caller must re-ring the buddy afterwards. Empty `remaining` (or a leaver
/// owning nothing) yields an empty plan. Deterministic.
std::vector<RebalanceMove> PlanDrain(const PartitionMap& pmap, SlaveIdx leaver,
                                     const std::vector<SlaveIdx>& remaining,
                                     bool respect_buddies = false);

/// One replica re-homing that follows a membership transition: the group's
/// owner ships a full snapshot to `to`, which becomes its buddy on the ack.
struct BuddyHandover {
  PartitionId pid = 0;
  SlaveIdx to = 0;
};

/// Plans the buddy handovers of a membership transition of `slave`, once
/// its ownership moves are done and none is in flight. `members` are the
/// alive members, ascending; on a join they include the joiner, on a leave
/// the leaver. On a join, each group whose owner has the joiner as ring
/// successor gets the joiner as buddy (groups the joiner owns or already
/// backs are left alone). On a leave, each group the leaver backs moves its
/// replica to its owner's successor on the ring without the leaver, unless
/// that is the owner itself. Groups whose owner is not a member are left
/// alone. Ascending by group; deterministic.
std::vector<BuddyHandover> PlanHandovers(const PartitionMap& pmap,
                                         const std::vector<SlaveIdx>& members,
                                         SlaveIdx slave, bool join);

enum class DeclusterAction : std::uint8_t { kNone, kGrow, kShrink };

/// Degree-of-declustering decision given the current classification.
/// `active` is the current degree, `total` the number of slaves available.
DeclusterAction DecideDecluster(const std::vector<Role>& roles, double beta,
                                std::uint32_t active, std::uint32_t total);

}  // namespace sjoin
