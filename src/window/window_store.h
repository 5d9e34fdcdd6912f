// WindowStore: the set of partition-groups a slave currently owns, as one
// slot per partition id (most slaves own a good share of the partitions, and
// a flat slot array lets the parallel join pass give each worker its own
// pids without touching a shared map).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.h"
#include "window/partition_group.h"

namespace sjoin {

/// Partition identifier assigned by the master's hash partitioning
/// (0 <= pid < JoinConfig::num_partitions).
using PartitionId = std::uint32_t;

class WindowStore {
 public:
  WindowStore(const JoinConfig& cfg, std::size_t tuple_bytes)
      : cfg_(cfg), tuple_bytes_(tuple_bytes), groups_(cfg.num_partitions) {}

  /// The group for `pid`, created empty on first use. Touches only `pid`'s
  /// slot, so workers may call it concurrently for distinct pids.
  PartitionGroup& Ensure(PartitionId pid);

  /// Null if the slave does not own `pid` (or `pid` is out of range).
  PartitionGroup* Find(PartitionId pid);
  const PartitionGroup* Find(PartitionId pid) const;

  /// Removes and returns the group (migration: supplier side).
  std::unique_ptr<PartitionGroup> Take(PartitionId pid);

  /// Installs a migrated group (migration: consumer side). Throws
  /// std::out_of_range for a pid outside [0, num_partitions).
  void Install(PartitionId pid, std::unique_ptr<PartitionGroup> group);

  /// Node-level split/merge counters (nullptr ok), applied to every group
  /// currently owned and to every group later created by Ensure or handed to
  /// Install -- see PartitionGroup::AttachCounters.
  void SetGroupCounters(obs::Counter* splits, obs::Counter* merges);

  std::size_t GroupCount() const;
  std::vector<PartitionId> OwnedPartitions() const;

  /// Total records / bytes of window state across all owned groups (the
  /// paper's "window size within a node" metric).
  std::size_t TotalCount() const;
  std::size_t TotalBytes() const { return TotalCount() * tuple_bytes_; }
  /// Bytes the owned groups' window storage actually allocates.
  std::size_t StorageBytes() const;

  /// Visits the owned groups in ascending pid order.
  template <class F>
  void ForEachGroup(F f) {
    for (PartitionId pid = 0; pid < groups_.size(); ++pid) {
      if (groups_[pid]) f(pid, *groups_[pid]);
    }
  }
  template <class F>
  void ForEachGroup(F f) const {
    for (PartitionId pid = 0; pid < groups_.size(); ++pid) {
      if (groups_[pid]) {
        f(pid, static_cast<const PartitionGroup&>(*groups_[pid]));
      }
    }
  }

 private:
  JoinConfig cfg_;
  std::size_t tuple_bytes_;
  std::vector<std::unique_ptr<PartitionGroup>> groups_;  ///< indexed by pid
  obs::Counter* obs_splits_ = nullptr;
  obs::Counter* obs_merges_ = nullptr;
};

}  // namespace sjoin
