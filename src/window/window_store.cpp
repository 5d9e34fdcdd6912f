#include "window/window_store.h"

#include <cassert>
#include <stdexcept>
#include <string>

namespace sjoin {

PartitionGroup& WindowStore::Ensure(PartitionId pid) {
  assert(pid < groups_.size());
  auto& slot = groups_[pid];
  if (!slot) {
    slot = std::make_unique<PartitionGroup>(cfg_, tuple_bytes_);
    slot->AttachCounters(obs_splits_, obs_merges_);
  }
  return *slot;
}

PartitionGroup* WindowStore::Find(PartitionId pid) {
  return pid < groups_.size() ? groups_[pid].get() : nullptr;
}

const PartitionGroup* WindowStore::Find(PartitionId pid) const {
  return pid < groups_.size() ? groups_[pid].get() : nullptr;
}

std::unique_ptr<PartitionGroup> WindowStore::Take(PartitionId pid) {
  assert(Find(pid) != nullptr);
  return std::move(groups_[pid]);
}

void WindowStore::Install(PartitionId pid,
                          std::unique_ptr<PartitionGroup> group) {
  // Installed pids arrive in migration and failover frames.
  if (pid >= groups_.size()) {
    throw std::out_of_range("WindowStore::Install: partition id " +
                            std::to_string(pid) + " out of range");
  }
  assert(!groups_[pid]);
  group->AttachCounters(obs_splits_, obs_merges_);
  groups_[pid] = std::move(group);
}

void WindowStore::SetGroupCounters(obs::Counter* splits, obs::Counter* merges) {
  obs_splits_ = splits;
  obs_merges_ = merges;
  ForEachGroup([&](PartitionId, PartitionGroup& group) {
    group.AttachCounters(splits, merges);
  });
}

std::size_t WindowStore::GroupCount() const {
  std::size_t n = 0;
  ForEachGroup([&](PartitionId, const PartitionGroup&) { ++n; });
  return n;
}

std::vector<PartitionId> WindowStore::OwnedPartitions() const {
  std::vector<PartitionId> out;
  ForEachGroup([&](PartitionId pid, const PartitionGroup&) {
    out.push_back(pid);
  });
  return out;
}

std::size_t WindowStore::StorageBytes() const {
  std::size_t n = 0;
  ForEachGroup([&](PartitionId, const PartitionGroup& group) {
    n += group.StorageBytes();
  });
  return n;
}

std::size_t WindowStore::TotalCount() const {
  std::size_t n = 0;
  ForEachGroup([&](PartitionId, const PartitionGroup& group) {
    n += group.TotalCount();
  });
  return n;
}

}  // namespace sjoin
