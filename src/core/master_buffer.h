// MasterBuffer: the master's stream buffer, organized as one mini-buffer per
// partition (paper section IV-B / Figure 3). Incoming tuples are appended to
// the mini-buffer of their partition; at a distribution instant the master
// drains the mini-buffers of the partitions assigned to one slave and ships
// them as a single merged batch. Peak byte occupancy is tracked to evaluate
// the sub-group communication buffer bound (paper section V-B).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tuple/tuple.h"
#include "window/window_store.h"

namespace sjoin {

class MasterBuffer {
 public:
  MasterBuffer(std::uint32_t num_partitions, std::size_t tuple_bytes);

  /// Appends an arriving tuple to its partition's mini-buffer.
  void Add(const Rec& rec, PartitionId pid);

  /// One partition's buffered tuples in arrival order, valid until the next
  /// Add or ClearPartition; a sender encodes them from here.
  std::span<const Rec> Pending(PartitionId pid) const { return mini_[pid]; }
  /// Drops one partition's buffered tuples, keeping its capacity.
  void ClearPartition(PartitionId pid);

  std::size_t TotalTuples() const { return total_; }
  std::size_t TotalBytes() const { return total_ * tuple_bytes_; }
  std::size_t PeakBytes() const { return peak_bytes_; }
  void ResetPeak() { peak_bytes_ = TotalBytes(); }

 private:
  std::size_t tuple_bytes_;
  std::vector<std::vector<Rec>> mini_;  // one per partition
  std::size_t total_ = 0;
  std::size_t peak_bytes_ = 0;
};

}  // namespace sjoin
