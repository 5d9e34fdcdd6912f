#include "core/master_buffer.h"

#include <algorithm>

namespace sjoin {

MasterBuffer::MasterBuffer(std::uint32_t num_partitions,
                           std::size_t tuple_bytes)
    : tuple_bytes_(tuple_bytes), mini_(num_partitions) {}

void MasterBuffer::Add(const Rec& rec, PartitionId pid) {
  mini_[pid].push_back(rec);
  ++total_;
  peak_bytes_ = std::max(peak_bytes_, TotalBytes());
}

std::vector<Rec> MasterBuffer::DrainFor(std::span<const PartitionId> pids) {
  std::vector<Rec> out;
  for (PartitionId pid : pids) {
    auto& mb = mini_[pid];
    out.insert(out.end(), mb.begin(), mb.end());
    total_ -= mb.size();
    mb.clear();
  }
  return out;
}

void MasterBuffer::ClearPartition(PartitionId pid) {
  total_ -= mini_[pid].size();
  mini_[pid].clear();
}

}  // namespace sjoin
