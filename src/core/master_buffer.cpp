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

void MasterBuffer::ClearPartition(PartitionId pid) {
  total_ -= mini_[pid].size();
  mini_[pid].clear();
}

}  // namespace sjoin
