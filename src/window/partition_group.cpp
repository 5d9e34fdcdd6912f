#include "window/partition_group.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "obs/metrics.h"

namespace sjoin {

void MiniGroup::Init(std::size_t block_capacity) {
  if (!Initialized()) {
    for (StreamId s = 0; s < kStreamCount; ++s) {
      parts_[s] = std::make_unique<MiniPartition>(block_capacity, s);
    }
  }
}

std::size_t MiniGroup::TotalCount() const {
  if (!Initialized()) return 0;
  return parts_[0]->TotalCount() + parts_[1]->TotalCount();
}

Time MiniGroup::MaxSeenTs() const {
  if (!Initialized()) return 0;
  return std::max(parts_[0]->MaxSeenTs(), parts_[1]->MaxSeenTs());
}

PartitionGroup::PartitionGroup(const JoinConfig& cfg, std::size_t tuple_bytes)
    : tuple_bytes_(tuple_bytes),
      block_capacity_(cfg.block_bytes / tuple_bytes),
      theta_bytes_(cfg.theta_bytes),
      fine_tuning_(cfg.fine_tuning),
      dir_(kMaxGlobalDepth) {
  assert(block_capacity_ > 0);
}

MiniGroup& PartitionGroup::GroupFor(std::uint64_t key) {
  MiniGroup& mg = dir_.Find(TuneHash(key)).bucket;
  mg.Init(block_capacity_);
  return mg;
}

std::size_t PartitionGroup::StorageBytes() const {
  std::size_t n = 0;
  ForEachMiniGroup([&](const MiniGroup& mg) {
    for (StreamId s = 0; s < kStreamCount; ++s) n += mg.Part(s).StorageBytes();
  });
  return n;
}

void PartitionGroup::AddCount(std::ptrdiff_t delta) {
  assert(delta >= 0 || total_count_ >= static_cast<std::size_t>(-delta));
  total_count_ = static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(total_count_) + delta);
}

std::size_t PartitionGroup::SplitOnce(std::uint64_t hash) {
  std::size_t moved = 0;
  const std::size_t cap = block_capacity_;
  bool ok = dir_.Split(hash, [&](MiniGroup&& from, MiniGroup& zero,
                                 MiniGroup& one, std::uint32_t bit) {
    if (!from.Initialized()) return;
    for (StreamId s = 0; s < kStreamCount; ++s) {
      assert(from.Part(s).FreshCount() == 0 &&
             "mini-groups must be flushed (sealed) before tuning");
      from.Part(s).ForEachRecord([&](const Rec& rec) {
        MiniGroup& dst = ((TuneHash(rec.key) >> bit) & 1) ? one : zero;
        dst.Init(cap);
        dst.Part(s).InstallSealed(rec);
        ++moved;
      });
    }
  });
  if (ok) {
    ++splits_;
    if (obs_splits_ != nullptr) obs_splits_->Inc();
  }
  return ok ? moved : 0;
}

std::size_t PartitionGroup::MergeOnce(std::uint64_t hash, bool& merged) {
  std::size_t moved = 0;
  const std::size_t cap = block_capacity_;
  const std::size_t tb = tuple_bytes_;
  const std::size_t two_theta = 2 * theta_bytes_;
  auto no_fresh = [](const MiniGroup& g) {
    if (!g.Initialized()) return true;
    return g.Part(0).FreshCount() == 0 && g.Part(1).FreshCount() == 0;
  };
  merged = dir_.TryMergeWithBuddy(
      hash,
      [&](const MiniGroup& a, const MiniGroup& b) {
        // Size rule from the paper, plus: never merge a bucket whose fresh
        // (not yet probed) records would be sealed unprobed by the rebuild.
        // Such a merge simply waits for the buddy's next flush.
        return (a.TotalCount() + b.TotalCount()) * tb < two_theta &&
               no_fresh(a) && no_fresh(b);
      },
      [&](MiniGroup&& a, MiniGroup&& b) {
        MiniGroup out;
        for (StreamId s = 0; s < kStreamCount; ++s) {
          std::vector<Rec> ra;
          std::vector<Rec> rb;
          if (a.Initialized()) {
            assert(a.Part(s).FreshCount() == 0);
            a.Part(s).ForEachRecord([&](const Rec& r) { ra.push_back(r); });
          }
          if (b.Initialized()) {
            assert(b.Part(s).FreshCount() == 0);
            b.Part(s).ForEachRecord([&](const Rec& r) { rb.push_back(r); });
          }
          if (ra.empty() && rb.empty()) continue;
          std::vector<Rec> all;
          all.reserve(ra.size() + rb.size());
          std::merge(ra.begin(), ra.end(), rb.begin(), rb.end(),
                     std::back_inserter(all),
                     [](const Rec& x, const Rec& y) { return x.ts < y.ts; });
          out.Init(cap);
          for (const Rec& r : all) out.Part(s).InstallSealed(r);
          moved += all.size();
        }
        return out;
      });
  if (merged) {
    ++merges_;
    if (obs_merges_ != nullptr) obs_merges_->Inc();
  }
  return merged ? moved : 0;
}

std::size_t PartitionGroup::MaybeTune(std::uint64_t key) {
  if (!fine_tuning_) return 0;
  const std::uint64_t h = TuneHash(key);
  std::size_t moved = 0;

  // Split while the mini-group holding this key exceeds 2*theta.
  while (dir_.Find(h).bucket.TotalCount() * tuple_bytes_ > 2 * theta_bytes_) {
    std::size_t m = SplitOnce(h);
    if (m == 0 && dir_.Find(h).bucket.TotalCount() * tuple_bytes_ >
                      2 * theta_bytes_) {
      break;  // at max global depth, or the bucket would not separate
    }
    moved += m;
  }

  // Merge while it sits below theta and a buddy merge is admissible.
  while (dir_.Find(h).bucket.TotalCount() * tuple_bytes_ < theta_bytes_) {
    bool merged = false;
    moved += MergeOnce(h, merged);
    if (!merged) break;
  }
  return moved;
}

void PartitionGroup::ForceBucketDepth(std::uint64_t pattern,
                                      std::uint32_t local_depth) {
  assert(total_count_ == 0 && "shape must be rebuilt before installing state");
  while (dir_.Find(pattern).local_depth < local_depth) {
    bool ok = dir_.Split(pattern, [](MiniGroup&& from, MiniGroup&, MiniGroup&,
                                     std::uint32_t) {
      assert(from.TotalCount() == 0);
      (void)from;
    });
    if (!ok) break;
  }
}

void PartitionGroup::InstallSealed(const Rec& rec) {
  GroupFor(rec.key).Part(rec.stream).InstallSealed(rec);
  ++total_count_;
}

}  // namespace sjoin
