// PartitionGroup: the unit of load distribution (the paper's
// "partition-group") and, inside it, the fine-tuned mini-partition-groups.
//
// The master hash-partitions each stream into `num_partitions` partitions;
// one PartitionGroup holds both streams' window state for one partition id on
// the slave that currently owns it. With fine tuning enabled (paper section
// IV-D) the group is an extendible-hashing directory of mini-partition-groups
// kept within [theta, 2*theta] bytes: a mini-group above 2*theta splits, one
// below theta merges with its buddy when their combined size stays below
// 2*theta and their local depths match.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "hash/extendible.h"
#include "window/mini_partition.h"

namespace sjoin::obs {
class Counter;
}  // namespace sjoin::obs

namespace sjoin {

/// Both streams' window state for one (mini-)partition-group.
class MiniGroup {
 public:
  MiniGroup() = default;

  /// Lazily allocates the two MiniPartitions, one per stream (the
  /// extendible directory default-constructs buckets).
  void Init(std::size_t block_capacity);
  bool Initialized() const { return parts_[0] != nullptr; }

  MiniPartition& Part(StreamId s) { return *parts_[s]; }
  const MiniPartition& Part(StreamId s) const { return *parts_[s]; }

  /// Total records stored across both streams (0 if uninitialized).
  std::size_t TotalCount() const;

  /// Newest timestamp routed into this group (drives window expiry).
  Time MaxSeenTs() const;

 private:
  std::array<std::unique_ptr<MiniPartition>, kStreamCount> parts_;
};

class PartitionGroup {
 public:
  /// Safety cap on the extendible-hashing global depth, preventing unbounded
  /// directory doubling when a single hot key dominates a bucket (such a
  /// bucket cannot be split by hashing at any depth).
  static constexpr std::uint32_t kMaxGlobalDepth = 10;

  PartitionGroup(const JoinConfig& cfg, std::size_t tuple_bytes);

  /// Hash used for mini-group addressing within a group. Decorrelated from
  /// the master's partition-id hash so the extendible directory sees fresh
  /// bits.
  static std::uint64_t TuneHash(std::uint64_t key) {
    return Mix64(key ^ 0xC2B2AE3D27D4EB4FULL);
  }

  /// The mini-group the given key routes to (initialized on demand).
  MiniGroup& GroupFor(std::uint64_t key);

  /// Re-checks the tuning invariant for the mini-group containing `key`
  /// after a batch was inserted or expired there: splits while its size
  /// exceeds 2*theta, then merges while it sits below theta. All records in
  /// the touched mini-group must be sealed. Returns the number of records
  /// physically moved (charged to the virtual clock by the caller).
  std::size_t MaybeTune(std::uint64_t key);

  std::size_t TotalCount() const { return total_count_; }
  std::size_t TotalBytes() const { return total_count_ * tuple_bytes_; }
  /// Bytes the group's window storage allocates (MiniPartition::
  /// StorageBytes over its mini-groups); TotalBytes is the paper's figure.
  std::size_t StorageBytes() const;
  std::size_t MiniGroupCount() const { return dir_.BucketCount(); }
  std::uint64_t Splits() const { return splits_; }
  std::uint64_t Merges() const { return merges_; }
  std::size_t TupleBytes() const { return tuple_bytes_; }
  std::size_t BlockCapacity() const { return block_capacity_; }

  /// Adjusts the stored-record counter; MiniPartition mutations go through
  /// JoinModule which reports deltas here.
  void AddCount(std::ptrdiff_t delta);

  /// Observability hooks (obs/metrics.h Counter handles, nullptr ok): every
  /// split/merge also bumps the attached node-level counters. The group's
  /// own splits_/merges_ totals travel with the group on migration; the
  /// attached counters record events at the node where they happened.
  void AttachCounters(obs::Counter* splits, obs::Counter* merges) {
    obs_splits_ = splits;
    obs_merges_ = merges;
  }

  template <class F>
  void ForEachMiniGroup(F f) {
    dir_.ForEachBucket([&](ExtendibleDirectory<MiniGroup>::Node& n) {
      if (n.bucket.Initialized()) f(n.bucket);
    });
  }
  template <class F>
  void ForEachMiniGroup(F f) const {
    dir_.ForEachBucket(
        [&](const ExtendibleDirectory<MiniGroup>::Node& n) {
          if (n.bucket.Initialized()) f(n.bucket);
        });
  }

  /// Serialization access (window/state_codec).
  const ExtendibleDirectory<MiniGroup>& Directory() const { return dir_; }

  /// Rebuilds the directory shape during state installation: splits empty
  /// buckets until the bucket addressed by `pattern` has the given local
  /// depth. Must be called on a group that holds no records yet, with
  /// patterns in increasing-depth-compatible order (state_codec emits them
  /// canonically).
  void ForceBucketDepth(std::uint64_t pattern, std::uint32_t local_depth);

  /// Installs a record directly as sealed window state (migration path).
  void InstallSealed(const Rec& rec);

  // -- Group-local join scratch / bookkeeping --------------------------------
  // Owned by the group so concurrent workers of the intra-slave pool touch
  // disjoint state: each partition-group is processed by exactly one worker
  // per batch pass (see JoinModule), so none of this needs locking.

  /// Checkpoint journal: every record sealed into this group since the last
  /// TakeJournal (see JoinModule::EnableCheckpointJournal).
  void AppendJournal(const Rec& rec) { journal_.push_back(rec); }
  std::vector<Rec> TakeJournal() {
    std::vector<Rec> out = std::move(journal_);
    journal_.clear();
    return out;
  }
  void ClearJournal() {
    journal_.clear();
    journal_.shrink_to_fit();
  }
  /// Records currently journaled and not yet taken (state-dump reporting).
  std::size_t JournalSize() const { return journal_.size(); }

 private:
  std::size_t SplitOnce(std::uint64_t hash);
  std::size_t MergeOnce(std::uint64_t hash, bool& merged);

  std::size_t tuple_bytes_;
  std::size_t block_capacity_;
  std::size_t theta_bytes_;
  bool fine_tuning_;
  ExtendibleDirectory<MiniGroup> dir_;
  std::size_t total_count_ = 0;
  std::uint64_t splits_ = 0;
  std::uint64_t merges_ = 0;
  obs::Counter* obs_splits_ = nullptr;
  obs::Counter* obs_merges_ = nullptr;
  std::vector<Rec> journal_;
};

}  // namespace sjoin
