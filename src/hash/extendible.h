// Extendible hashing directory (Fagin, Nievergelt, Pippenger & Strong 1979),
// the mechanism the paper uses to fine-tune window partition sizes inside a
// slave (section IV-D): each overflowing partition-group gets a directory of
// 2^d entries (global depth d) addressing mini-partition-group buckets, each
// with a local depth d' <= d; a bucket is pointed to by 2^(d-d') entries.
// Splitting a bucket raises its local depth (doubling the directory first if
// d' == d); merging recombines a bucket with its buddy.
//
// Addressing uses the d *least significant* bits of the item hash, as the
// paper states. Under LSB addressing the entries pointing to one bucket are
// those congruent to its pattern modulo 2^d', and the buddy of a bucket is
// the bucket whose pattern differs in bit d'-1. (The paper's closed-form
// l_bud expression describes the contiguous-block layout of MSB addressing;
// `PaperBuddyEntry` reproduces that formula for reference and is exercised
// in tests, while the directory itself uses the LSB-consistent buddy.)
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace sjoin {

/// The paper's closed-form buddy-entry formula (section IV-D): for a bucket
/// whose first directory entry is `l`, with global depth `d` and local depth
/// `d_local`, returns the first entry of its buddy under a contiguous
/// (MSB-style) directory layout.
constexpr std::uint64_t PaperBuddyEntry(std::uint64_t l, std::uint32_t d,
                                        std::uint32_t d_local) {
  const std::uint64_t step = std::uint64_t{1} << (d - d_local);
  return (l % (step * 2) == 0) ? l + step : l - step;
}

/// Generic extendible-hashing directory. `Bucket` must be movable and
/// default-constructible.
template <class Bucket>
class ExtendibleDirectory {
 public:
  struct Node {
    std::uint32_t local_depth = 0;
    Bucket bucket;
  };

  /// Redistribution callback for Split: move the contents of `from` into
  /// `zero` or `one` according to bit `bit` of each item's hash
  /// ((hash >> bit) & 1; bit == old local depth).
  using Redistribute =
      std::function<void(Bucket&& from, Bucket& zero, Bucket& one,
                         std::uint32_t bit)>;

  /// Merge callback for TryMergeWithBuddy: combine `a` and `b` into the
  /// returned bucket (order is unspecified).
  using MergeFn = std::function<Bucket(Bucket&& a, Bucket&& b)>;

  explicit ExtendibleDirectory(std::uint32_t max_depth = 24)
      : max_global_depth_(max_depth) {
    dir_.push_back(std::make_shared<Node>());
  }

  std::uint32_t GlobalDepth() const { return global_depth_; }
  std::uint32_t MaxGlobalDepth() const { return max_global_depth_; }
  std::size_t EntryCount() const { return dir_.size(); }

  /// Number of distinct buckets.
  std::size_t BucketCount() const {
    std::size_t n = 0;
    ForEachBucket([&](const Node&) { ++n; });
    return n;
  }

  /// The bucket an item with the given hash belongs to.
  Node& Find(std::uint64_t hash) { return *dir_[SlotOf(hash)]; }
  const Node& Find(std::uint64_t hash) const { return *dir_[SlotOf(hash)]; }

  /// Splits the bucket containing `hash` into two buckets of local depth
  /// d'+1, doubling the directory first if needed. Returns false (and leaves
  /// the directory untouched) if the split would exceed the maximum global
  /// depth.
  bool Split(std::uint64_t hash, const Redistribute& redistribute) {
    std::size_t slot = SlotOf(hash);
    std::shared_ptr<Node> old = dir_[slot];
    if (old->local_depth == global_depth_) {
      if (global_depth_ == max_global_depth_) return false;
      DoubleDirectory();
    }
    const std::uint32_t d_old = old->local_depth;
    const std::uint64_t pattern = hash & Mask(d_old);

    auto zero = std::make_shared<Node>();
    auto one = std::make_shared<Node>();
    zero->local_depth = one->local_depth = d_old + 1;
    redistribute(std::move(old->bucket), zero->bucket, one->bucket, d_old);

    // Repoint every alias of the old bucket: the slot's bit d_old selects
    // the new bucket.
    for (std::size_t i = pattern; i < dir_.size();
         i += (std::size_t{1} << d_old)) {
      dir_[i] = ((i >> d_old) & 1) ? one : zero;
    }
    return true;
  }

  /// If the bucket containing `hash` has a buddy at the same local depth and
  /// `can_merge(a, b)` approves, merges them into one bucket of local depth
  /// d'-1 and returns true. Also shrinks the directory when possible.
  bool TryMergeWithBuddy(
      std::uint64_t hash,
      const std::function<bool(const Bucket&, const Bucket&)>& can_merge,
      const MergeFn& merge) {
    std::shared_ptr<Node> node = dir_[SlotOf(hash)];
    const std::uint32_t d_local = node->local_depth;
    if (d_local == 0) return false;

    const std::uint64_t pattern = hash & Mask(d_local);
    const std::uint64_t buddy_pattern =
        pattern ^ (std::uint64_t{1} << (d_local - 1));
    std::shared_ptr<Node> buddy = dir_[buddy_pattern & Mask(global_depth_)];
    if (buddy->local_depth != d_local) return false;
    if (!can_merge(node->bucket, buddy->bucket)) return false;

    auto merged = std::make_shared<Node>();
    merged->local_depth = d_local - 1;
    merged->bucket = merge(std::move(node->bucket), std::move(buddy->bucket));

    const std::uint64_t merged_pattern = pattern & Mask(d_local - 1);
    for (std::size_t i = merged_pattern; i < dir_.size();
         i += (std::size_t{1} << (d_local - 1))) {
      dir_[i] = merged;
    }
    ShrinkToFit();
    return true;
  }

  /// Visits each distinct bucket exactly once.
  template <class F>
  void ForEachBucket(F f) {
    for (std::size_t i = 0; i < dir_.size(); ++i) {
      if (IsCanonicalSlot(i)) f(*dir_[i]);
    }
  }
  template <class F>
  void ForEachBucket(F f) const {
    for (std::size_t i = 0; i < dir_.size(); ++i) {
      if (IsCanonicalSlot(i)) f(static_cast<const Node&>(*dir_[i]));
    }
  }

  /// Visits each distinct bucket exactly once together with its canonical
  /// pattern (the lowest directory slot addressing it; its low local_depth
  /// bits identify the bucket). Used for state serialization.
  template <class F>
  void ForEachBucketIndexed(F f) {
    for (std::size_t i = 0; i < dir_.size(); ++i) {
      if (IsCanonicalSlot(i)) f(static_cast<std::uint64_t>(i), *dir_[i]);
    }
  }
  template <class F>
  void ForEachBucketIndexed(F f) const {
    for (std::size_t i = 0; i < dir_.size(); ++i) {
      if (IsCanonicalSlot(i)) {
        f(static_cast<std::uint64_t>(i), static_cast<const Node&>(*dir_[i]));
      }
    }
  }

  /// Halves the directory while no bucket needs the top address bit.
  void ShrinkToFit() {
    while (global_depth_ > 0) {
      bool shrinkable = true;
      for (const auto& node : dir_) {
        if (node->local_depth == global_depth_) {
          shrinkable = false;
          break;
        }
      }
      if (!shrinkable) break;
      dir_.resize(dir_.size() / 2);
      --global_depth_;
    }
  }

 private:
  static constexpr std::uint64_t Mask(std::uint32_t bits) {
    return bits >= 64 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << bits) - 1;
  }

  std::size_t SlotOf(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash & Mask(global_depth_));
  }

  /// True if `i` is the lowest directory slot pointing at its bucket.
  bool IsCanonicalSlot(std::size_t i) const {
    return (i & Mask(dir_[i]->local_depth)) == i;
  }

  void DoubleDirectory() {
    const std::size_t n = dir_.size();
    dir_.resize(n * 2);
    for (std::size_t i = 0; i < n; ++i) dir_[n + i] = dir_[i];
    ++global_depth_;
  }

  std::uint32_t max_global_depth_;
  std::uint32_t global_depth_ = 0;
  std::vector<std::shared_ptr<Node>> dir_;
};

}  // namespace sjoin
