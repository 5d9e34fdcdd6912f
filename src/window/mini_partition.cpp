#include "window/mini_partition.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/rng.h"

namespace sjoin {

namespace {

/// Smallest ring / table allocated at the first seal.
constexpr std::size_t kMinIndexSize = 16;

}  // namespace

MiniPartition::MiniPartition(std::size_t block_capacity)
    : block_capacity_(block_capacity) {
  assert(block_capacity > 0);
}

Block& MiniPartition::HeadBlock() {
  if (blocks_.empty() || blocks_.back().Full()) {
    blocks_.emplace_back(block_capacity_);
  }
  return blocks_.back();
}

void MiniPartition::Insert(const Rec& rec) {
  assert(rec.ts >= max_seen_ts_);
  assert(!HeadFull() && "seal a full head before inserting more");
  HeadBlock().Append(rec);
  ++total_count_;
  max_seen_ts_ = rec.ts;
}

bool MiniPartition::HeadFull() const {
  return !blocks_.empty() && blocks_.back().Full() &&
         blocks_.back().FreshCount() > 0;
}

std::span<const Rec> MiniPartition::FreshRecords() const {
  if (blocks_.empty()) return {};
  return blocks_.back().FreshRecords();
}

std::size_t MiniPartition::FreshCount() const {
  return blocks_.empty() ? 0 : blocks_.back().FreshCount();
}

void MiniPartition::Seal() {
  if (blocks_.empty()) return;
  Block& head = blocks_.back();
  const std::span<const Rec> fresh = head.FreshRecords();
  if (fresh.empty()) return;
  ReserveLinks(fresh.size());
  for (const Rec& rec : fresh) IndexRecord(rec);
  head.MarkJoined();
}

std::size_t MiniPartition::FindSlot(std::uint64_t key) const {
  // Decorrelated from PartitionOf and PartitionGroup::TuneHash: every key
  // here shares their low bits, which would cluster a table indexed by them.
  const std::size_t mask = slots_.size() - 1;
  std::size_t i =
      static_cast<std::size_t>(Mix64(key ^ 0x8CB92BA72F3D8DD7ULL)) & mask;
  while (slots_[i].top != 0 && slots_[i].key != key) i = (i + 1) & mask;
  return i;
}

void MiniPartition::IndexRecord(const Rec& rec) {
  if (slots_.empty()) RebuildTable(1);
  std::size_t i = FindSlot(rec.key);
  if (slots_[i].top == 0) {
    // A new key claims an empty slot; rebuild first at 3/4 load.
    if ((used_slots_ + 1) * 4 > slots_.size() * 3) {
      RebuildTable(1);
      i = FindSlot(rec.key);
    }
    slots_[i].key = rec.key;
    ++used_slots_;
  }
  // A dead key's stale `top` is harmless as `prev`: chains stop below
  // base_seq_, and base_seq_ only grows.
  const std::uint64_t seq = next_seq_++;
  Slot& slot = slots_[i];
  links_[seq & (links_.size() - 1)] = Link{rec.ts, slot.top};
  slot.top = seq + 1;
}

void MiniPartition::ReserveLinks(std::size_t n) {
  const std::size_t need = SealedCount() + n;
  if (need > links_.size()) {
    ResizeLinks(std::bit_ceil(std::max(need, kMinIndexSize)));
  }
}

void MiniPartition::ResizeLinks(std::size_t capacity) {
  std::vector<Link> next(capacity);
  if (!links_.empty()) {
    const std::size_t old_mask = links_.size() - 1;
    for (std::uint64_t s = base_seq_; s < next_seq_; ++s) {
      next[s & (capacity - 1)] = links_[s & old_mask];
    }
  }
  links_.swap(next);
}

void MiniPartition::RebuildTable(std::size_t extra) {
  const std::size_t live = IndexKeyCount();
  std::vector<Slot> old(
      std::bit_ceil(std::max((live + extra) * 2, kMinIndexSize)));
  old.swap(slots_);
  for (const Slot& s : old) {
    if (s.top > base_seq_) slots_[FindSlot(s.key)] = s;  // skip empty, dead
  }
  used_slots_ = live;
}

std::span<const Time> MiniPartition::ProbeSealed(std::uint64_t key,
                                                 Time min_ts, Time max_ts,
                                                 std::vector<Time>& out) const {
  out.clear();
  if (slots_.empty()) return out;
  const std::size_t i = FindSlot(key);
  // Newest to oldest: timestamps fall along the chain, so the walk stops at
  // the window's lower edge or at the first expired seq.
  const std::size_t link_mask = links_.size() - 1;
  for (std::uint64_t top = slots_[i].top; top > base_seq_;) {
    const Link& l = links_[(top - 1) & link_mask];
    if (l.ts < min_ts) break;
    if (l.ts <= max_ts) out.push_back(l.ts);
    top = l.prev;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::size_t MiniPartition::IndexKeyCount() const {
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [&](const Slot& s) { return s.top > base_seq_; }));
}

std::vector<Block> MiniPartition::ExpireBlocks(Time low_ts) {
  std::vector<Block> expired;
  // The head block never expires: it is the insertion point and its fresh
  // records have not probed yet. Every other block is full and sealed, so
  // its records are the oldest live seqs.
  while (blocks_.size() > 1 && blocks_.front().MaxTs() < low_ts) {
    Block& b = blocks_.front();
    base_seq_ += b.Size();
    total_count_ -= b.Size();
    expired.push_back(std::move(b));
    blocks_.pop_front();
  }
  // Shrink each array once live records fall below 1/8 of it (live keys
  // never outnumber live records), so a burst does not pin its memory.
  const std::size_t live = SealedCount();
  if (links_.size() > kMinIndexSize && live * 8 < links_.size()) {
    ResizeLinks(std::bit_ceil(std::max(live * 2, kMinIndexSize)));
  }
  if (slots_.size() > kMinIndexSize && live * 8 < slots_.size()) {
    RebuildTable(0);
  }
  return expired;
}

void MiniPartition::InstallSealed(const Rec& rec) {
  assert(rec.ts >= max_seen_ts_);
  assert(FreshCount() == 0 && "installing would seal fresh records unindexed");
  Block& head = HeadBlock();
  head.Append(rec);
  head.MarkJoined();
  ReserveLinks(1);
  IndexRecord(rec);
  ++total_count_;
  max_seen_ts_ = rec.ts;
}

}  // namespace sjoin
