#include "window/mini_partition.h"

#include <algorithm>
#include <array>
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

std::size_t MiniPartition::HomeSlot(std::uint64_t key) const {
  // Decorrelated from PartitionOf and PartitionGroup::TuneHash: every key
  // here shares their low bits, which would cluster a table indexed by them.
  return static_cast<std::size_t>(Mix64(key ^ 0x8CB92BA72F3D8DD7ULL)) &
         (slots_.size() - 1);
}

std::size_t MiniPartition::FindSlot(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = HomeSlot(key);
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
  const SealedProbe probe{key, min_ts, max_ts};
  std::array<Time, kInterleavedMatches> first;  // written before it is read
  BatchScratch::ChainStop stop;
  WalkInterleaved({&probe, 1}, first.data(), &stop);
  out.assign(first.begin(),
             first.begin() + static_cast<std::ptrdiff_t>(stop.count));
  WalkRest(probe, stop.top, out);
  std::reverse(out.begin(), out.end());
  return out;
}

void MiniPartition::WalkInterleaved(std::span<const SealedProbe> probes,
                                    Time* first,
                                    BatchScratch::ChainStop* stops) const {
  if (SealedCount() == 0) {
    std::fill_n(stops, probes.size(), BatchScratch::ChainStop{});
    return;
  }
  const std::size_t link_mask = links_.size() - 1;
  const auto link_at = [&](std::uint64_t top) -> const Link& {
    return links_[(top - 1) & link_mask];
  };

  // An in-flight probe: which one, seq + 1 of the next link to read, and
  // the matches it has collected.
  struct Chain {
    std::size_t probe = 0;
    std::uint64_t top = 0;
    std::size_t count = 0;
  };
  std::size_t next = 0;         // the next probe to start
  std::size_t prefetched = 0;   // probes whose home slot is prefetched
  // Starts the next probe that has a live chain on `c`, prefetching home
  // slots kChainsInFlight probes ahead and the chain's first link. False
  // once every probe has started.
  const auto start = [&](Chain& c) {
    for (; next < probes.size(); ++next) {
      const std::size_t ahead =
          std::min(next + kChainsInFlight, probes.size());
      for (; prefetched < ahead; ++prefetched) {
        __builtin_prefetch(&slots_[HomeSlot(probes[prefetched].key)]);
      }
      const std::uint64_t top = slots_[FindSlot(probes[next].key)].top;
      if (top > base_seq_) {
        c = Chain{next++, top, 0};
        __builtin_prefetch(&link_at(top));
        return true;
      }
      stops[next] = BatchScratch::ChainStop{};  // no live record of the key
    }
    return false;
  };

  std::array<Chain, kChainsInFlight> chains;
  std::size_t live = 0;
  while (live < chains.size() && start(chains[live])) ++live;
  while (live > 0) {
    for (std::size_t k = 0; k < live;) {
      Chain& c = chains[k];
      const SealedProbe& p = probes[c.probe];
      const Link& l = link_at(c.top);
      // Newest to oldest: timestamps fall along the chain, so the walk
      // stops at the window's lower edge or at the first expired seq.
      c.top = 0;
      if (l.ts >= p.min_ts) {
        if (l.ts <= p.max_ts) {
          first[c.probe * kInterleavedMatches + c.count++] = l.ts;
        }
        if (l.prev > base_seq_) c.top = l.prev;
      }
      if (c.top != 0 && c.count < kInterleavedMatches) {
        __builtin_prefetch(&link_at(c.top));
        ++k;
        continue;
      }
      // The chain ended, or it parks with its share of matches collected.
      stops[c.probe] = BatchScratch::ChainStop{c.top, c.count};
      if (start(c)) {
        ++k;
      } else {
        c = chains[--live];  // the last chain moves here and walks next
      }
    }
  }
}

void MiniPartition::WalkRest(const SealedProbe& p, std::uint64_t top,
                             std::vector<Time>& out) const {
  const std::size_t link_mask = links_.size() - 1;
  while (top > base_seq_) {
    const Link& l = links_[(top - 1) & link_mask];
    if (l.ts < p.min_ts) break;
    if (l.ts <= p.max_ts) out.push_back(l.ts);
    top = l.prev;
  }
}

std::span<const Time> MiniPartition::FinishProbe(const SealedProbe& p,
                                                 std::size_t i,
                                                 BatchScratch& scratch) const {
  const BatchScratch::ChainStop stop = scratch.stops_[i];
  Time* first = scratch.first_.data() + i * kInterleavedMatches;
  if (stop.top == 0) {
    std::reverse(first, first + stop.count);
    return {first, stop.count};
  }
  scratch.rest_.assign(first, first + stop.count);
  WalkRest(p, stop.top, scratch.rest_);
  std::reverse(scratch.rest_.begin(), scratch.rest_.end());
  return scratch.rest_;
}

std::size_t MiniPartition::IndexKeyCount() const {
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [&](const Slot& s) { return s.top > base_seq_; }));
}

std::size_t MiniPartition::ExpireBlocks(Time low_ts) {
  std::size_t expired = 0;
  // The head block never expires: it is the insertion point and its fresh
  // records have not probed yet. Every other block is full and sealed, so
  // its records are the oldest live seqs.
  while (blocks_.size() > 1 && blocks_.front().MaxTs() < low_ts) {
    expired += blocks_.front().Size();
    blocks_.pop_front();
  }
  base_seq_ += expired;
  total_count_ -= expired;
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
