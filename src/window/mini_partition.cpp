#include "window/mini_partition.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "common/rng.h"

namespace sjoin {

namespace {

/// Smallest key table allocated at the first seal.
constexpr std::size_t kMinIndexSize = 16;
/// Smallest block-pointer ring allocated at the first insert.
constexpr std::size_t kMinRingSize = 4;
/// Live slots ahead whose newest key a rebuild prefetches.
constexpr std::size_t kRebuildPrefetch = 8;

}  // namespace

MiniPartition::MiniPartition(std::size_t block_capacity, StreamId stream)
    : block_capacity_(block_capacity),
      stream_(stream),
      seq_shift_(static_cast<unsigned>(std::bit_width(block_capacity - 1))) {
  assert(block_capacity > 0);
}

void MiniPartition::AppendBlock() {
  // A slot word keeps seq + 1 in 48 bits; the block's last seq + 1 is
  // (next_block_ + 1) << seq_shift_.
  if (((next_block_ + 1) << seq_shift_) > kTopMask) {
    throw std::length_error("MiniPartition: record seqs past 2^48");
  }
  if (BlockCount() == ring_.size()) {
    ResizeRing(std::max(ring_.size() * 2, kMinRingSize));
  }
  ring_[next_block_ & (ring_.size() - 1)] =
      std::make_unique_for_overwrite<std::byte[]>(
          block_capacity_ * (sizeof(Link) + sizeof(std::uint64_t)));
  ++next_block_;
  head_size_ = 0;
}

void MiniPartition::ResizeRing(std::size_t capacity) {
  std::vector<BlockPtr> next(capacity);
  for (std::uint64_t b = base_block_; b < next_block_; ++b) {
    next[b & (capacity - 1)] = std::move(ring_[b & (ring_.size() - 1)]);
  }
  ring_.swap(next);
}

void MiniPartition::Insert(const Rec& rec) {
  assert(rec.ts >= max_seen_ts_);
  assert(rec.stream == stream_);
  assert(!HeadFull() && "seal a full head before inserting more");
  if (BlockCount() == 0 || head_size_ == block_capacity_) {
    AppendBlock();
  }
  const std::uint64_t head = next_block_ - 1;
  LinksOf(head)[head_size_] = Link{rec.ts, 0};
  KeysOf(head)[head_size_] = rec.key;
  ++head_size_;
  ++fresh_;
  ++total_count_;
  max_seen_ts_ = rec.ts;
}

void MiniPartition::Seal() {
  if (fresh_ == 0) return;
  if (slots_.empty()) RebuildTable(1);
  const std::uint64_t head = next_block_ - 1;
  Link* links = LinksOf(head);
  const std::uint64_t* keys = KeysOf(head);
  const std::size_t first = head_size_ - fresh_;
  // Linking a record of a live key reads its home slot and then the key of
  // the newest record that slot names: two dependent misses. So every fresh
  // record's home slot is prefetched first, then the newest key of a live
  // slot there with the record's tag, and only then are the records linked,
  // in order.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = first; j < head_size_; ++j) {
    __builtin_prefetch(&slots_[SlotHash(keys[j]) & mask]);
  }
  for (std::size_t j = first; j < head_size_; ++j) {
    const std::uint64_t hash = SlotHash(keys[j]);
    const std::uint64_t word = slots_[hash & mask];
    if ((word & ~kTopMask) == (hash & ~kTopMask) &&
        (word & kTopMask) > base_seq_) {
      __builtin_prefetch(KeyAt((word & kTopMask) - 1));
    }
  }
  for (std::size_t j = first; j < head_size_; ++j) {
    IndexRecord(keys[j], (head << seq_shift_) + j, links[j]);
  }
  fresh_ = 0;
}

std::uint64_t MiniPartition::SlotHash(std::uint64_t key) {
  // Decorrelated from PartitionOf and PartitionGroup::TuneHash: every key
  // here shares their low bits, which would cluster a table indexed by them.
  return Mix64(key ^ 0x8CB92BA72F3D8DD7ULL);
}

std::size_t MiniPartition::NextTagged(std::uint64_t tag, std::size_t i) const {
  const std::size_t mask = slots_.size() - 1;
  for (;; i = (i + 1) & mask) {
    const std::uint64_t word = slots_[i];
    if (word == 0) return kNoSlot;
    if ((word & ~kTopMask) == tag && (word & kTopMask) > base_seq_) return i;
  }
}

void MiniPartition::IndexRecord(std::uint64_t key, std::uint64_t seq,
                                Link& link) {
  const std::uint64_t hash = SlotHash(key);
  const std::uint64_t tag = hash & ~kTopMask;
  std::size_t mask = slots_.size() - 1;
  std::size_t dead = kNoSlot;  // the first dead slot the search passed
  std::size_t i = hash & mask;
  for (std::uint64_t word; (word = slots_[i]) != 0; i = (i + 1) & mask) {
    const std::uint64_t top = word & kTopMask;
    if (top <= base_seq_) {
      if (dead == kNoSlot) dead = i;
    } else if ((word & ~kTopMask) == tag && *KeyAt(top - 1) == key) {
      link.prev = top;  // the key's newest sealed record until now
      slots_[i] = tag | (seq + 1);
      return;
    }
  }
  // A new key (its link's `prev` stays 0): it takes the first dead slot
  // its search passed, else the empty one, rebuilding first at 3/4 load.
  if (dead != kNoSlot) {
    i = dead;
  } else {
    if ((used_slots_ + 1) * 4 > slots_.size() * 3) {
      RebuildTable(1);
      mask = slots_.size() - 1;
      for (i = hash & mask; slots_[i] != 0;) i = (i + 1) & mask;
    }
    ++used_slots_;
  }
  slots_[i] = tag | (seq + 1);
}

void MiniPartition::RebuildTable(std::size_t extra) {
  // One pass over the old table moves its live slots, in table order, to
  // its front; the new table is sized from their count and filled from
  // there in the same order, each slot placed by the key of its newest
  // record, which is prefetched a few slots ahead.
  std::vector<std::uint64_t> old;
  old.swap(slots_);
  std::size_t live = 0;
  for (const std::uint64_t word : old) {
    if ((word & kTopMask) > base_seq_) old[live++] = word;  // skip empty, dead
  }
  slots_.resize(std::bit_ceil(std::max((live + extra) * 2, kMinIndexSize)));
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t k = 0; k < live; ++k) {
    if (k + kRebuildPrefetch < live) {
      __builtin_prefetch(KeyAt((old[k + kRebuildPrefetch] & kTopMask) - 1));
    }
    std::size_t i = SlotHash(*KeyAt((old[k] & kTopMask) - 1)) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = old[k];
  }
  used_slots_ = live;
  ++rebuilds_;
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
  const std::size_t table_mask = slots_.size() - 1;

  // An in-flight probe: which one, seq + 1 of the next link to read, that
  // link's address (looked up once, when it is prefetched), the matches it
  // has collected, and until its first round confirms the key, the slot
  // whose tag matched.
  struct Chain {
    std::size_t probe = 0;
    std::uint64_t top = 0;
    const Link* link = nullptr;
    std::size_t count = 0;
    std::size_t slot = kNoSlot;  // kNoSlot once the key is confirmed
  };
  // Points `c` at the chain of the live slot `i` and prefetches the chain's
  // first link and key.
  const auto enter = [&](Chain& c, std::size_t i) {
    c.top = slots_[i] & kTopMask;
    c.link = LinkAt(c.top - 1);
    c.slot = i;
    __builtin_prefetch(c.link);
    __builtin_prefetch(KeyAt(c.top - 1));
  };
  std::size_t next = 0;         // the next probe to start
  std::size_t prefetched = 0;   // probes whose home slot is prefetched
  // Starts the next probe that has a live slot with its tag on `c`,
  // prefetching home slots kChainsInFlight probes ahead. False once every
  // probe has started.
  const auto start = [&](Chain& c) {
    for (; next < probes.size(); ++next) {
      const std::size_t ahead =
          std::min(next + kChainsInFlight, probes.size());
      for (; prefetched < ahead; ++prefetched) {
        __builtin_prefetch(
            &slots_[SlotHash(probes[prefetched].key) & table_mask]);
      }
      const std::uint64_t hash = SlotHash(probes[next].key);
      const std::size_t i = NextTagged(hash & ~kTopMask, hash & table_mask);
      if (i != kNoSlot) {
        c = Chain{next++, 0, nullptr, 0, kNoSlot};
        enter(c, i);
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
      if (c.slot != kNoSlot && *KeyAt(c.top - 1) != p.key) {
        // A tag collision: the key's slot, if any, lies further on.
        const std::uint64_t tag = SlotHash(p.key) & ~kTopMask;
        const std::size_t i = NextTagged(tag, (c.slot + 1) & table_mask);
        if (i != kNoSlot) {
          enter(c, i);
          ++k;
          continue;
        }
        c.top = 0;  // no live record of the key
      } else {
        c.slot = kNoSlot;
        const Link& l = *c.link;
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
          c.link = LinkAt(c.top - 1);
          __builtin_prefetch(c.link);
          ++k;
          continue;
        }
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
  // A parked chain is a hot key's, whose records sit close together, so it
  // stays in one block for several links: the ring is read again only when
  // the walk leaves the block, and within it a link's slot is `top` less
  // the block's first seq + 1.
  const std::uint64_t base = base_seq_;
  std::uint64_t first_top = 0;  // the current block's first seq + 1
  std::uint64_t size = 0;       // its capacity; 0 before the first block
  const Link* links = nullptr;
  while (top > base) {
    std::uint64_t slot = top - first_top;
    if (slot >= size) {
      const std::uint64_t block = (top - 1) >> seq_shift_;
      first_top = (block << seq_shift_) + 1;
      size = block_capacity_;
      links = LinksOf(block);
      slot = top - first_top;
    }
    const Link& l = links[slot];
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
  return static_cast<std::size_t>(std::count_if(
      slots_.begin(), slots_.end(),
      [&](std::uint64_t word) { return (word & kTopMask) > base_seq_; }));
}

std::size_t MiniPartition::StorageBytes() const {
  return BlockCount() * block_capacity_ *
             (sizeof(Link) + sizeof(std::uint64_t)) +
         ring_.size() * sizeof(BlockPtr) +
         slots_.size() * sizeof(std::uint64_t);
}

std::size_t MiniPartition::ExpireBlocks(Time low_ts) {
  std::size_t expired = 0;
  // The head block never expires: it is the insertion point and its fresh
  // records have not probed yet. Every other block is full and sealed, so
  // its records are the oldest live seqs.
  while (BlockCount() > 1 &&
         LinksOf(base_block_)[block_capacity_ - 1].ts < low_ts) {
    ring_[base_block_ & (ring_.size() - 1)].reset();
    ++base_block_;
    expired += block_capacity_;
  }
  base_seq_ = base_block_ << seq_shift_;
  total_count_ -= expired;
  // Shrink each array once its live share falls below 1/8 (live keys never
  // outnumber live sealed records), so a burst does not pin its memory.
  if (ring_.size() > kMinRingSize && BlockCount() * 8 < ring_.size()) {
    ResizeRing(std::bit_ceil(std::max(BlockCount() * 2, kMinRingSize)));
  }
  if (slots_.size() > kMinIndexSize && SealedCount() * 8 < slots_.size()) {
    RebuildTable(0);
  }
  return expired;
}

void MiniPartition::InstallSealed(const Rec& rec) {
  assert(FreshCount() == 0 && "installing would seal fresh records unindexed");
  Insert(rec);
  Seal();
}

}  // namespace sjoin
