// MiniPartition: one stream's sliding-window state within one
// (mini-)partition-group of a slave.
//
// Storage is a temporally ordered list of fixed-size blocks, exactly as the
// paper requires ("the tuples should maintain the temporal order in the
// stream; this constraint makes any sort-based algorithm infeasible").
// Incoming tuples accumulate as *fresh* records in the head block; a join
// pass seals them, making them visible to opposite-side probes.
//
// The block-nested-loop probe the paper runs over the opposite partition is
// preserved semantically and in cost accounting, but match *finding* is
// accelerated by a per-key index so the execution-driven simulation can
// process millions of tuples: `ProbeSealed` returns exactly the records a
// BNL scan would match, while the caller charges the scan's comparison count
// (`SealedCount()`) to the virtual clock. tests/join/bnl_equivalence_test.cpp
// proves output- and cost-equivalence against the reference BNL join.
//
// Storage layout: the blocks are the only store of a record. Each block is
// one allocation of `capacity` chain links {ts, seq + 1 of the key's
// previous sealed record}, then their `capacity` keys (24 bytes a record,
// no stream byte: a partition holds one stream). Every record gets a
// sequence number from its place: block n's records are the seqs from
// n * 2^k on, where 2^k is the block capacity rounded up to a power of two,
// so a capacity like 3 still finds a seq's block by a shift and its slot by
// a mask. A small power-of-two ring of block pointers, indexed by block
// number, maps a seq to its block; the live records are the seqs from
// base_seq (the oldest live block's first) to the head block's newest.
// A linear-probing table of 8-byte slot words starts each key's chain, and
// a probe walks it from the newest record towards older ones. A word holds
// a 16-bit tag, the top bits of the key's hash (the home slot takes the low
// ones), over the key's newest sealed seq + 1 in 48 bits (0 marks an empty
// slot); AppendBlock refuses a seq that would not fit. The key itself is
// not in the table: a tag match on a live slot is confirmed against the key
// of the slot's newest record, read from its block, so each live key owns
// exactly one slot and one chain. A record's link gets its `prev` when the
// record is sealed, so chains only hold sealed records; sealing follows
// arrival order, so seq order is timestamp order.
//
// Probes walk their chains interleaved. On a busy slave the index is far
// larger than a core's L2 cache, so nearly every link a probe reads misses
// it, and a chain's links are dependent loads: one walk at a time waits out
// each miss in turn. ProbeSealedBatch keeps kChainsInFlight probes in
// flight, in the style of AMAC (Kocberber et al., "Asynchronous Memory
// Access Chaining", VLDB 2015): each in-flight probe is a state {probe
// index, next seq, that seq's link address, matches so far}; every round
// advances each chain by one link and prefetches its next link, whose
// address it looks up in the ring then; a finished probe is replaced at once
// by the next one, whose home slot was prefetched kChainsInFlight probes
// ahead. A chain's first round confirms its key, whose line was prefetched
// with the first link's; on a tag collision the probe resumes its slot
// search past that slot. A probe holds at most kInterleavedMatches matches
// in the interleaved walk: a longer chain parks there and walks its rest
// alone when its probe's turn to emit comes, reading the ring only when it
// leaves a block, so a batch buffers a bounded slice per probe plus one
// whole chain, not every probe's full match list (a hot key's chain can
// span a whole window). Probes emit in batch order with their matches
// ascending, so the result is the same as one walk at a time.
// Seal is not interleaved: per record it reads one slot and, for a key
// already live, its newest record's key, and writes the `prev` of one link
// in the head block. Successive records do not depend on each other, so it
// prefetches every fresh record's home slot, then each live slot's newest
// key, and links the records after that, so their misses overlap.
//
// Expiry is lazy and block-granular, as the paper's window is: whole blocks
// leave in arrival order, so ExpireBlocks frees them, advances base_seq past
// them and touches no index entry. A chain ends at the first seq below
// base_seq (that seq's ring entry may already hold a newer block), and a
// slot whose newest seq is below base_seq is a dead key's: its block may be
// gone, so it matches no key, and a new key takes the first dead slot its
// search passed before the empty slot that ends it. A rebuild at 3/4 table
// load (live and dead slots) keeps only live keys. Once the live blocks fall
// below 1/8 of the ring, or the live sealed records below 1/8 of the table,
// that array shrinks, so a burst of keys does not pin its memory afterwards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "common/time.h"
#include "tuple/tuple.h"

namespace sjoin {

class MiniPartition {
 public:
  /// Chains ProbeSealedBatch walks at once. 8, 16 and 32 read alike on an
  /// in-process replay of the `saturate` workload's slave join (seed 9003,
  /// 2 workers, batches in pid order, 4-vCPU Xeon): 4.7-4.9M, 4.5-5.1M and
  /// 5.0-5.2M tuples/s over the burst in three runs each, against 3.3-3.6M
  /// for one chain at a time (EXPERIMENTS.md "Interleaved chain walks").
  static constexpr std::size_t kChainsInFlight = 16;

  /// Matches a probe collects in the interleaved walk before its chain
  /// parks (see the file comment); a flush of 64 probes buffers 128 KB of
  /// them. On `saturate`'s full trace (seed 9003) probes with more than 16
  /// matches give 51 % of the output, with more than 256 only 1.8 %. On the
  /// replay above, five runs each: 256 read 3.53-4.24M tuples/s over the
  /// burst, 64 3.17-4.18M, 16 2.98-3.72M, and no bound at all 2.99-4.09M;
  /// a hot key's chain, which spans the window, walks its rest as one walk
  /// at a time would (EXPERIMENTS.md "Interleaved chain walks").
  static constexpr std::size_t kInterleavedMatches = 256;

  /// One probe of a batch: a key and the inclusive timestamp range it
  /// matches.
  struct SealedProbe {
    std::uint64_t key = 0;
    Time min_ts = 0;
    Time max_ts = 0;
  };

  /// Reusable buffers of ProbeSealedBatch, for any partition; a thread that
  /// probes needs its own.
  class BatchScratch {
    friend class MiniPartition;
    /// Where a probe's interleaved walk stopped: seq + 1 of the next link
    /// to read (0 once the chain ended) and the matches collected so far.
    struct ChainStop {
      std::uint64_t top = 0;
      std::size_t count = 0;
    };
    std::vector<Time> first_;  ///< probe i's first matches, newest first,
                               ///< at i * kInterleavedMatches
    std::vector<ChainStop> stops_;  ///< one per probe
    std::vector<Time> rest_;        ///< a parked probe's whole match list
  };

  /// A partition of stream `stream`'s records, in blocks of
  /// `block_capacity` records.
  MiniPartition(std::size_t block_capacity, StreamId stream);

  // -- Ingest ---------------------------------------------------------------

  /// Appends an arriving record of this partition's stream to the head
  /// block as *fresh* (not yet visible to probes). Records must arrive in
  /// non-decreasing ts order, and a full head must be sealed before the next
  /// insert (fresh records only ever live in the head block).
  void Insert(const Rec& rec);

  /// True when the head block is full and a join pass is due.
  bool HeadFull() const {
    return head_size_ == block_capacity_ && fresh_ > 0;
  }

  /// Records inserted since the last Seal() (the paper's fresh tuples).
  std::size_t FreshCount() const { return fresh_; }
  /// Fresh record `i`, oldest first (i < FreshCount()).
  Rec FreshRecord(std::size_t i) const {
    const std::size_t j = head_size_ - fresh_ + i;
    const std::uint64_t head = next_block_ - 1;
    return Rec{LinksOf(head)[j].ts, KeysOf(head)[j], stream_};
  }

  /// Seals every fresh record: marks it joined and enters it into the probe
  /// index. Call after the fresh batch has probed the opposite side.
  void Seal();

  // -- Probe ----------------------------------------------------------------

  /// Replaces the contents of `out` with the timestamps, ascending, of every
  /// *sealed* record with the given key and min_ts <= ts <= max_ts --
  /// precisely the matches a block-nested-loop scan of this partition would
  /// produce for an opposite-stream probe tuple with window
  /// [probe.ts - W, probe.ts + W] (fresh records are skipped per the paper's
  /// duplicate-elimination rule; the upper bound matters when a same-flush
  /// seal makes records newer than the probe visible). Returns a view of
  /// `out`. The caller owns the scratch, so concurrent probes of one
  /// partition need one `out` each and the method keeps no hidden state.
  /// A one-probe call of the batched walk.
  std::span<const Time> ProbeSealed(std::uint64_t key, Time min_ts,
                                    Time max_ts, std::vector<Time>& out) const;

  /// ProbeSealed for a whole batch, walking up to kChainsInFlight chains at
  /// once: calls emit(i, matches) once for each i, in ascending order, with
  /// `matches` the ProbeSealed result of probes[i]. The span points into
  /// `scratch` and is valid until emit returns.
  template <class Emit>
  void ProbeSealedBatch(std::span<const SealedProbe> probes,
                        BatchScratch& scratch, Emit emit) const {
    // Grow only: re-sizing a shrunk buffer would zero it again every flush.
    if (scratch.first_.size() < probes.size() * kInterleavedMatches) {
      scratch.first_.resize(probes.size() * kInterleavedMatches);
    }
    if (scratch.stops_.size() < probes.size()) {
      scratch.stops_.resize(probes.size());
    }
    WalkInterleaved(probes, scratch.first_.data(), scratch.stops_.data());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      emit(i, FinishProbe(probes[i], i, scratch));
    }
  }

  /// Number of sealed records a BNL probe would scan (the comparison count
  /// charged per probe tuple).
  std::size_t SealedCount() const { return total_count_ - fresh_; }

  // -- Expiry ---------------------------------------------------------------

  /// Removes whole non-head blocks whose newest record is older than
  /// `low_ts` and returns the number of records they held.
  std::size_t ExpireBlocks(Time low_ts);

  // -- Introspection / state movement ----------------------------------------

  std::size_t TotalCount() const { return total_count_; }
  /// Live blocks, the head block included.
  std::size_t BlockCount() const {
    return static_cast<std::size_t>(next_block_ - base_block_);
  }
  Time MaxSeenTs() const { return max_seen_ts_; }

  /// Distinct keys with at least one live sealed record (a table scan; for
  /// tests). Dead keys may still occupy slots until a new key or the next
  /// rebuild takes them.
  std::size_t IndexKeyCount() const;
  /// Slots in the key table (0 before the first seal).
  std::size_t IndexBucketCount() const { return slots_.size(); }
  /// Key table rebuilds so far (for tests).
  std::size_t RebuildCount() const { return rebuilds_; }
  /// The key table's hash of `key`: its low bits pick the home slot, its top
  /// 16 bits are the slot's tag (public so tests can make keys collide).
  static std::uint64_t SlotHash(std::uint64_t key);
  /// Entries in the block-pointer ring (0 before the first insert).
  std::size_t BlockRingSize() const { return ring_.size(); }

  /// Bytes the window's storage allocates: the live blocks, the
  /// block-pointer ring and the key table.
  std::size_t StorageBytes() const;

  /// Visits all records (sealed then fresh) in temporal order.
  template <class F>
  void ForEachRecord(F f) const {
    for (std::uint64_t b = base_block_; b < next_block_; ++b) {
      const Link* links = LinksOf(b);
      const std::uint64_t* keys = KeysOf(b);
      const std::size_t n = b + 1 == next_block_ ? head_size_ : block_capacity_;
      for (std::size_t j = 0; j < n; ++j) {
        f(Rec{links[j].ts, keys[j], stream_});
      }
    }
  }

  /// Appends a record directly as sealed (used when installing migrated
  /// window state). Records must be appended in ts order, and the partition
  /// must hold no fresh records.
  void InstallSealed(const Rec& rec);

 private:
  /// A key table slot word: the tag in the top 16 bits, the key's newest
  /// sealed seq + 1 in the rest (0 = empty).
  static constexpr unsigned kTopBits = 48;
  static constexpr std::uint64_t kTopMask =
      (std::uint64_t{1} << kTopBits) - 1;
  /// No slot (a search that found none).
  static constexpr std::size_t kNoSlot =
      std::numeric_limits<std::size_t>::max();
  /// Per-record chain link. `prev` is the seq + 1 of the key's previous
  /// sealed record (0 = none), set when the record is sealed; it is only
  /// followed while above base_seq_.
  struct Link {
    Time ts = 0;
    std::uint64_t prev = 0;
  };
  /// One block's storage: block_capacity_ links, then their keys. A byte
  /// array implicitly creates the Link and key arrays its accessors use.
  using BlockPtr = std::unique_ptr<std::byte[]>;

  /// Live block `block`'s links and keys.
  Link* LinksOf(std::uint64_t block) const {
    return std::launder(
        reinterpret_cast<Link*>(ring_[block & (ring_.size() - 1)].get()));
  }
  std::uint64_t* KeysOf(std::uint64_t block) const {
    return std::launder(reinterpret_cast<std::uint64_t*>(
        ring_[block & (ring_.size() - 1)].get() +
        block_capacity_ * sizeof(Link)));
  }
  /// Live record `seq`'s link and key.
  Link* LinkAt(std::uint64_t seq) const {
    return LinksOf(seq >> seq_shift_) + (seq & SeqSlotMask());
  }
  const std::uint64_t* KeyAt(std::uint64_t seq) const {
    return KeysOf(seq >> seq_shift_) + (seq & SeqSlotMask());
  }
  std::uint64_t SeqSlotMask() const {
    return (std::uint64_t{1} << seq_shift_) - 1;
  }

  /// Appends an empty head block, growing the ring when it is full.
  void AppendBlock();
  /// Moves the live blocks into a ring of `capacity` entries.
  void ResizeRing(std::size_t capacity);
  /// Re-inserts the live keys into a table sized for `live_keys + extra`.
  void RebuildTable(std::size_t extra);
  /// Links the record `key` at `seq` into its key's chain: sets its
  /// `link.prev` and makes it the key's newest sealed record. The table must
  /// exist.
  void IndexRecord(std::uint64_t key, std::uint64_t seq, Link& link);
  /// The first live slot from `i` on whose word carries `tag` (a SlotHash
  /// with its low 48 bits cleared), searching up to the first empty slot;
  /// kNoSlot if there is none.
  std::size_t NextTagged(std::uint64_t tag, std::size_t i) const;
  /// The interleaved walk: for each probe i, collects its first matches,
  /// newest first, at first[i * kInterleavedMatches] and records where its
  /// walk stopped in stops[i].
  void WalkInterleaved(std::span<const SealedProbe> probes, Time* first,
                       BatchScratch::ChainStop* stops) const;
  /// Appends the matches of `p` from seq `top` - 1 down, newest first.
  void WalkRest(const SealedProbe& p, std::uint64_t top,
                std::vector<Time>& out) const;
  /// Probe i's matches, ascending: its interleaved ones plus, when its
  /// chain parked, the rest of the walk. Call once per probe.
  std::span<const Time> FinishProbe(const SealedProbe& p, std::size_t i,
                                    BatchScratch& scratch) const;

  std::size_t block_capacity_;
  StreamId stream_;
  unsigned seq_shift_;          // log2 of a block's seq range
  std::vector<BlockPtr> ring_;  // power of two, or empty before first insert
  std::uint64_t base_block_ = 0;  // number of the oldest live block
  std::uint64_t next_block_ = 0;  // number of the next block to append
  std::size_t head_size_ = 0;     // records in the head block
  std::size_t fresh_ = 0;         // of those, not yet sealed (the newest)
  std::vector<std::uint64_t> slots_;  // slot words: power of two, or empty
                                      // before the first seal
  std::size_t used_slots_ = 0;  // non-empty slots, live and dead keys
  std::size_t rebuilds_ = 0;
  std::uint64_t base_seq_ = 0;  // first seq of the oldest live block
  std::size_t total_count_ = 0;
  Time max_seen_ts_ = 0;
};

}  // namespace sjoin
