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
// Index layout (a hash chain over sequence-numbered records). Every sealed
// record gets the next running sequence number `seq`; sealing follows
// arrival order, so seq order is timestamp order, and the live sealed
// records are exactly the seqs [base_seq, next_seq). Two flat arrays hold
// the index, both power-of-two sized and allocated at the first seal:
//   * a linear-probing table of 16-byte slots {key, newest sealed seq + 1}
//     (0 marks an empty slot);
//   * a ring of 16-byte links {ts, seq + 1 of the key's previous sealed
//     record}, one per live sealed record, stored at seq & (ring size - 1).
// A probe walks one key's chain from its newest record towards older ones.
//
// Probes walk their chains interleaved. On a busy slave the index is far
// larger than a core's L2 cache, so nearly every link a probe reads misses
// it, and a chain's links are dependent loads: one walk at a time waits out
// each miss in turn. ProbeSealedBatch keeps kChainsInFlight probes in
// flight, in the style of AMAC (Kocberber et al., "Asynchronous Memory
// Access Chaining", VLDB 2015): each in-flight probe is a state {probe
// index, next seq, matches so far}; every round advances each chain by one
// link and prefetches its next link; a finished probe is replaced at once by
// the next one, whose home slot was prefetched kChainsInFlight probes ahead.
// A probe holds at most kInterleavedMatches matches in the interleaved walk:
// a longer chain parks there and walks its rest alone when its probe's turn
// to emit comes, so a batch buffers a bounded slice per probe plus one whole
// chain, not every probe's full match list (a hot key's chain can span a
// whole window). Probes emit in batch order with their matches ascending, so
// the result is the same as one walk at a time.
// Seal is not interleaved: per record it reads one slot and writes one link
// at the ring's sequential tail, and successive records' slot reads do not
// depend on each other, so the core already overlaps their misses (a
// look-ahead slot prefetch there measured within noise).
//
// Expiry is lazy and block-granular, as the paper's window is: whole blocks
// leave in arrival order, so ExpireBlocks only advances base_seq by their
// sizes and touches no index entry. A chain ends at the first seq below
// base_seq (its link slot may already hold a newer record), and a slot
// whose newest seq is below base_seq is a dead key: the same key's next
// seal reuses it, and a rebuild at 3/4 table load keeps only live keys.
// Once the live sealed records fall below 1/8 of either array, that array
// shrinks, so a burst of keys does not pin its memory afterwards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/time.h"
#include "tuple/block.h"
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

  explicit MiniPartition(std::size_t block_capacity);

  // -- Ingest ---------------------------------------------------------------

  /// Appends an arriving record to the head block as *fresh* (not yet
  /// visible to probes). Records must arrive in non-decreasing ts order, and
  /// a full head must be sealed before the next insert (fresh records only
  /// ever live in the head block).
  void Insert(const Rec& rec);

  /// True when the head block is full and a join pass is due.
  bool HeadFull() const;

  /// Records inserted since the last Seal() (the paper's fresh tuples).
  std::span<const Rec> FreshRecords() const;
  std::size_t FreshCount() const;

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
  std::size_t SealedCount() const {
    return static_cast<std::size_t>(next_seq_ - base_seq_);
  }

  // -- Expiry ---------------------------------------------------------------

  /// Removes whole non-head blocks whose newest record is older than
  /// `low_ts` and returns the number of records they held.
  std::size_t ExpireBlocks(Time low_ts);

  // -- Introspection / state movement ----------------------------------------

  std::size_t TotalCount() const { return total_count_; }
  std::size_t BlockCount() const { return blocks_.size(); }
  Time MaxSeenTs() const { return max_seen_ts_; }

  /// Distinct keys with at least one live sealed record (a table scan; for
  /// tests). Dead keys may still occupy slots until the next rebuild.
  std::size_t IndexKeyCount() const;
  /// Slots in the key table (0 before the first seal).
  std::size_t IndexBucketCount() const { return slots_.size(); }
  /// Links in the chain ring (0 before the first seal).
  std::size_t IndexRingSize() const { return links_.size(); }

  /// Visits all records (sealed then fresh) in temporal order.
  template <class F>
  void ForEachRecord(F f) const {
    for (const Block& b : blocks_) {
      for (const Rec& r : b.Records()) f(r);
    }
  }

  /// Appends a record directly as sealed (used when installing migrated
  /// window state). Records must be appended in ts order, and the partition
  /// must hold no fresh records.
  void InstallSealed(const Rec& rec);

 private:
  /// Key table slot. `top` is the key's newest sealed seq + 1; 0 = empty.
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t top = 0;
  };
  /// Per-record chain link. `prev` is the seq + 1 of the key's previous
  /// sealed record (0 = none); it is only followed while above base_seq_.
  struct Link {
    Time ts = 0;
    std::uint64_t prev = 0;
  };

  Block& HeadBlock();
  /// Makes room in the ring for `n` more live sealed records.
  void ReserveLinks(std::size_t n);
  void ResizeLinks(std::size_t capacity);
  /// Re-inserts the live keys into a table sized for `live_keys + extra`.
  void RebuildTable(std::size_t extra);
  /// Gives `rec` the next seq and links it into its key's chain.
  void IndexRecord(const Rec& rec);
  /// Where the key's linear probe of the table starts.
  std::size_t HomeSlot(std::uint64_t key) const;
  /// The key's table slot, or the empty slot where it would go.
  std::size_t FindSlot(std::uint64_t key) const;
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
  std::deque<Block> blocks_;  // oldest first; back() is the head block
  std::vector<Slot> slots_;   // power of two, or empty before the first seal
  std::vector<Link> links_;   // power of two, or empty before the first seal
  std::size_t used_slots_ = 0;  // non-empty slots, live and dead keys
  std::uint64_t base_seq_ = 0;  // seq of the oldest live sealed record
  std::uint64_t next_seq_ = 0;  // seq of the next sealed record
  std::size_t total_count_ = 0;
  Time max_seen_ts_ = 0;
};

}  // namespace sjoin
