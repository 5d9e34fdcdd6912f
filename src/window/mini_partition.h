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
// Expiry is lazy and block-granular, as the paper's window is: whole blocks
// leave in arrival order, so ExpireBlocks only advances base_seq by their
// sizes and touches no index entry. A chain ends at the first seq below
// base_seq (its link slot may already hold a newer record), and a slot
// whose newest seq is below base_seq is a dead key: the same key's next
// seal reuses it, and a rebuild at 3/4 table load keeps only live keys.
// Once the live sealed records fall below 1/8 of either array, that array
// shrinks, so a burst of keys does not pin its memory afterwards.
#pragma once

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
  std::span<const Time> ProbeSealed(std::uint64_t key, Time min_ts,
                                    Time max_ts, std::vector<Time>& out) const;

  /// Number of sealed records a BNL probe would scan (the comparison count
  /// charged per probe tuple).
  std::size_t SealedCount() const {
    return static_cast<std::size_t>(next_seq_ - base_seq_);
  }

  // -- Expiry ---------------------------------------------------------------

  /// Removes whole non-head blocks whose newest record is older than
  /// `low_ts` and returns them (the paper joins an expiring block against
  /// the opposite head's fresh tuples before discarding it).
  std::vector<Block> ExpireBlocks(Time low_ts);

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
  /// The key's table slot, or the empty slot where it would go.
  std::size_t FindSlot(std::uint64_t key) const;

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
