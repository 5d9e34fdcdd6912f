// MigrationTable: the master's in-flight partition-group migrations
// (runner.h protocol step 3). A move lives from its kMoveCmd/kInstallCmd
// until both movers ack it, and while it lives its group is withheld from
// every batch. Pure bookkeeping -- the runner sends the commands and waits
// for the acks -- so a test can drive it alone.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "core/partition_map.h"

namespace sjoin {

class MigrationTable {
 public:
  /// Records a move and returns its seq (1, 2, ... over the run).
  std::uint64_t Issue(PartitionId pid, SlaveIdx sup, SlaveIdx con) {
    moves_.push_back(Move{next_seq_, pid, sup, con, false, false});
    return next_seq_++;
  }

  /// Marks `src`'s ack of move `seq`; the move ends once both movers acked.
  /// An ack naming no live move (a duplicate of a finished or cancelled
  /// one) changes nothing.
  void Ack(SlaveIdx src, std::uint64_t seq) {
    for (Move& mv : moves_) {
      if (mv.seq != seq) continue;
      if (src == mv.sup) mv.sup_acked = true;
      if (src == mv.con) mv.con_acked = true;
    }
    std::erase_if(moves_,
                  [](const Move& mv) { return mv.sup_acked && mv.con_acked; });
  }

  /// Ends every move `dead` was party to and returns the orphans: the
  /// groups whose supplier died before the consumer acked. The transfer may
  /// never have been sent, so such a group's state is in limbo; with
  /// replication it fails over like the dead slave's own groups.
  std::vector<PartitionId> Cancel(SlaveIdx dead) {
    std::vector<PartitionId> orphans;
    std::erase_if(moves_, [&](const Move& mv) {
      if (mv.sup != dead && mv.con != dead) return false;
      if (mv.sup == dead && !mv.con_acked) orphans.push_back(mv.pid);
      return true;
    });
    return orphans;
  }

  /// Whether a move of `pid` is in flight: its tuples are withheld.
  bool Withheld(PartitionId pid) const {
    return std::any_of(moves_.begin(), moves_.end(),
                       [&](const Move& mv) { return mv.pid == pid; });
  }

  /// `owned` without its withheld groups, in order.
  std::vector<PartitionId> Settled(std::vector<PartitionId> owned) const {
    std::erase_if(owned, [&](PartitionId pid) { return Withheld(pid); });
    return owned;
  }

  bool Empty() const { return moves_.empty(); }

  /// The slave the oldest move waits on: its supplier until that acks,
  /// then its consumer. Requires !Empty().
  SlaveIdx NextMover() const {
    assert(!moves_.empty());
    return moves_.front().sup_acked ? moves_.front().con : moves_.front().sup;
  }

 private:
  /// One move of `pid` from `sup` to `con`, until both ack.
  struct Move {
    std::uint64_t seq = 0;
    PartitionId pid = 0;
    SlaveIdx sup = 0;
    SlaveIdx con = 0;
    bool sup_acked = false;
    bool con_acked = false;
  };

  std::vector<Move> moves_;  ///< in issue order
  std::uint64_t next_seq_ = 1;
};

}  // namespace sjoin
