#include "core/replica_chain.h"

#include <algorithm>
#include <iterator>
#include <limits>

namespace sjoin {

bool ReplicaChain::Apply(ReplicaSegment seg, std::uint64_t committed_epoch) {
  // Dedup on the covered epoch: a duplicated or overtaken segment re-acks
  // harmlessly (the master's watermark comparison absorbs the ack).
  if (!chain_.empty() && seg.to <= chain_.back().seg.to) return false;
  Time newest = std::numeric_limits<Time>::min();
  for (const Rec& rec : seg.recs) newest = std::max(newest, rec.ts);
  records_ += seg.recs.size();
  chain_.push_back(Applied{std::move(seg), newest});
  committed_ = std::max(committed_, committed_epoch);
  Prune();
  return true;
}

void ReplicaChain::Prune() {
  // (1) The newest full snapshot at or below the committed epoch: every
  // rebuild keeps it, so none can start at an older segment.
  std::size_t base = chain_.size();
  for (std::size_t i = chain_.size(); i-- > 0;) {
    if (chain_[i].seg.full && chain_[i].seg.to <= committed_) {
      base = i;
      break;
    }
  }
  if (base == chain_.size()) return;
  // (2) The newest segment at or below the committed epoch bounds from below
  // the watermark of whatever segment ends a rebuild.
  std::size_t k = base;
  while (k + 1 < chain_.size() && chain_[k + 1].seg.to <= committed_) ++k;
  const Time expire = chain_[k].seg.expire_before;
  std::size_t first = base;
  while (first + 1 < chain_.size() && chain_[first].newest < expire &&
         !chain_[first + 1].seg.full &&
         chain_[first + 1].seg.from == chain_[first].seg.to) {
    ++first;
  }
  if (first == 0) return;
  for (std::size_t i = 0; i < first; ++i) {
    records_ -= chain_[i].seg.recs.size();
  }
  chain_.erase(chain_.begin(),
               chain_.begin() + static_cast<std::ptrdiff_t>(first));
  pruned_ += first;
  chain_.front().seg.full = true;
}

std::vector<Rec> ReplicaChain::Rebuild(std::uint64_t replay_from) {
  // Unacknowledged segments are discarded: the replay regenerates them.
  while (!chain_.empty() && chain_.back().seg.to >= replay_from) {
    chain_.pop_back();
  }
  std::size_t base = chain_.size();
  for (std::size_t i = chain_.size(); i-- > 0;) {
    if (chain_[i].seg.full) {
      base = i;
      break;
    }
  }
  std::vector<Rec> recs;
  if (base < chain_.size()) {
    const Time expire = chain_.back().seg.expire_before;
    std::uint64_t prev_to = 0;
    for (std::size_t i = base; i < chain_.size(); ++i) {
      const ReplicaSegment& seg = chain_[i].seg;
      if (i > base && seg.from != prev_to) break;  // torn chain
      prev_to = seg.to;
      std::copy_if(seg.recs.begin(), seg.recs.end(), std::back_inserter(recs),
                   [&](const Rec& rec) { return rec.ts >= expire; });
    }
  }
  chain_.clear();
  records_ = 0;
  return recs;
}

}  // namespace sjoin
