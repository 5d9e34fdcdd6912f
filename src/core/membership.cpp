#include "core/membership.h"

#include <algorithm>
#include <cassert>

namespace sjoin {

MembershipTable::MembershipTable(std::uint32_t n,
                                 std::uint32_t initial_members)
    : alive_(n, true), member_(n, false), evicted_at_(n, 0) {
  assert(initial_members >= 1 && initial_members <= n);
  for (std::uint32_t s = 0; s < initial_members; ++s) member_[s] = true;
}

std::uint32_t MembershipTable::LiveCount() const {
  return static_cast<std::uint32_t>(
      std::count(alive_.begin(), alive_.end(), true));
}

std::uint32_t MembershipTable::MemberCount() const {
  std::uint32_t n = 0;
  for (SlaveIdx s = 0; s < alive_.size(); ++s) {
    if (Active(s)) ++n;
  }
  return n;
}

std::vector<SlaveIdx> MembershipTable::Members() const {
  std::vector<SlaveIdx> out;
  for (SlaveIdx s = 0; s < alive_.size(); ++s) {
    if (Active(s)) out.push_back(s);
  }
  return out;
}

std::vector<SlaveIdx> MembershipTable::Standbys() const {
  std::vector<SlaveIdx> out;
  for (SlaveIdx s = 0; s < alive_.size(); ++s) {
    if (alive_[s] && !member_[s]) out.push_back(s);
  }
  return out;
}

void MembershipTable::Admit(SlaveIdx s) {
  if (alive_[s]) member_[s] = true;
}

void MembershipTable::Retire(SlaveIdx s) { member_[s] = false; }

bool MembershipTable::Evict(SlaveIdx s, std::uint64_t epoch) {
  if (!alive_[s]) return false;
  alive_[s] = false;
  member_[s] = false;
  evicted_at_[s] = epoch;
  return true;
}

bool MembershipTable::CanStart(const MembershipEvent& ev) const {
  if (ev.slave >= alive_.size()) return false;
  return ev.join ? Alive(ev.slave) && !Member(ev.slave)
                 : Active(ev.slave) && MemberCount() > 1;
}

MembershipQueue::MembershipQueue(std::vector<MembershipEvent> schedule) {
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const MembershipEvent& a, const MembershipEvent& b) {
                     return a.epoch < b.epoch;
                   });
  schedule_.assign(schedule.begin(), schedule.end());
}

std::optional<MembershipEvent> MembershipQueue::Pop(std::uint64_t epoch) {
  const bool due = !schedule_.empty() && schedule_.front().epoch <= epoch;
  std::deque<MembershipEvent>& from = due ? schedule_ : proposals_;
  if (from.empty()) return std::nullopt;
  const MembershipEvent ev = from.front();
  from.pop_front();
  return ev;
}

bool AcceptCheckpointAck(bool src_alive, bool src_is_current_buddy,
                         std::uint64_t covered_epoch,
                         std::uint64_t acked_watermark) {
  return src_alive && src_is_current_buddy && covered_epoch > acked_watermark;
}

ScaleDecision ElasticPolicy::Observe(double mean_occupancy,
                                     std::uint32_t members,
                                     std::uint32_t standbys,
                                     double skew_ratio) {
  if (cooldown_ > 0) {
    --cooldown_;
    surge_streak_ = 0;
    idle_streak_ = 0;
    return ScaleDecision::kNone;
  }
  const bool skew_veto =
      cfg_.skew_scale_in_veto > 0.0 && skew_ratio >= cfg_.skew_scale_in_veto;
  if (mean_occupancy > cfg_.surge_occupancy) {
    ++surge_streak_;
    idle_streak_ = 0;
  } else if (mean_occupancy < cfg_.idle_occupancy && !skew_veto) {
    ++idle_streak_;
    surge_streak_ = 0;
  } else {
    surge_streak_ = 0;
    idle_streak_ = 0;
  }
  if (surge_streak_ >= cfg_.surge_epochs && standbys > 0) {
    surge_streak_ = 0;
    idle_streak_ = 0;
    cooldown_ = cfg_.cooldown_epochs;
    return ScaleDecision::kOut;
  }
  if (idle_streak_ >= cfg_.idle_epochs && members > 1) {
    surge_streak_ = 0;
    idle_streak_ = 0;
    cooldown_ = cfg_.cooldown_epochs;
    return ScaleDecision::kIn;
  }
  return ScaleDecision::kNone;
}

}  // namespace sjoin
