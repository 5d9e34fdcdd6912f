#include "core/replication_ledger.h"

#include <algorithm>

#include "core/balancer.h"

namespace sjoin {

void ReplicationLedger::Retain(PartitionId pid, std::uint64_t epoch,
                               std::vector<Rec> run) {
  groups_[pid].touched = true;
  groups_[pid].retained.emplace_back(epoch, std::move(run));
}

void ReplicationLedger::BeginSweep() {
  for (Group& g : groups_) g.unacked.reset();
}

std::vector<CkptCmdMsg::Entry> ReplicationLedger::SweepEntries(
    SlaveIdx owner, std::uint64_t epoch, std::span<const PartitionId> pids) {
  std::vector<CkptCmdMsg::Entry> entries;
  for (PartitionId pid : pids) {
    Group& g = groups_[pid];
    const SlaveIdx buddy = g.pending.value_or(pmap_.BuddyOf(pid));
    if (!members_.Active(buddy) || buddy == owner) continue;
    // `committed` is the old buddy's watermark while a handover pends.
    entries.push_back(CkptCmdMsg::Entry{pid, buddy + 1,
                                        g.pending || g.need_full,
                                        g.pending ? 0 : g.committed});
    if (!g.pending) g.need_full = false;
    // An untouched group's segment, if shipped at all, is empty.
    if (g.touched) g.unacked = SweepEntry{epoch, owner, buddy};
  }
  return entries;
}

bool ReplicationLedger::OwesSweepAcks(SlaveIdx buddy) const {
  return std::any_of(groups_.begin(), groups_.end(), [&](const Group& g) {
    return g.unacked && g.unacked->buddy == buddy &&
           members_.Alive(g.unacked->owner);
  });
}

ReplicationLedger::AckVerdict ReplicationLedger::Apply(
    SlaveIdx src, const CheckpointAckMsg& ack) {
  if (ack.partition_id >= groups_.size()) return AckVerdict::kIgnored;
  const PartitionId pid = ack.partition_id;
  Group& g = groups_[pid];
  if (g.unacked && g.unacked->buddy == src &&
      ack.covered_epoch >= g.unacked->epoch) {
    g.unacked.reset();
  }
  const bool handover = members_.Alive(src) && g.pending == src;
  if (!handover &&
      !AcceptCheckpointAck(members_.Alive(src), pmap_.BuddyOf(pid) == src,
                           ack.covered_epoch, g.committed)) {
    return AckVerdict::kStale;
  }
  if (handover) {
    pmap_.SetBuddy(pid, src);
    g.pending.reset();
    g.need_full = false;
  }
  // The buddy holds a checkpoint covering `committed`: release what it
  // covers.
  g.committed = std::max(g.committed, ack.covered_epoch);
  while (!g.retained.empty() && g.retained.front().first <= g.committed) {
    g.retained.pop_front();
  }
  return handover ? AckVerdict::kHandover : AckVerdict::kAccepted;
}

void ReplicationLedger::ChangeBuddy(PartitionId pid, SlaveIdx buddy) {
  pmap_.SetBuddy(pid, buddy);
  Group& g = groups_[pid];
  g.committed = 0;
  g.need_full = true;
  g.pending.reset();
}

void ReplicationLedger::ReRing(PartitionId pid, SlaveIdx owner) {
  const std::vector<SlaveIdx> ring = members_.Members();
  if (ring.empty()) return;
  const SlaveIdx next = PartitionMap::RingSuccessor(owner, ring);
  if (next != owner) ChangeBuddy(pid, next);
}

void ReplicationLedger::DissolveHandoversTo(SlaveIdx dead) {
  for (Group& g : groups_) {
    if (g.pending == dead) g.pending.reset();
  }
}

ReplicationLedger::Failover ReplicationLedger::FailOver(
    SlaveIdx dead, std::span<const PartitionId> orphans) {
  Failover plan;
  const std::vector<SlaveIdx> survivors = members_.Members();
  if (survivors.empty()) return plan;
  // The target usually *is* the old buddy, so the group needs a fresh one,
  // starting from a full snapshot.
  auto adopt = [&](PartitionId pid, SlaveIdx target) {
    const Adoption a{pid, target, groups_[pid].committed + 1,
                     target != pmap_.BuddyOf(pid)};
    pmap_.SetOwner(pid, target);
    plan.adoptions.push_back(a);
    FailoverCmdMsg& cmd = plan.commands[target];
    cmd.dead = dead + 1;
    cmd.entries.push_back(FailoverCmdMsg::Entry{pid, a.replay_from});
    ReRing(pid, target);
  };
  for (const EvacuationMove& ev :
       PlanEvacuation(pmap_, dead, survivors, /*prefer_buddies=*/true)) {
    adopt(ev.pid, ev.target);
  }
  plan.evacuated = plan.adoptions.size();
  for (PartitionId pid : orphans) {
    SlaveIdx target = pmap_.BuddyOf(pid);
    if (!members_.Active(target)) {
      target = survivors.front();
      for (SlaveIdx s : survivors) {
        if (pmap_.CountOf(s) < pmap_.CountOf(target)) target = s;
      }
    }
    adopt(pid, target);
  }
  // Groups that replicated *to* the dead slave lose their replica; their
  // live owners re-checkpoint in full to a fresh buddy.
  for (PartitionId pid = 0; pid < groups_.size(); ++pid) {
    if (pmap_.BuddyOf(pid) == dead && members_.Active(pmap_.OwnerOf(pid))) {
      ReRing(pid, pmap_.OwnerOf(pid));
    }
  }
  return plan;
}

std::map<std::uint64_t, std::vector<Rec>> ReplicationLedger::ReplayBatches(
    std::span<const FailoverCmdMsg::Entry> adopted) const {
  std::map<std::uint64_t, std::vector<Rec>> per_epoch;
  for (const FailoverCmdMsg::Entry& a : adopted) {
    for (const auto& [epoch, run] : groups_[a.partition_id].retained) {
      if (epoch < a.replay_from) continue;
      std::vector<Rec>& dst = per_epoch[epoch];
      dst.insert(dst.end(), run.begin(), run.end());
    }
  }
  return per_epoch;
}

}  // namespace sjoin
