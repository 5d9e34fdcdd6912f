// ReplicationLedger driven alone: random sequences of the master's
// replication events -- retain, sweep, ack, re-ring, owner move, handover
// begin / commit / dissolve, eviction with its failover plan, replay
// gather -- checked after every step
// against a naive model that never prunes (it keeps every run and filters
// by the highest epoch an ack released), and against the protocol's
// invariants.
#include "core/replication_ledger.h"

#include <gtest/gtest.h>

#include "core/balancer.h"
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/balancer.h"
#include "testutil/fuzz_env.h"

namespace sjoin {
namespace {

constexpr std::uint32_t kSlaves = 4;
constexpr std::uint32_t kGroups = 6;

using Verdict = ReplicationLedger::AckVerdict;
using Runs = std::vector<std::pair<std::uint64_t, std::vector<Rec>>>;

struct ModelGroup {
  Runs runs;                  ///< every run ever retained
  std::uint64_t released = 0;  ///< highest epoch an ack released
  std::uint64_t watermark = 0;
  SlaveIdx buddy = 0;
  std::optional<SlaveIdx> pending;
  bool full = true;
  bool touched = false;
  std::optional<ReplicationLedger::SweepEntry> debt;
  /// An owner or buddy change since the buddy last got a full snapshot.
  bool changed = true;
  std::set<SlaveIdx> replaced;  ///< former buddies
};

/// Ack kinds the sequences must cover, classified before the ack applies.
enum AckKind { kCurrent, kCommit, kReplaced, kDead, kDuplicate, kRegressing,
               kOther, kAckKinds };

bool SameExceptDebt(const ReplicationLedger::Group& a,
                    const ReplicationLedger::Group& b) {
  return a.retained == b.retained && a.committed == b.committed &&
         a.need_full == b.need_full && a.touched == b.touched &&
         a.pending == b.pending;
}

class LedgerSequence {
 public:
  explicit LedgerSequence(std::uint64_t seed)
      : rng_(Mix64(seed ^ 0x1ED6E5ULL), 5) {
    for (PartitionId pid = 0; pid < kGroups; ++pid) {
      model_[pid].buddy = pmap_.BuddyOf(pid);
    }
  }

  void Step() {
    std::vector<ReplicationLedger::Group> before;
    std::vector<SlaveIdx> buddies_before;
    for (PartitionId pid = 0; pid < kGroups; ++pid) {
      before.push_back(ledger_.Of(pid));
      buddies_before.push_back(pmap_.BuddyOf(pid));
    }
    bool buddy_op = false;
    switch (rng_.NextBounded(14)) {
      case 0: case 1: case 2: Distribute(); break;
      case 3: case 4: Sweep(before); break;
      case 5: buddy_op = ReRing(); break;
      case 6: MoveOwner(); break;
      case 7: case 8: buddy_op = BeginHandover(); break;
      case 9: buddy_op = true; Evict(); break;
      case 10: Gather(); break;
      default: Ack(before, buddies_before); break;
    }
    for (PartitionId pid = 0; pid < kGroups; ++pid) {
      // The watermark only rises, except when the buddy changes.
      if (!buddy_op) {
        ASSERT_GE(ledger_.Of(pid).committed, before[pid].committed)
            << "pid " << pid;
      }
    }
    CheckAgainstModel();
  }

  std::uint64_t ops[8] = {};
  std::uint64_t acks[kAckKinds] = {};
  std::uint64_t entries_checked = 0;
  std::uint64_t failovers_checked = 0;

 private:
  ModelGroup& M(PartitionId pid) { return model_[pid]; }

  void ChangeModelBuddy(PartitionId pid, SlaveIdx buddy) {
    ModelGroup& m = M(pid);
    m.replaced.insert(m.buddy);
    m.buddy = buddy;
    m.watermark = 0;
    m.full = true;
    m.changed = true;
    m.pending.reset();
  }

  std::optional<SlaveIdx> PickActive(auto&& allowed) {
    std::vector<SlaveIdx> pool;
    for (SlaveIdx s : members_.Members()) {
      if (allowed(s)) pool.push_back(s);
    }
    if (pool.empty()) return std::nullopt;
    return pool[rng_.NextBounded(static_cast<std::uint32_t>(pool.size()))];
  }

  void Distribute() {
    ++ops[0];
    ++epoch_;
    for (PartitionId pid = 0; pid < kGroups; ++pid) {
      if (rng_.NextBounded(4) == 0) continue;
      std::vector<Rec> run;
      const std::uint32_t len = 1 + rng_.NextBounded(3);
      for (std::uint32_t i = 0; i < len; ++i) {
        run.push_back(Rec{static_cast<Time>(epoch_ * 100 + i),
                          rng_.NextBounded(50), 0});
      }
      M(pid).runs.emplace_back(epoch_, run);
      M(pid).touched = true;
      ledger_.Retain(pid, epoch_, run);
    }
  }

  void Sweep(const std::vector<ReplicationLedger::Group>& before) {
    ++ops[1];
    ledger_.BeginSweep();
    for (ModelGroup& m : model_) m.debt.reset();
    for (SlaveIdx owner : members_.Members()) {
      std::vector<PartitionId> pids;
      for (PartitionId pid : pmap_.PartitionsOf(owner)) {
        if (rng_.NextBounded(5) != 0) pids.push_back(pid);  // else in flight
      }
      const std::vector<CkptCmdMsg::Entry> got =
          ledger_.SweepEntries(owner, epoch_, pids);
      std::size_t next = 0;
      for (PartitionId pid : pids) {
        ModelGroup& m = M(pid);
        const SlaveIdx target = m.pending.value_or(m.buddy);
        if (!members_.Active(target) || target == owner) continue;
        ASSERT_LT(next, got.size());
        const CkptCmdMsg::Entry& e = got[next++];
        EXPECT_EQ(e.partition_id, pid);
        EXPECT_EQ(e.buddy, target + 1);
        // The committed epoch is the watermark, 0 mid-handover; a snapshot
        // is full after any owner or buddy change.
        EXPECT_EQ(e.committed_epoch,
                  m.pending ? 0 : before[pid].committed);
        EXPECT_EQ(e.full, m.pending || m.full);
        if (m.changed) {
          EXPECT_TRUE(e.full);
        }
        ++entries_checked;
        if (!m.pending) {
          m.full = false;
          m.changed = false;
        }
        if (m.touched) {
          m.debt = ReplicationLedger::SweepEntry{epoch_, owner, target};
        }
        shipped_.emplace_back(pid, target, epoch_);
      }
      EXPECT_EQ(next, got.size());
    }
  }

  void Ack(const std::vector<ReplicationLedger::Group>& before,
           const std::vector<SlaveIdx>& buddies_before) {
    ++ops[2];
    PartitionId pid = rng_.NextBounded(kGroups);
    SlaveIdx src = rng_.NextBounded(kSlaves);
    std::uint64_t covered = rng_.NextBounded(static_cast<std::uint32_t>(
        epoch_ + 1));
    if (!shipped_.empty() && rng_.NextBounded(2) == 0) {
      // An ack for a command that really went out, maybe long ago.
      std::tie(pid, src, covered) = shipped_[rng_.NextBounded(
          static_cast<std::uint32_t>(shipped_.size()))];
    }
    ModelGroup& m = M(pid);
    const bool alive = members_.Alive(src);
    AckKind kind = kOther;
    if (!alive) {
      kind = kDead;
    } else if (m.pending == src) {
      kind = kCommit;
    } else if (src == m.buddy) {
      kind = covered > m.watermark    ? kCurrent
             : covered == m.watermark ? kDuplicate
                                      : kRegressing;
    } else if (m.replaced.count(src) != 0) {
      kind = kReplaced;
    }
    ++acks[kind];

    const Verdict v = ledger_.Apply(
        src, CheckpointAckMsg{pid, covered, /*bytes=*/0});

    // The model: the debt settles on any ack from the rank it names.
    if (m.debt && m.debt->buddy == src && covered >= m.debt->epoch) {
      m.debt.reset();
    }
    Verdict want = Verdict::kStale;
    if (alive && m.pending == src) {
      want = Verdict::kHandover;
      m.replaced.insert(m.buddy);
      m.buddy = src;
      m.pending.reset();
      m.full = false;
      m.changed = false;  // the handover shipped a full snapshot
      m.watermark = std::max(m.watermark, covered);
    } else if (alive && src == m.buddy && covered > m.watermark) {
      want = Verdict::kAccepted;
      m.watermark = covered;
    }
    m.released = std::max(m.released, m.watermark);
    ASSERT_EQ(v, want) << "kind " << kind;

    // A handover commits only on an ack from its pending rank.
    if (pmap_.BuddyOf(pid) != buddies_before[pid] ||
        v == Verdict::kHandover) {
      ASSERT_EQ(v, Verdict::kHandover);
      ASSERT_EQ(before[pid].pending, src);
    }
    // A stale ack changes nothing; only the debt it answers settles (any
    // ack from the rank a sweep entry named confirms the segment arrived).
    if (v == Verdict::kStale) {
      for (PartitionId p = 0; p < kGroups; ++p) {
        ASSERT_TRUE(SameExceptDebt(ledger_.Of(p), before[p])) << "pid " << p;
        ASSERT_EQ(pmap_.BuddyOf(p), buddies_before[p]);
      }
    }
  }

  bool ReRing() {
    ++ops[3];
    const PartitionId pid = rng_.NextBounded(kGroups);
    const SlaveIdx owner = pmap_.OwnerOf(pid);
    ledger_.ReRing(pid, owner);
    const std::vector<SlaveIdx> ring = members_.Members();
    if (!ring.empty()) {
      const SlaveIdx next = PartitionMap::RingSuccessor(owner, ring);
      if (next != owner) ChangeModelBuddy(pid, next);
    }
    return true;
  }

  void MoveOwner() {
    ++ops[4];
    const PartitionId pid = rng_.NextBounded(kGroups);
    const std::optional<SlaveIdx> to = PickActive([&](SlaveIdx s) {
      return s != pmap_.OwnerOf(pid) && s != pmap_.BuddyOf(pid);
    });
    if (!to) return;
    pmap_.SetOwner(pid, *to);
    ledger_.ForceFull(pid);
    M(pid).full = true;
    M(pid).changed = true;
  }

  /// Untouched groups flip at once, as the runner does; the rest wait for
  /// the new buddy's ack.
  bool BeginHandover() {
    ++ops[5];
    const PartitionId pid = rng_.NextBounded(kGroups);
    if (M(pid).pending) return false;
    const std::optional<SlaveIdx> to = PickActive([&](SlaveIdx s) {
      return s != pmap_.OwnerOf(pid) && s != pmap_.BuddyOf(pid);
    });
    if (!to) return false;
    if (!M(pid).touched) {
      ledger_.ChangeBuddy(pid, *to);
      ChangeModelBuddy(pid, *to);
      return true;
    }
    ledger_.BeginHandover(pid, *to);
    M(pid).pending = *to;
    shipped_.emplace_back(pid, *to, epoch_ > 0 ? epoch_ - 1 : 0);
    return false;
  }

  /// An eviction and the failover the runner plans for it. Orphans are
  /// groups the dead slave was moving to a live consumer when it died.
  void Evict() {
    ++ops[6];
    if (members_.LiveCount() <= 2) return;
    const SlaveIdx dead = *PickActive([](SlaveIdx) { return true; });
    members_.Evict(dead, epoch_);
    ledger_.DissolveHandoversTo(dead);
    for (ModelGroup& m : model_) {
      if (m.pending == dead) m.pending.reset();
    }
    std::vector<PartitionId> orphans;
    for (PartitionId pid = 0; pid < kGroups; ++pid) {
      if (pmap_.OwnerOf(pid) != dead && rng_.NextBounded(4) == 0) {
        orphans.push_back(pid);
      }
    }
    // The model's plan, on a copy of the map.
    const std::vector<SlaveIdx> ring = members_.Members();
    PartitionMap map = pmap_;
    std::vector<ReplicationLedger::Adoption> want;
    std::map<SlaveIdx, std::vector<FailoverCmdMsg::Entry>> cmds;
    auto adopt = [&](PartitionId pid, SlaveIdx target) {
      want.push_back(ReplicationLedger::Adoption{
          pid, target, M(pid).watermark + 1, target != map.BuddyOf(pid)});
      cmds[target].push_back(
          FailoverCmdMsg::Entry{pid, M(pid).watermark + 1});
      map.SetOwner(pid, target);
    };
    for (const EvacuationMove& ev : PlanEvacuation(map, dead, ring, true)) {
      adopt(ev.pid, ev.target);
    }
    const std::size_t evacuated = want.size();
    for (PartitionId pid : orphans) {
      SlaveIdx target = map.BuddyOf(pid);
      if (!members_.Active(target)) {
        target = ring.front();
        for (SlaveIdx s : ring) {
          if (map.CountOf(s) < map.CountOf(target)) target = s;
        }
      }
      adopt(pid, target);
    }

    const ReplicationLedger::Failover got = ledger_.FailOver(dead, orphans);
    ASSERT_EQ(got.evacuated, evacuated);
    ASSERT_EQ(got.adoptions.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got.adoptions[i].pid, want[i].pid);
      ASSERT_EQ(got.adoptions[i].target, want[i].target);
      ASSERT_EQ(got.adoptions[i].replay_from, want[i].replay_from);
      ASSERT_EQ(got.adoptions[i].degraded, want[i].degraded);
      ++failovers_checked;
    }
    ASSERT_EQ(got.commands.size(), cmds.size());
    for (const auto& [target, entries] : cmds) {
      const auto it = got.commands.find(target);
      ASSERT_NE(it, got.commands.end());
      ASSERT_EQ(it->second.dead, dead + 1);
      ASSERT_EQ(it->second.entries.size(), entries.size());
      for (std::size_t i = 0; i < entries.size(); ++i) {
        ASSERT_EQ(it->second.entries[i].partition_id,
                  entries[i].partition_id);
        ASSERT_EQ(it->second.entries[i].replay_from, entries[i].replay_from);
      }
    }
    // Adopted groups re-ring from their target, then the groups that
    // replicated to the dead slave from their live owner.
    for (const ReplicationLedger::Adoption& a : want) {
      ASSERT_EQ(pmap_.OwnerOf(a.pid), a.target);
      const SlaveIdx next = PartitionMap::RingSuccessor(a.target, ring);
      if (next != a.target) ChangeModelBuddy(a.pid, next);
    }
    for (PartitionId pid = 0; pid < kGroups; ++pid) {
      const SlaveIdx owner = pmap_.OwnerOf(pid);
      if (M(pid).buddy == dead && members_.Active(owner)) {
        const SlaveIdx next = PartitionMap::RingSuccessor(owner, ring);
        if (next != owner) ChangeModelBuddy(pid, next);
      }
    }
  }

  void Gather() {
    ++ops[7];
    std::vector<FailoverCmdMsg::Entry> adopted;
    const std::uint32_t groups = 1 + rng_.NextBounded(3);
    for (std::uint32_t i = 0; i < groups; ++i) {
      const PartitionId pid = rng_.NextBounded(kGroups);
      const std::uint64_t from = rng_.NextBounded(2) == 0
                                     ? ledger_.Of(pid).committed + 1
                                     : 1 + rng_.NextBounded(static_cast<
                                               std::uint32_t>(epoch_ + 1));
      adopted.push_back(FailoverCmdMsg::Entry{pid, from});
    }
    std::map<std::uint64_t, std::vector<Rec>> want;
    for (const FailoverCmdMsg::Entry& a : adopted) {
      for (const auto& [e, run] : M(a.partition_id).runs) {
        if (e <= M(a.partition_id).released || e < a.replay_from) continue;
        want[e].insert(want[e].end(), run.begin(), run.end());
      }
    }
    ASSERT_EQ(ledger_.ReplayBatches(adopted), want);
  }

  void CheckAgainstModel() {
    for (PartitionId pid = 0; pid < kGroups; ++pid) {
      const ReplicationLedger::Group& g = ledger_.Of(pid);
      const ModelGroup& m = model_[pid];
      Runs want;
      for (const auto& run : m.runs) {
        if (run.first > m.released) want.push_back(run);
      }
      ASSERT_EQ(Runs(g.retained.begin(), g.retained.end()), want)
          << "pid " << pid;
      // No retained epoch is at or below the watermark.
      for (const auto& run : g.retained) ASSERT_GT(run.first, g.committed);
      ASSERT_EQ(g.committed, m.watermark) << "pid " << pid;
      ASSERT_EQ(pmap_.BuddyOf(pid), m.buddy) << "pid " << pid;
      ASSERT_EQ(g.pending, m.pending) << "pid " << pid;
      ASSERT_EQ(g.need_full, m.full) << "pid " << pid;
      ASSERT_EQ(g.touched, m.touched) << "pid " << pid;
      ASSERT_EQ(g.unacked.has_value(), m.debt.has_value()) << "pid " << pid;
      if (m.debt) {
        ASSERT_EQ(g.unacked->epoch, m.debt->epoch);
        ASSERT_EQ(g.unacked->owner, m.debt->owner);
        ASSERT_EQ(g.unacked->buddy, m.debt->buddy);
      }
    }
    for (SlaveIdx b = 0; b < kSlaves; ++b) {
      bool owes = false;
      for (const ModelGroup& m : model_) {
        owes |= m.debt && m.debt->buddy == b && members_.Alive(m.debt->owner);
      }
      ASSERT_EQ(ledger_.OwesSweepAcks(b), owes) << "buddy " << b;
    }
  }

  Pcg32 rng_;
  PartitionMap pmap_{kGroups, kSlaves};
  MembershipTable members_{kSlaves, kSlaves};
  ReplicationLedger ledger_{kGroups, pmap_, members_};
  std::vector<ModelGroup> model_ = std::vector<ModelGroup>(kGroups);
  std::uint64_t epoch_ = 0;
  /// (pid, target, covered epoch) of every command sent.
  std::vector<std::tuple<PartitionId, SlaveIdx, std::uint64_t>> shipped_;
};

TEST(ReplicationLedgerTest, RandomSequencesMatchUnprunedModel) {
  const int trials = FuzzIters(200);
  std::uint64_t ops[8] = {};
  std::uint64_t acks[kAckKinds] = {};
  std::uint64_t entries = 0;
  std::uint64_t failovers = 0;
  for (int t = 0; t < trials; ++t) {
    LedgerSequence seq(static_cast<std::uint64_t>(t));
    for (int step = 0; step < 150; ++step) {
      seq.Step();
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "trial " << t << " step " << step;
      }
    }
    for (int i = 0; i < 8; ++i) ops[i] += seq.ops[i];
    for (int k = 0; k < kAckKinds; ++k) acks[k] += seq.acks[k];
    entries += seq.entries_checked;
    failovers += seq.failovers_checked;
  }
  // Every event and every ack kind was exercised.
  for (int i = 0; i < 8; ++i) EXPECT_GT(ops[i], 0u) << "op " << i;
  for (int k = 0; k < kOther; ++k) EXPECT_GT(acks[k], 0u) << "ack kind " << k;
  EXPECT_GT(entries, 0u);
  EXPECT_GT(failovers, 0u);
}

}  // namespace
}  // namespace sjoin
