#include "core/membership.h"

#include <gtest/gtest.h>

namespace sjoin {
namespace {

// ---------------------------------------------------------------------------
// MembershipTable: the three-state bookkeeping behind runtime join/leave.

TEST(MembershipTableTest, InitialSplitIntoMembersAndStandbys) {
  MembershipTable t(4, 2);
  EXPECT_EQ(t.LiveCount(), 4u);
  EXPECT_EQ(t.MemberCount(), 2u);
  EXPECT_EQ(t.Members(), (std::vector<SlaveIdx>{0, 1}));
  EXPECT_EQ(t.Standbys(), (std::vector<SlaveIdx>{2, 3}));
  EXPECT_TRUE(t.Active(0));
  EXPECT_FALSE(t.Active(2));  // alive but standby: no batches, no groups
  EXPECT_TRUE(t.Alive(2));
}

TEST(MembershipTableTest, AllMembersWhenInitialEqualsTotal) {
  // The elastic-off degeneration: every alive slave is a member.
  MembershipTable t(3, 3);
  EXPECT_EQ(t.MemberCount(), 3u);
  EXPECT_TRUE(t.Standbys().empty());
}

TEST(MembershipTableTest, AdmitAndRetireRoundTrip) {
  MembershipTable t(3, 2);
  t.Admit(2);
  EXPECT_TRUE(t.Active(2));
  EXPECT_EQ(t.MemberCount(), 3u);
  t.Retire(2);
  EXPECT_FALSE(t.Member(2));
  EXPECT_TRUE(t.Alive(2));  // standby again, may rejoin
  t.Admit(2);               // and it does
  EXPECT_TRUE(t.Active(2));
}

TEST(MembershipTableTest, AdmitAndRetireAreIdempotent) {
  MembershipTable t(3, 2);
  t.Admit(1);  // already a member: no-op
  EXPECT_EQ(t.MemberCount(), 2u);
  t.Retire(2);  // already a standby: no-op
  EXPECT_EQ(t.MemberCount(), 2u);
  EXPECT_TRUE(t.Alive(2));
}

TEST(MembershipTableTest, EvictIsIdempotent) {
  // The racing-verdict regression: the first eviction performs the side
  // effects (true); a second verdict on the same rank -- a late timeout
  // racing a failover -- must report false so eviction never re-runs.
  MembershipTable t(3, 3);
  EXPECT_TRUE(t.Evict(1, 7));
  EXPECT_FALSE(t.Alive(1));
  EXPECT_FALSE(t.Active(1));
  EXPECT_EQ(t.EvictedAt(1), 7u);
  EXPECT_FALSE(t.Evict(1, 9));
  EXPECT_EQ(t.EvictedAt(1), 7u);  // the first verdict's epoch stands
  EXPECT_EQ(t.LiveCount(), 2u);
}

TEST(MembershipTableTest, DeadSlaveNeverComesBack) {
  MembershipTable t(3, 3);
  t.Evict(2, 4);
  t.Admit(2);  // no resurrection
  EXPECT_FALSE(t.Alive(2));
  EXPECT_FALSE(t.Active(2));
  EXPECT_EQ(t.Members(), (std::vector<SlaveIdx>{0, 1}));
  EXPECT_TRUE(t.Standbys().empty());  // dead is not standby either
}

TEST(MembershipTableTest, EvictedStandbyLeavesCandidatePool) {
  MembershipTable t(3, 1);
  EXPECT_EQ(t.Standbys(), (std::vector<SlaveIdx>{1, 2}));
  t.Evict(1, 3);
  EXPECT_EQ(t.Standbys(), (std::vector<SlaveIdx>{2}));
}

// ---------------------------------------------------------------------------
// AcceptCheckpointAck: the stale-ack guard, as a truth table.

TEST(CheckpointAckGuardTest, AdvancingAckFromLiveCurrentBuddyAccepted) {
  EXPECT_TRUE(AcceptCheckpointAck(/*src_alive=*/true,
                                  /*src_is_current_buddy=*/true,
                                  /*covered_epoch=*/5, /*acked_watermark=*/3));
}

TEST(CheckpointAckGuardTest, DeadSenderDropped) {
  // An evicted slave's late ack must not release retained batches.
  EXPECT_FALSE(AcceptCheckpointAck(false, true, 5, 3));
}

TEST(CheckpointAckGuardTest, ReplacedBuddyDropped) {
  // After a buddy handover the old buddy's ack covers a replica that no
  // longer backs the group.
  EXPECT_FALSE(AcceptCheckpointAck(true, false, 5, 3));
}

TEST(CheckpointAckGuardTest, DuplicateAndRegressingAcksDropped) {
  EXPECT_FALSE(AcceptCheckpointAck(true, true, 3, 3));  // duplicate
  EXPECT_FALSE(AcceptCheckpointAck(true, true, 2, 3));  // regression
  EXPECT_TRUE(AcceptCheckpointAck(true, true, 4, 3));   // minimal advance
}

// ---------------------------------------------------------------------------
// The event queue and its skip rule.

TEST(MembershipQueueTest, ScheduleByEpochThenProposals) {
  MembershipQueue q({MembershipEvent{5, true, 2}, MembershipEvent{3, false, 0},
                     MembershipEvent{5, false, 1}});
  q.Propose(MembershipEvent{1, true, 3});
  EXPECT_TRUE(q.HasProposal());
  // Nothing scheduled is due at epoch 2: the proposal goes first.
  std::optional<MembershipEvent> ev = q.Pop(2);
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev->slave, 3u);
  EXPECT_FALSE(q.HasProposal());
  EXPECT_FALSE(q.Pop(2));
  // Due events in epoch order; same-epoch events keep their given order.
  q.Propose(MembershipEvent{9, true, 3});
  ev = q.Pop(10);
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev->slave, 0u);
  ev = q.Pop(10);
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev->slave, 2u);
  ev = q.Pop(10);
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev->slave, 1u);
  ev = q.Pop(10);
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev->slave, 3u);
  EXPECT_FALSE(q.Pop(10));
}

TEST(MembershipQueueTest, SkipRule) {
  MembershipTable t(4, 2);  // members 0 1, standbys 2 3
  EXPECT_TRUE(t.CanStart(MembershipEvent{0, true, 2}));
  EXPECT_FALSE(t.CanStart(MembershipEvent{0, true, 1}));  // a member
  EXPECT_FALSE(t.CanStart(MembershipEvent{0, true, 4}));  // no such rank
  EXPECT_TRUE(t.CanStart(MembershipEvent{0, false, 1}));
  EXPECT_FALSE(t.CanStart(MembershipEvent{0, false, 3}));  // a standby
  t.Evict(3, 1);
  EXPECT_FALSE(t.CanStart(MembershipEvent{0, true, 3}));  // dead
  t.Evict(0, 1);
  EXPECT_FALSE(t.CanStart(MembershipEvent{0, false, 1}));  // the last one
}

// ---------------------------------------------------------------------------
// ElasticPolicy: hysteresis, the one-member floor, cooldown.

ElasticConfig PolicyCfg() {
  ElasticConfig cfg;
  cfg.enabled = true;
  cfg.policy = true;
  cfg.surge_occupancy = 0.5;
  cfg.surge_epochs = 3;
  cfg.idle_occupancy = 0.01;
  cfg.idle_epochs = 4;
  cfg.cooldown_epochs = 2;
  return cfg;
}

TEST(ElasticPolicyTest, ScaleOutAfterConsecutiveSurgeEpochs) {
  ElasticPolicy p(PolicyCfg());
  EXPECT_EQ(p.Observe(0.9, 2, 1), ScaleDecision::kNone);
  EXPECT_EQ(p.Observe(0.9, 2, 1), ScaleDecision::kNone);
  EXPECT_EQ(p.Observe(0.9, 2, 1), ScaleDecision::kOut);
}

TEST(ElasticPolicyTest, BrokenStreakResets) {
  ElasticPolicy p(PolicyCfg());
  p.Observe(0.9, 2, 1);
  p.Observe(0.9, 2, 1);
  EXPECT_EQ(p.Observe(0.2, 2, 1), ScaleDecision::kNone);  // streak broken
  EXPECT_EQ(p.Observe(0.9, 2, 1), ScaleDecision::kNone);  // restart at 1
  EXPECT_EQ(p.Observe(0.9, 2, 1), ScaleDecision::kNone);
  EXPECT_EQ(p.Observe(0.9, 2, 1), ScaleDecision::kOut);
}

TEST(ElasticPolicyTest, NoScaleOutWithoutStandby) {
  ElasticPolicy p(PolicyCfg());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(p.Observe(0.9, 2, /*standbys=*/0), ScaleDecision::kNone) << i;
  }
}

TEST(ElasticPolicyTest, ScaleInAfterConsecutiveIdleEpochs) {
  ElasticPolicy p(PolicyCfg());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(p.Observe(0.0, 3, 0), ScaleDecision::kNone) << i;
  }
  EXPECT_EQ(p.Observe(0.0, 3, 0), ScaleDecision::kIn);
}

TEST(ElasticPolicyTest, NeverDrainsTheLastMember) {
  ElasticPolicy p(PolicyCfg());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(p.Observe(0.0, /*members=*/1, 2), ScaleDecision::kNone) << i;
  }
}

TEST(ElasticPolicyTest, CooldownQuietsTheLoopAfterADecision) {
  ElasticPolicy p(PolicyCfg());
  p.Observe(0.9, 2, 1);
  p.Observe(0.9, 2, 1);
  ASSERT_EQ(p.Observe(0.9, 2, 1), ScaleDecision::kOut);
  // cooldown_epochs = 2: the next two surge epochs must stay quiet, and
  // the streak restarts only after the cooldown drains.
  EXPECT_EQ(p.Observe(0.9, 3, 0), ScaleDecision::kNone);
  EXPECT_EQ(p.Observe(0.9, 3, 0), ScaleDecision::kNone);
  EXPECT_EQ(p.Observe(0.9, 3, 1), ScaleDecision::kNone);
  EXPECT_EQ(p.Observe(0.9, 3, 1), ScaleDecision::kNone);
  EXPECT_EQ(p.Observe(0.9, 3, 1), ScaleDecision::kOut);
}

TEST(ElasticPolicyTest, SkewVetoSuppressesScaleIn) {
  // A straggler group (max/median load ratio at or above the threshold)
  // must keep the idle streak from accumulating: scaling in would
  // concentrate the hot group, not shed idle capacity.
  ElasticConfig cfg = PolicyCfg();
  cfg.skew_scale_in_veto = 4.0;
  ElasticPolicy p(cfg);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(p.Observe(0.0, 3, 0, /*skew_ratio=*/5.0), ScaleDecision::kNone)
        << i;
  }
  // Skew subsides: the streak starts from zero, so idle_epochs = 4 more
  // observations are needed before the proposal fires.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(p.Observe(0.0, 3, 0, /*skew_ratio=*/1.0), ScaleDecision::kNone)
        << i;
  }
  EXPECT_EQ(p.Observe(0.0, 3, 0, /*skew_ratio=*/1.0), ScaleDecision::kIn);
}

TEST(ElasticPolicyTest, SkewVetoDisabledByDefaultAndNeverBlocksScaleOut) {
  // Threshold 0.0 (the default) disables the veto even under extreme skew,
  // and an enabled veto never touches the surge path.
  ElasticPolicy off(PolicyCfg());
  for (int i = 0; i < 3; ++i) off.Observe(0.0, 3, 0, /*skew_ratio=*/100.0);
  EXPECT_EQ(off.Observe(0.0, 3, 0, /*skew_ratio=*/100.0), ScaleDecision::kIn);

  ElasticConfig cfg = PolicyCfg();
  cfg.skew_scale_in_veto = 2.0;
  ElasticPolicy p(cfg);
  p.Observe(0.9, 2, 1, /*skew_ratio=*/50.0);
  p.Observe(0.9, 2, 1, /*skew_ratio=*/50.0);
  EXPECT_EQ(p.Observe(0.9, 2, 1, /*skew_ratio=*/50.0), ScaleDecision::kOut);
}

TEST(ElasticPolicyTest, StandbyAppearingAfterSurgeStreakProposesAtOnce) {
  // The streak keeps counting while no standby exists; the moment one
  // appears (e.g. a graceful leave completed) the overdue proposal fires.
  ElasticPolicy p(PolicyCfg());
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(p.Observe(0.9, 2, /*standbys=*/0), ScaleDecision::kNone) << i;
  }
  EXPECT_EQ(p.Observe(0.9, 2, /*standbys=*/1), ScaleDecision::kOut);
}

}  // namespace
}  // namespace sjoin
