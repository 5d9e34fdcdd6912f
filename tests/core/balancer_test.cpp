#include "core/balancer.h"

#include <gtest/gtest.h>

namespace sjoin {
namespace {

BalanceConfig Cfg() {
  BalanceConfig cfg;
  cfg.th_sup = 0.5;
  cfg.th_con = 0.01;
  cfg.beta = 0.5;
  return cfg;
}

TEST(ClassifyTest, ThresholdsFromPaper) {
  auto roles = ClassifySlaves({0.9, 0.005, 0.2, 0.5, 0.01}, Cfg());
  EXPECT_EQ(roles[0], Role::kSupplier);   // > 0.5
  EXPECT_EQ(roles[1], Role::kConsumer);   // < 0.01
  EXPECT_EQ(roles[2], Role::kNeutral);
  EXPECT_EQ(roles[3], Role::kNeutral);    // exactly Th_sup is not a supplier
  EXPECT_EQ(roles[4], Role::kNeutral);    // exactly Th_con is not a consumer
}

TEST(PairTest, EachSupplierGetsDistinctConsumer) {
  std::vector<Role> roles = {Role::kSupplier, Role::kConsumer, Role::kSupplier,
                             Role::kConsumer, Role::kNeutral};
  auto plans = PairSuppliersWithConsumers(roles);
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_EQ(plans[0].supplier, 0u);
  EXPECT_EQ(plans[0].consumer, 1u);
  EXPECT_EQ(plans[1].supplier, 2u);
  EXPECT_EQ(plans[1].consumer, 3u);
}

TEST(PairTest, ExcessSuppliersUnpaired) {
  std::vector<Role> roles = {Role::kSupplier, Role::kSupplier, Role::kConsumer};
  auto plans = PairSuppliersWithConsumers(roles);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].supplier, 0u);
  EXPECT_EQ(plans[0].consumer, 2u);
}

TEST(PairTest, NoConsumersNoMoves) {
  std::vector<Role> roles = {Role::kSupplier, Role::kNeutral};
  EXPECT_TRUE(PairSuppliersWithConsumers(roles).empty());
}

TEST(DeclusterTest, ShrinksWhenNoSupplier) {
  // "Keeps the system minimally overloaded by ensuring at least one
  // supplier": all-consumer/neutral means shrink.
  std::vector<Role> roles = {Role::kConsumer, Role::kNeutral, Role::kConsumer};
  EXPECT_EQ(DecideDecluster(roles, 0.5, 3, 5), DeclusterAction::kShrink);
}

TEST(DeclusterTest, NeverShrinksBelowOne) {
  std::vector<Role> roles = {Role::kConsumer};
  EXPECT_EQ(DecideDecluster(roles, 0.5, 1, 5), DeclusterAction::kNone);
}

TEST(DeclusterTest, GrowsWhenSuppliersDominate) {
  // N_sup = 2 > beta * N_con = 0.5 * 1.
  std::vector<Role> roles = {Role::kSupplier, Role::kSupplier, Role::kConsumer};
  EXPECT_EQ(DecideDecluster(roles, 0.5, 3, 5), DeclusterAction::kGrow);
}

TEST(DeclusterTest, GrowsWithSupplierAndNoConsumer) {
  std::vector<Role> roles = {Role::kSupplier, Role::kNeutral};
  EXPECT_EQ(DecideDecluster(roles, 0.5, 2, 5), DeclusterAction::kGrow);
}

TEST(DeclusterTest, NoGrowthAtFullDeclustering) {
  std::vector<Role> roles = {Role::kSupplier, Role::kSupplier};
  EXPECT_EQ(DecideDecluster(roles, 0.5, 2, 2), DeclusterAction::kNone);
}

TEST(DeclusterTest, StableWhenBalanced) {
  // N_sup = 1, N_con = 3, beta = 0.5: 1 <= 1.5 => stay.
  std::vector<Role> roles = {Role::kSupplier, Role::kConsumer, Role::kConsumer,
                             Role::kConsumer};
  EXPECT_EQ(DecideDecluster(roles, 0.5, 4, 5), DeclusterAction::kNone);
}

TEST(DeclusterTest, BetaControlsSensitivity) {
  // N_sup = 1, N_con = 2: grows iff 1 > beta * 2, i.e. beta < 0.5.
  std::vector<Role> roles = {Role::kSupplier, Role::kConsumer, Role::kConsumer};
  EXPECT_EQ(DecideDecluster(roles, 0.4, 3, 5), DeclusterAction::kGrow);
  EXPECT_EQ(DecideDecluster(roles, 0.6, 3, 5), DeclusterAction::kNone);
}

TEST(EvacuationTest, CoversEveryPartitionOfTheDeadSlave) {
  PartitionMap map(12, 3);
  const auto owned = map.PartitionsOf(1);
  auto moves = PlanEvacuation(map, 1, {0, 2});
  ASSERT_EQ(moves.size(), owned.size());
  for (const EvacuationMove& m : moves) {
    EXPECT_EQ(map.OwnerOf(m.pid), 1u);
    EXPECT_NE(m.target, 1u);
  }
}

TEST(EvacuationTest, BalancesAcrossSurvivors) {
  PartitionMap map(12, 3);  // 4 partitions per slave
  auto moves = PlanEvacuation(map, 1, {0, 2});
  std::size_t to0 = 0;
  std::size_t to2 = 0;
  for (const EvacuationMove& m : moves) {
    (m.target == 0 ? to0 : to2)++;
  }
  EXPECT_EQ(to0, 2u);  // 4 + 2 == 6 each after evacuation
  EXPECT_EQ(to2, 2u);
}

// With replication active, every group whose buddy survived must land on
// that buddy -- it holds the acked replica the failover rebuilds from; a
// least-loaded placement would strand the state.
TEST(EvacuationTest, PrefersSurvivingBuddies) {
  PartitionMap map(12, 3);
  auto moves = PlanEvacuation(map, 1, {0, 2}, /*prefer_buddies=*/true);
  ASSERT_FALSE(moves.empty());
  for (const EvacuationMove& m : moves) {
    const SlaveIdx buddy = map.BuddyOf(m.pid);
    if (buddy != 1) {
      EXPECT_EQ(m.target, buddy) << "pid=" << m.pid;
    } else {
      EXPECT_NE(m.target, 1u) << "pid=" << m.pid;
    }
  }
}

// A dead buddy falls back to the least-loaded survivor (degraded failover:
// the replica is lost, but the group must still be re-homed somewhere).
TEST(EvacuationTest, DeadBuddyFallsBackToLeastLoaded) {
  PartitionMap map(6, 2);
  // Two slaves: every group owned by 0 has buddy 1 and vice versa. Kill 1:
  // its groups' buddies (slave 0) survive; groups owned by... none have a
  // dead buddy here, so force one: buddy of pid 1 -> the dead slave itself.
  map.SetBuddy(1, 1);
  auto moves = PlanEvacuation(map, 1, {0}, /*prefer_buddies=*/true);
  bool saw_pid1 = false;
  for (const EvacuationMove& m : moves) {
    EXPECT_EQ(m.target, 0u);
    saw_pid1 |= m.pid == 1;
  }
  EXPECT_TRUE(saw_pid1);
}

// ---------------------------------------------------------------------------
// Elastic-membership rebalance planning (PlanAdmission / PlanDrain).

TEST(AdmissionTest, JoinerReceivesEqualShare) {
  PartitionMap map(24, 3);  // slaves 0..2 own 8 each; slave 3 joins
  auto moves = PlanAdmission(map, {0, 1, 2, 3}, 3);
  EXPECT_EQ(moves.size(), 6u);  // floor(24 / 4)
  for (const RebalanceMove& m : moves) {
    EXPECT_EQ(m.to, 3u);
    EXPECT_NE(m.from, 3u);
  }
}

TEST(AdmissionTest, RecomputableAfterPartialExecution) {
  // Execute a prefix, mutate the map, re-plan: the deficit shrinks
  // monotonically and the combined effect still reaches the full share.
  PartitionMap map(24, 3);
  auto plan = PlanAdmission(map, {0, 1, 2, 3}, 3);
  ASSERT_GE(plan.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) map.SetOwner(plan[i].pid, plan[i].to);
  auto replanned = PlanAdmission(map, {0, 1, 2, 3}, 3);
  EXPECT_EQ(replanned.size(), plan.size() - 2);
  EXPECT_EQ(map.CountOf(3) + replanned.size(), 6u);
}

TEST(AdmissionTest, ZeroGroupsYieldsEmptyPlan) {
  // Degenerate map: fewer partitions than members -- the joiner's share is
  // floor(1 / 2) = 0, so nothing moves.
  PartitionMap map(1, 1);
  EXPECT_TRUE(PlanAdmission(map, {0, 1}, 1).empty());
}

TEST(AdmissionTest, SatisfiedJoinerPlansNothing) {
  // Groups the joiner already owns count toward its share.
  PartitionMap map(24, 4);  // 6 each already
  EXPECT_TRUE(PlanAdmission(map, {0, 1, 2, 3}, 3).empty());
}

TEST(AdmissionTest, RespectsBuddyDistinctness) {
  // With respect_buddies no group may be moved onto its own buddy: the
  // owner holds live state, the buddy the replica, and they must differ.
  // Pin the joiner as buddy of every slave-0 group (the first donor the
  // planner would otherwise pull from) -- those groups must be passed over
  // and the share filled from slaves 1 and 2 instead.
  PartitionMap map(24, 3);
  for (PartitionId pid : map.PartitionsOf(0)) map.SetBuddy(pid, 3);
  auto moves = PlanAdmission(map, {0, 1, 2, 3}, 3, /*respect_buddies=*/true);
  ASSERT_FALSE(moves.empty());
  for (const RebalanceMove& m : moves) {
    EXPECT_NE(map.BuddyOf(m.pid), m.to) << "pid=" << m.pid;
    EXPECT_NE(m.from, 0u) << "pid=" << m.pid;
  }
}

TEST(DrainTest, AllGroupsLeaveTheLeaver) {
  PartitionMap map(24, 3);
  const auto owned = map.PartitionsOf(1);
  auto moves = PlanDrain(map, 1, {0, 2});
  ASSERT_EQ(moves.size(), owned.size());
  for (const RebalanceMove& m : moves) {
    EXPECT_EQ(m.from, 1u);
    EXPECT_NE(m.to, 1u);
  }
}

TEST(DrainTest, ZeroOwnedGroupsYieldsEmptyPlan) {
  PartitionMap map(24, 3);
  for (PartitionId pid : map.PartitionsOf(1)) map.SetOwner(pid, 0);
  EXPECT_TRUE(PlanDrain(map, 1, {0, 2}).empty());
}

TEST(DrainTest, EmptyRemainingYieldsEmptyPlan) {
  PartitionMap map(24, 3);
  EXPECT_TRUE(PlanDrain(map, 1, {}).empty());
}

TEST(DrainTest, SingleSurvivorTakesEverything) {
  // All groups concentrated on the leaver, one member remains: the whole
  // map moves to it, buddy placement notwithstanding (liveness over
  // replica placement).
  PartitionMap map(24, 3);
  for (PartitionId pid = 0; pid < 24; ++pid) map.SetOwner(pid, 1);
  auto moves = PlanDrain(map, 1, {2}, /*respect_buddies=*/true);
  ASSERT_EQ(moves.size(), 24u);
  for (const RebalanceMove& m : moves) EXPECT_EQ(m.to, 2u);
}

TEST(DrainTest, AvoidsBuddyWhenAlternativesExist) {
  PartitionMap map(24, 4);
  auto moves = PlanDrain(map, 1, {0, 2, 3}, /*respect_buddies=*/true);
  ASSERT_FALSE(moves.empty());
  for (const RebalanceMove& m : moves) {
    EXPECT_NE(map.BuddyOf(m.pid), m.to) << "pid=" << m.pid;
  }
}

TEST(DrainTest, BalancesAcrossRemaining) {
  PartitionMap map(24, 3);  // 8 per slave
  auto moves = PlanDrain(map, 1, {0, 2});
  std::size_t to0 = 0;
  std::size_t to2 = 0;
  for (const RebalanceMove& m : moves) (m.to == 0 ? to0 : to2)++;
  EXPECT_EQ(to0, 4u);  // 8 + 4 == 12 each afterwards
  EXPECT_EQ(to2, 4u);
}

TEST(DrainTest, DeterministicPlan) {
  PartitionMap map(24, 4);
  auto a = PlanDrain(map, 2, {0, 1, 3}, /*respect_buddies=*/true);
  auto b = PlanDrain(map, 2, {0, 1, 3}, /*respect_buddies=*/true);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pid, b[i].pid);
    EXPECT_EQ(a[i].to, b[i].to);
  }
}

TEST(EvacuationTest, DeterministicPlan) {
  PartitionMap map(24, 4);
  auto a = PlanEvacuation(map, 2, {0, 1, 3}, /*prefer_buddies=*/true);
  auto b = PlanEvacuation(map, 2, {0, 1, 3}, /*prefer_buddies=*/true);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pid, b[i].pid);
    EXPECT_EQ(a[i].target, b[i].target);
  }
}

TEST(HandoverTest, JoinerBacksItsRingPredecessorsGroups) {
  // Members 0, 1 and 2 own the map; 3 joins. Owner 2's ring successor is
  // now the joiner instead of 0, so its groups hand their replicas over.
  PartitionMap map(12, 3);
  map.SetOwner(8, 3);  // the joiner owns group 8: left alone
  map.SetBuddy(5, 3);  // the joiner backs group 5 already
  const std::vector<BuddyHandover> plan =
      PlanHandovers(map, {0, 1, 2, 3}, 3, /*join=*/true);
  std::vector<PartitionId> pids;
  for (const BuddyHandover& h : plan) {
    EXPECT_EQ(h.to, 3u);
    pids.push_back(h.pid);
  }
  EXPECT_EQ(pids, (std::vector<PartitionId>{2, 11}));
}

TEST(HandoverTest, LeaverReplicasMoveToTheRingWithoutIt) {
  // Member 1 leaves; it backs owner 0's groups (ring successor). Without
  // it, owner 0's successor is 2.
  PartitionMap map(12, 3);
  for (PartitionId pid : map.PartitionsOf(1)) map.SetOwner(pid, 2);
  const std::vector<BuddyHandover> plan =
      PlanHandovers(map, {0, 1, 2}, 1, /*join=*/false);
  ASSERT_EQ(plan.size(), map.CountOf(0));
  for (const BuddyHandover& h : plan) {
    EXPECT_EQ(map.OwnerOf(h.pid), 0u);
    EXPECT_EQ(map.BuddyOf(h.pid), 1u);
    EXPECT_EQ(h.to, 2u);
  }
}

TEST(HandoverTest, LeaverReplicaStaysWhenOnlyItsOwnerRemains) {
  // The ring without the leaver is the owner alone: no distinct buddy.
  PartitionMap map(4, 2);
  for (PartitionId pid : map.PartitionsOf(1)) map.SetOwner(pid, 0);
  EXPECT_TRUE(PlanHandovers(map, {0, 1}, 1, /*join=*/false).empty());
  EXPECT_TRUE(PlanHandovers(map, {1}, 1, /*join=*/false).empty());
}

TEST(HandoverTest, GroupsOfNonMembersAreLeftAlone) {
  // Owner 3 is no member (dead or standby): its groups are not planned.
  PartitionMap map(8, 4);
  for (PartitionId pid : map.PartitionsOf(1)) map.SetOwner(pid, 0);
  const std::vector<BuddyHandover> join =
      PlanHandovers(map, {0, 1, 2}, 1, /*join=*/true);
  for (const BuddyHandover& h : join) EXPECT_NE(map.OwnerOf(h.pid), 3u);
  const std::vector<BuddyHandover> leave =
      PlanHandovers(map, {0, 1, 2}, 2, /*join=*/false);
  for (const BuddyHandover& h : leave) EXPECT_NE(map.OwnerOf(h.pid), 3u);
  // Group 2's buddy is 3 (ring successor of owner 2 at construction).
  EXPECT_EQ(map.BuddyOf(2), 3u);
}

TEST(ReorganizationTest, SupplierGivesItsConsumerOneRandomGroup) {
  // Slave 0 supplies, slave 2 consumes, slave 1 is neutral.
  PartitionMap map(12, 3);
  const std::vector<Role> roles = {Role::kSupplier, Role::kNeutral,
                                   Role::kConsumer};
  Pcg32 rng(7, 41);
  Pcg32 same(7, 41);
  const std::vector<RebalanceMove> moves =
      PlanReorganization(map, {0, 1, 2}, roles, rng, false);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].from, 0u);
  EXPECT_EQ(moves[0].to, 2u);
  // One draw over the supplier's groups, ascending.
  const std::vector<PartitionId> owned = map.PartitionsOf(0);
  EXPECT_EQ(moves[0].pid, owned[same.NextBounded(
                              static_cast<std::uint32_t>(owned.size()))]);
  EXPECT_EQ(rng.NextU32(), same.NextU32());
}

TEST(ReorganizationTest, NeverMovesAGroupOntoItsBuddy) {
  // Slave 0's groups are backed by slave 1, its consumer: with buddies
  // respected nothing moves and nothing is drawn.
  PartitionMap map(12, 3);
  const std::vector<Role> roles = {Role::kSupplier, Role::kConsumer,
                                   Role::kNeutral};
  Pcg32 rng(7, 41);
  EXPECT_TRUE(PlanReorganization(map, {0, 1, 2}, roles, rng, true).empty());
  EXPECT_EQ(PlanReorganization(map, {0, 1, 2}, roles, rng, false).size(), 1u);
  // With one group backed elsewhere, that group is the only choice.
  map.SetBuddy(0, 2);
  for (int i = 0; i < 20; ++i) {
    const std::vector<RebalanceMove> moves =
        PlanReorganization(map, {0, 1, 2}, roles, rng, true);
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_EQ(moves[0].pid, 0u);
  }
}

TEST(ReorganizationTest, EverySupplierPairsWithADistinctConsumer) {
  // Members are slave indices, roles follow their order.
  PartitionMap map(16, 5);
  const std::vector<Role> roles = {Role::kSupplier, Role::kConsumer,
                                   Role::kSupplier, Role::kConsumer};
  Pcg32 rng(3, 41);
  const std::vector<RebalanceMove> moves =
      PlanReorganization(map, {0, 2, 3, 4}, roles, rng, false);
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_EQ(moves[0].from, 0u);
  EXPECT_EQ(moves[0].to, 2u);
  EXPECT_EQ(moves[1].from, 3u);
  EXPECT_EQ(moves[1].to, 4u);
  for (const RebalanceMove& m : moves) EXPECT_EQ(map.OwnerOf(m.pid), m.from);
}

}  // namespace
}  // namespace sjoin
