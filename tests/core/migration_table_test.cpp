// MigrationTable driven alone: the orphan rule and the mover order on fixed
// cases, then random sequences of issue, ack, duplicate ack and cancel
// checked after every step against a model that keeps every move ever
// issued with its two ack bits and whether a cancel ended it: the withheld
// groups, the next mover, and the orphans each cancel returns.
#include "core/migration_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "testutil/fuzz_env.h"

namespace sjoin {
namespace {

TEST(MigrationTableTest, GroupIsWithheldUntilBothMoversAck) {
  MigrationTable t;
  const std::uint64_t seq = t.Issue(/*pid=*/3, /*sup=*/0, /*con=*/1);
  EXPECT_EQ(seq, 1u);
  EXPECT_TRUE(t.Withheld(3));
  EXPECT_FALSE(t.Withheld(2));
  EXPECT_EQ(t.Settled({1, 2, 3, 4}), (std::vector<PartitionId>{1, 2, 4}));
  EXPECT_EQ(t.NextMover(), 0u);
  t.Ack(0, seq);
  t.Ack(0, seq);  // a duplicate changes nothing
  t.Ack(2, seq);  // nor does a rank that is no mover
  t.Ack(1, seq + 1);  // nor a seq of no move
  EXPECT_TRUE(t.Withheld(3));
  EXPECT_EQ(t.NextMover(), 1u);
  t.Ack(1, seq);
  EXPECT_FALSE(t.Withheld(3));
  EXPECT_TRUE(t.Empty());
  EXPECT_EQ(t.Issue(5, 1, 0), 2u);  // seqs are never reused
}

TEST(MigrationTableTest, ConsumerMayAckFirst) {
  MigrationTable t;
  const std::uint64_t seq = t.Issue(4, 2, 0);
  t.Ack(0, seq);
  EXPECT_EQ(t.NextMover(), 2u);  // the supplier still owes its ack
  t.Ack(2, seq);
  EXPECT_TRUE(t.Empty());
}

TEST(MigrationTableTest, SupplierDeadBeforeTheConsumerAckOrphansTheGroup) {
  MigrationTable t;
  const std::uint64_t a = t.Issue(1, 0, 1);
  const std::uint64_t b = t.Issue(2, 0, 2);
  t.Issue(3, 1, 2);
  t.Ack(2, b);  // move b's consumer confirmed the install
  EXPECT_EQ(t.Cancel(0), std::vector<PartitionId>{1});
  EXPECT_FALSE(t.Withheld(1));
  EXPECT_FALSE(t.Withheld(2));
  EXPECT_TRUE(t.Withheld(3));
  t.Ack(1, a);  // a late ack of a cancelled move
  EXPECT_TRUE(t.Withheld(3));
  // A dead consumer orphans nothing: the supplier still holds the state.
  EXPECT_TRUE(t.Cancel(2).empty());
  EXPECT_TRUE(t.Empty());
}

/// The model: every move ever issued, in issue order.
struct ModelMove {
  std::uint64_t seq = 0;
  PartitionId pid = 0;
  SlaveIdx sup = 0;
  SlaveIdx con = 0;
  bool sup_acked = false;
  bool con_acked = false;
  bool cancelled = false;

  bool Live() const { return !cancelled && !(sup_acked && con_acked); }
};

constexpr std::uint32_t kGroups = 8;
constexpr std::uint32_t kSlaves = 4;

void RunSequence(std::uint64_t seed, std::uint64_t ops[4]) {
  Pcg32 rng(Mix64(seed ^ 0x3160A7ULL), 3);
  MigrationTable table;
  std::vector<ModelMove> model;
  for (int step = 0; step < 200; ++step) {
    switch (rng.NextBounded(4)) {
      case 0: {
        ++ops[0];
        const PartitionId pid = rng.NextBounded(kGroups);
        const SlaveIdx sup = rng.NextBounded(kSlaves);
        const SlaveIdx con = (sup + 1 + rng.NextBounded(kSlaves - 1)) % kSlaves;
        const std::uint64_t seq = table.Issue(pid, sup, con);
        ASSERT_EQ(seq, model.size() + 1);
        model.push_back(ModelMove{seq, pid, sup, con});
        break;
      }
      case 1:
      case 2: {
        // An ack from any rank for any seq ever issued (a duplicate when
        // its move already ended or the rank already acked), or for one
        // never issued.
        const SlaveIdx src = rng.NextBounded(kSlaves);
        const std::uint64_t seq =
            1 + rng.NextBounded(static_cast<std::uint32_t>(model.size() + 2));
        bool counts = false;
        if (seq <= model.size()) {
          ModelMove& m = model[seq - 1];
          if (m.Live()) {
            counts = (src == m.sup && !m.sup_acked) ||
                     (src == m.con && !m.con_acked);
            if (src == m.sup) m.sup_acked = true;
            if (src == m.con) m.con_acked = true;
          }
        }
        ++ops[counts ? 1 : 2];
        table.Ack(src, seq);
        break;
      }
      default: {
        ++ops[3];
        const SlaveIdx dead = rng.NextBounded(kSlaves);
        std::vector<PartitionId> orphans;
        for (ModelMove& m : model) {
          if (!m.Live() || (m.sup != dead && m.con != dead)) continue;
          if (m.sup == dead && !m.con_acked) orphans.push_back(m.pid);
          m.cancelled = true;
        }
        ASSERT_EQ(table.Cancel(dead), orphans);
        break;
      }
    }
    std::vector<ModelMove> live;
    for (const ModelMove& m : model) {
      if (m.Live()) live.push_back(m);
    }
    for (PartitionId pid = 0; pid < kGroups; ++pid) {
      const bool withheld =
          std::any_of(live.begin(), live.end(),
                      [&](const ModelMove& m) { return m.pid == pid; });
      ASSERT_EQ(table.Withheld(pid), withheld) << "pid " << pid;
    }
    ASSERT_EQ(table.Empty(), live.empty());
    if (!live.empty()) {
      ASSERT_EQ(table.NextMover(),
                live.front().sup_acked ? live.front().con : live.front().sup);
    }
  }
}

TEST(MigrationTableTest, RandomSequencesMatchTheModel) {
  const int trials = FuzzIters(300);
  std::uint64_t ops[4] = {};
  for (int t = 0; t < trials; ++t) {
    RunSequence(static_cast<std::uint64_t>(t), ops);
    if (::testing::Test::HasFatalFailure()) FAIL() << "trial " << t;
  }
  for (int i = 0; i < 4; ++i) EXPECT_GT(ops[i], 0u) << "op " << i;
}

}  // namespace
}  // namespace sjoin
