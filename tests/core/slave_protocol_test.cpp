// The slave's side of the protocol, one frame type at a time: a single
// RunSlaveNode runs over an InProcHub while the test plays the master
// (rank 0), a peer slave (rank 2) and the collector (rank 3). Each case
// sends frames and checks the frames the slave answers with, their order
// and their payloads -- including the install paths (a transfer that
// overtakes its command, duplicates, the bounded stash) that no cluster run
// can be steered into.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <thread>
#include <vector>

#include "common/config.h"
#include "core/runner.h"
#include "join/epoch_tag_sink.h"
#include "join/join_module.h"
#include "net/codec.h"
#include "net/inproc_transport.h"
#include "window/partition_group.h"
#include "window/state_codec.h"

namespace sjoin {
namespace {

constexpr Rank kMaster = 0;
constexpr Rank kSlave = 1;
constexpr Rank kPeer = 2;
constexpr Rank kCollector = 3;
constexpr std::uint32_t kPartitions = 8;
constexpr PartitionId kPid = 3;
constexpr Duration kWaitUs = 10 * kUsPerSec;

Message Frame(MsgType type, Writer&& w) {
  Message m;
  m.type = type;
  m.payload = std::move(w).TakeBuffer();
  return m;
}

template <typename Msg>
Message Frame(MsgType type, const Msg& body) {
  Writer w;
  Encode(w, body);
  return Frame(type, std::move(w));
}

/// The smallest key of partition `pid`.
std::uint64_t KeyIn(PartitionId pid) {
  std::uint64_t key = 0;
  while (PartitionOf(key, kPartitions) != pid) ++key;
  return key;
}

class SlaveProtocolTest : public ::testing::Test {
 protected:
  SlaveProtocolTest() {
    cfg_.num_slaves = 2;
    cfg_.join.num_partitions = kPartitions;
    cfg_.join.window = 10 * kUsPerSec;
    cfg_.epoch.t_dist = 5 * kUsPerMs;
    cfg_.replication.enabled = true;  // journals sealed records
    tb_ = cfg_.workload.tuple_bytes;
    master_ = hub_.Endpoint(kMaster);
    peer_ = hub_.Endpoint(kPeer);
    collector_ = hub_.Endpoint(kCollector);
  }

  ~SlaveProtocolTest() override {
    if (slave_.joinable()) {
      hub_.Shutdown();  // a failed case must not leave the slave running
      slave_.join();
    }
  }

  /// Starts the slave; `spin_us_per_tuple` slows its join thread down.
  void Start(Duration spin_us_per_tuple = 0) {
    WallOptions wall;
    wall.slave_spin_us_per_tuple = {spin_us_per_tuple, 0};
    wall.slave_epoch_sinks = {&tag_, nullptr};
    slave_ = std::thread([this, wall] {
      summary_ = RunSlaveNode(*slave_ep_, cfg_, wall);
    });
  }

  /// Sends kShutdown as the master, checks that the slave passes it on to
  /// the collector, and waits for RunSlaveNode to return.
  void Stop() {
    master_->Send(kSlave, Message{});
    Message m = Next(*collector_, {MsgType::kResultStats});
    EXPECT_EQ(m.type, MsgType::kShutdown);
    slave_.join();
  }

  void SendBatch(std::vector<Rec> recs) {
    Writer w;
    Encode(w, TupleBatchMsg{std::move(recs)}, tb_);
    master_->Send(kSlave, Frame(MsgType::kTupleBatch, std::move(w)));
  }

  /// A state transfer of an empty group, sent by the peer.
  void SendTransfer(PartitionId pid, std::uint64_t seq) {
    Writer gw;
    EncodeGroupState(gw, PartitionGroup(cfg_.join, tb_));
    StateTransferMsg st;
    st.partition_id = pid;
    st.group_state = std::move(gw).TakeBuffer();
    st.move_seq = seq;
    Writer w;
    Encode(w, st, tb_);
    peer_->Send(kSlave, Frame(MsgType::kStateTransfer, std::move(w)));
  }

  /// The next frame the slave sent to `at`, passing over `skip` types. A
  /// wait that times out fails the case and returns a default frame.
  Message Next(Transport& at, std::initializer_list<MsgType> skip = {}) {
    while (true) {
      RecvResult res = at.RecvFromTimed(kSlave, kWaitUs);
      if (!res.Ok()) {
        ADD_FAILURE() << "no frame from the slave";
        return Message{};
      }
      bool skipped = false;
      for (MsgType t : skip) skipped |= res.msg.type == t;
      if (!skipped) return std::move(res.msg);
    }
  }

  /// The next frame to the master other than a load report.
  Message NextToMaster() { return Next(*master_, {MsgType::kLoadReport}); }

  /// Waits until the join thread has handled every frame sent so far: sends
  /// an empty batch and returns the types of the frames other than load
  /// reports that reached the master before that batch's kMetrics.
  std::vector<MsgType> Barrier() {
    SendBatch({});
    std::vector<MsgType> before;
    while (true) {
      Message m = NextToMaster();
      if (m.type == MsgType::kMetrics || m.type == MsgType::kShutdown) break;
      before.push_back(m.type);
    }
    return before;
  }

  SystemConfig cfg_;
  std::size_t tb_ = 0;
  InProcHub hub_{4};
  std::unique_ptr<InProcEndpoint> slave_ep_ = hub_.Endpoint(kSlave);
  std::unique_ptr<InProcEndpoint> master_;
  std::unique_ptr<InProcEndpoint> peer_;
  std::unique_ptr<InProcEndpoint> collector_;
  EpochTagSink tag_{kPartitions};
  SlaveSummary summary_;
  std::thread slave_;
};

TEST_F(SlaveProtocolTest, TupleBatchIsAnsweredAtOnceThenJoined) {
  Start(/*spin_us_per_tuple=*/100 * kUsPerMs);
  const std::uint64_t k = KeyIn(kPid);
  SendBatch({{1000, k, 0}, {2000, k, 1}});
  // The comm thread answers while the join thread still sleeps on the batch.
  Message m = Next(*master_);
  ASSERT_EQ(m.type, MsgType::kLoadReport);
  Reader lr(m.payload);
  const LoadReportMsg report = DecodeLoadReport(lr);
  EXPECT_EQ(report.seq, 1u);
  EXPECT_EQ(report.buffered_tuples, 0u);
  m = Next(*master_);
  ASSERT_EQ(m.type, MsgType::kMetrics);
  Reader mr(m.payload);
  EXPECT_EQ(DecodeMetrics(mr).epoch, 1u);
  m = Next(*collector_);
  ASSERT_EQ(m.type, MsgType::kResultStats);
  Reader sr(m.payload);
  EXPECT_EQ(DecodeResultStats(sr).outputs, 1u);
  Stop();
  EXPECT_EQ(summary_.tuples_processed, 2u);
  EXPECT_EQ(summary_.outputs, 1u);
}

TEST_F(SlaveProtocolTest, MoveCmdShipsTheGroupToTheConsumerThenAcks) {
  Start();
  const std::uint64_t k = KeyIn(kPid);
  SendBatch({{1000, k, 0}, {2000, k, 1}});
  ASSERT_EQ(NextToMaster().type, MsgType::kMetrics);
  master_->Send(kSlave, Frame(MsgType::kMoveCmd, MoveCmdMsg{kPid, kPeer, 7}));
  Message m = NextToMaster();
  ASSERT_EQ(m.type, MsgType::kAck);
  Reader ar(m.payload);
  const AckMsg ack = DecodeAck(ar);
  EXPECT_EQ(ack.partition_id, kPid);
  EXPECT_EQ(ack.move_seq, 7u);
  // The transfer was sent before the ack, so it already waits at the peer.
  RecvResult res = peer_->RecvFromTimed(kSlave, 0);
  ASSERT_TRUE(res.Ok());
  ASSERT_EQ(res.msg.type, MsgType::kStateTransfer);
  Reader tr(res.msg.payload);
  const StateTransferMsg st = DecodeStateTransfer(tr, tb_);
  EXPECT_EQ(st.partition_id, kPid);
  EXPECT_EQ(st.move_seq, 7u);
  EXPECT_TRUE(st.pending.empty());
  Reader gr(st.group_state);
  EXPECT_EQ(CollectGroupRecords(*DecodeGroupState(gr, cfg_.join, tb_)).size(),
            2u);
  Stop();
  EXPECT_EQ(summary_.groups_moved_out, 1u);
}

TEST_F(SlaveProtocolTest, CkptCmdShipsAFullSegmentThenNothingNewThenADelta) {
  Start();
  const std::uint64_t k = KeyIn(kPid);
  SendBatch({{1000, k, 0}, {2000, k, 1}});
  ASSERT_EQ(NextToMaster().type, MsgType::kMetrics);
  CkptCmdMsg cmd;
  cmd.covered_epoch = 1;
  cmd.entries.push_back({kPid, kPeer, /*full=*/false, /*committed_epoch=*/0});
  master_->Send(kSlave, Frame(MsgType::kCkptCmd, cmd));
  // First contact with the group: a full snapshot.
  Message m = Next(*peer_);
  ASSERT_EQ(m.type, MsgType::kCheckpoint);
  Reader r1(m.payload);
  const CheckpointMsg full = DecodeCheckpoint(r1, tb_);
  EXPECT_EQ(full.partition_id, kPid);
  EXPECT_TRUE(full.full);
  EXPECT_EQ(full.from_epoch, 0u);
  EXPECT_EQ(full.to_epoch, 1u);
  EXPECT_EQ(full.recs.size(), 2u);
  // No batch since: the second command sends nothing...
  master_->Send(kSlave, Frame(MsgType::kCkptCmd, cmd));
  SendBatch({{3000, k, 0}});
  ASSERT_EQ(NextToMaster().type, MsgType::kMetrics);
  cmd.covered_epoch = 2;
  cmd.entries[0].committed_epoch = 1;
  master_->Send(kSlave, Frame(MsgType::kCkptCmd, cmd));
  // ...so the peer's next segment is the third command's delta.
  m = Next(*peer_);
  ASSERT_EQ(m.type, MsgType::kCheckpoint);
  Reader r2(m.payload);
  const CheckpointMsg delta = DecodeCheckpoint(r2, tb_);
  EXPECT_FALSE(delta.full);
  EXPECT_EQ(delta.from_epoch, 1u);
  EXPECT_EQ(delta.to_epoch, 2u);
  EXPECT_EQ(delta.committed_epoch, 1u);
  EXPECT_EQ(delta.recs, (std::vector<Rec>{{3000, k, 0}}));
  Stop();
  EXPECT_EQ(summary_.ckpt_segments_sent, 2u);
}

TEST_F(SlaveProtocolTest, CheckpointIsAckedWithItsEpochAndSize) {
  Start();
  CheckpointMsg seg;
  seg.partition_id = kPid;
  seg.full = true;
  seg.to_epoch = 4;
  seg.recs = {{1000, KeyIn(kPid), 0}};
  Writer w;
  Encode(w, seg, tb_);
  const std::uint64_t bytes = w.Size();
  peer_->Send(kSlave, Frame(MsgType::kCheckpoint, std::move(w)));
  Message m = NextToMaster();
  ASSERT_EQ(m.type, MsgType::kCheckpointAck);
  Reader r(m.payload);
  const CheckpointAckMsg ack = DecodeCheckpointAck(r);
  EXPECT_EQ(ack.partition_id, kPid);
  EXPECT_EQ(ack.covered_epoch, 4u);
  EXPECT_EQ(ack.bytes, bytes);
  Stop();
  EXPECT_EQ(summary_.ckpt_segments_applied, 1u);
}

TEST_F(SlaveProtocolTest, FailoverThenReplayTagsOutputsWithTheOriginalEpoch) {
  Start();
  const std::uint64_t k = KeyIn(kPid);
  CheckpointMsg seg;
  seg.partition_id = kPid;
  seg.full = true;
  seg.to_epoch = 2;
  seg.recs = {{1000, k, 0}, {1500, k, 0}};
  Writer w;
  Encode(w, seg, tb_);
  peer_->Send(kSlave, Frame(MsgType::kCheckpoint, std::move(w)));
  ASSERT_EQ(NextToMaster().type, MsgType::kCheckpointAck);
  FailoverCmdMsg fo;
  fo.dead = kPeer;
  fo.entries.push_back({kPid, /*replay_from=*/3});
  master_->Send(kSlave, Frame(MsgType::kFailoverCmd, fo));
  Writer rw;
  Encode(rw, ReplayBatchMsg{3, {{2000, k, 1}}}, tb_);
  master_->Send(kSlave, Frame(MsgType::kReplayBatch, std::move(rw)));
  Stop();
  // The replayed tuple joins both records the replica rebuilt.
  ASSERT_EQ(tag_.Outputs().size(), 2u);
  for (const TaggedOutput& t : tag_.Outputs()) {
    EXPECT_EQ(t.epoch, 3u);
    EXPECT_EQ(t.pid, kPid);
  }
  EXPECT_EQ(summary_.groups_adopted, 1u);
  EXPECT_EQ(summary_.replayed_tuples, 1u);
}

TEST_F(SlaveProtocolTest, JoinCmdIsAckedAtOnceAndResyncsTheEpoch) {
  Start(/*spin_us_per_tuple=*/200 * kUsPerMs);
  SendBatch({{1000, KeyIn(kPid), 0}});
  master_->Send(kSlave, Frame(MsgType::kJoinCmd, JoinCmdMsg{5, kPartitions}));
  // Acked while the join thread still sleeps on the batch ahead of it.
  Message m = NextToMaster();
  ASSERT_EQ(m.type, MsgType::kJoinAck);
  Reader jr(m.payload);
  EXPECT_EQ(DecodeJoinAck(jr).admit_epoch, 5u);
  m = NextToMaster();
  ASSERT_EQ(m.type, MsgType::kMetrics);
  Reader m1(m.payload);
  EXPECT_EQ(DecodeMetrics(m1).epoch, 1u);
  // The first batch after the command is the admitted epoch.
  SendBatch({});
  m = NextToMaster();
  ASSERT_EQ(m.type, MsgType::kMetrics);
  Reader m2(m.payload);
  EXPECT_EQ(DecodeMetrics(m2).epoch, 5u);
  Stop();
}

TEST_F(SlaveProtocolTest, LeaveAckFollowsTheFramesOfEarlierQueuedWork) {
  Start(/*spin_us_per_tuple=*/100 * kUsPerMs);
  SendBatch({{1000, KeyIn(kPid), 0}});
  master_->Send(kSlave, Frame(MsgType::kMoveCmd, MoveCmdMsg{kPid, kPeer, 9}));
  master_->Send(kSlave, Frame(MsgType::kLeaveCmd, LeaveCmdMsg{2}));
  std::vector<MsgType> order;
  Message m;
  do {
    m = NextToMaster();
    order.push_back(m.type);
  } while (m.type != MsgType::kLeaveAck && m.type != MsgType::kShutdown);
  EXPECT_EQ(order, (std::vector<MsgType>{MsgType::kMetrics, MsgType::kAck,
                                         MsgType::kLeaveAck}));
  Reader lr(m.payload);
  EXPECT_EQ(DecodeLeaveAck(lr).epoch, 2u);
  EXPECT_EQ(Next(*peer_).type, MsgType::kStateTransfer);
  Stop();
}

TEST_F(SlaveProtocolTest, ShutdownIsPassedOnToTheCollector) {
  Start();
  master_->Send(kSlave, Message{});  // a default frame is a kShutdown
  // Nothing was joined, so no kResultStats precedes it.
  EXPECT_EQ(Next(*collector_).type, MsgType::kShutdown);
  slave_.join();
  EXPECT_EQ(summary_.tuples_processed, 0u);
}

TEST_F(SlaveProtocolTest, TransferAheadOfItsInstallCmdIsAckedWhenItArrives) {
  Start();
  SendTransfer(kPid, 11);
  EXPECT_TRUE(Barrier().empty());  // held, not acked
  master_->Send(kSlave,
                Frame(MsgType::kInstallCmd, MoveCmdMsg{kPid, kPeer, 11}));
  Message m = NextToMaster();
  ASSERT_EQ(m.type, MsgType::kAck);
  Reader r(m.payload);
  EXPECT_EQ(DecodeAck(r).move_seq, 11u);
  Stop();
  EXPECT_EQ(summary_.groups_moved_in, 1u);
}

TEST_F(SlaveProtocolTest, DuplicateTransferOrInstallCmdIsNotAckedTwice) {
  Start();
  const Message cmd = Frame(MsgType::kInstallCmd, MoveCmdMsg{kPid, kPeer, 12});
  master_->Send(kSlave, cmd);
  SendTransfer(kPid, 12);
  Message m = NextToMaster();
  ASSERT_EQ(m.type, MsgType::kAck);
  Reader r(m.payload);
  EXPECT_EQ(DecodeAck(r).move_seq, 12u);
  SendTransfer(kPid, 12);
  master_->Send(kSlave, cmd);
  EXPECT_TRUE(Barrier().empty());
  Stop();
  EXPECT_EQ(summary_.groups_moved_in, 1u);
}

TEST_F(SlaveProtocolTest, SixtyFifthOvertakingTransferEvictsTheLowestSeq) {
  Start();
  // 65 transfers ahead of their commands: the stash holds 64, so the last
  // one evicts seq 101.
  for (std::uint64_t seq = 101; seq <= 165; ++seq) {
    SendTransfer(static_cast<PartitionId>(seq % kPartitions), seq);
  }
  master_->Send(kSlave,
                Frame(MsgType::kInstallCmd, MoveCmdMsg{101 % kPartitions,
                                                       kPeer, 101}));
  EXPECT_TRUE(Barrier().empty());  // evicted: never acked
  master_->Send(kSlave,
                Frame(MsgType::kInstallCmd, MoveCmdMsg{102 % kPartitions,
                                                       kPeer, 102}));
  Message m = NextToMaster();
  ASSERT_EQ(m.type, MsgType::kAck);
  Reader r(m.payload);
  EXPECT_EQ(DecodeAck(r).move_seq, 102u);
  Stop();
  EXPECT_EQ(summary_.groups_moved_in, 1u);
}

}  // namespace
}  // namespace sjoin
