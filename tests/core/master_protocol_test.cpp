// The master's side of the protocol, one path at a time: a single
// RunMasterNode distributes a fixed input trace over an InProcHub while the
// test plays every slave and the collector. The master's endpoint logs each
// frame it sends, so a case can wait for a frame, answer it, and check
// afterwards which frames went out, in what order and with what payloads.
// Waits on the wall clock are checked only from below (a verdict never comes
// before its timeouts), which a slow host cannot break.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.h"
#include "core/runner.h"
#include "join/join_module.h"
#include "net/codec.h"
#include "net/inproc_transport.h"

namespace sjoin {
namespace {

using SteadyTime = std::chrono::steady_clock::time_point;

constexpr Rank kMaster = 0;
constexpr Duration kTd = 5 * kUsPerMs;
/// How long a case waits for one frame before it fails.
constexpr auto kFrameWait = std::chrono::seconds(20);
/// Timeout of one master receive in the cases that let a slave go silent.
/// The slaves that answer get (retries + 1) times it, slack for a slow host.
constexpr Duration kShortTimeout = 100 * kUsPerMs;

/// One frame the master sent.
struct Sent {
  Rank to = 0;
  MsgType type = MsgType::kShutdown;
  std::vector<std::uint8_t> payload;
  SteadyTime at;
  std::size_t index = 0;  ///< position among all frames the master sent
};

/// The master's endpoint: forwards everything and logs each send.
class SendLog final : public Transport {
 public:
  explicit SendLog(std::unique_ptr<InProcEndpoint> inner)
      : inner_(std::move(inner)) {}

  Rank Self() const override { return inner_->Self(); }

  void Send(Rank to, Message msg) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      sent_.push_back(Sent{to, msg.type, msg.payload,
                           std::chrono::steady_clock::now(), sent_.size()});
    }
    cv_.notify_all();
    inner_->Send(to, std::move(msg));
  }

  RecvResult RecvTimed(Duration timeout_us) override {
    return inner_->RecvTimed(timeout_us);
  }
  RecvResult RecvFromTimed(Rank from, Duration timeout_us) override {
    return inner_->RecvFromTimed(from, timeout_us);
  }

  /// Frames sent so far.
  std::size_t Count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sent_.size();
  }

  std::vector<Sent> Frames() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sent_;
  }

  /// Waits for the `nth` (0-based) frame of `type` to `to`; false when it
  /// does not come.
  bool WaitFor(Rank to, MsgType type, std::size_t nth, Sent* out) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, kFrameWait, [&] {
      std::size_t seen = 0;
      for (const Sent& s : sent_) {
        if (s.to != to || s.type != type) continue;
        if (seen++ == nth) {
          *out = s;
          return true;
        }
      }
      return false;
    });
  }

 private:
  std::unique_ptr<InProcEndpoint> inner_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Sent> sent_;
};

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

/// The master's final kShutdown to the collector.
struct CollectorNote {
  std::uint32_t live = 0;
  std::uint32_t dead = 0;
  std::uint64_t failed_over = 0;
  std::uint64_t ckpt_bytes = 0;
  std::uint64_t replayed_batches = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t drain_moves = 0;
};

CollectorNote DecodeCollectorNote(const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  CollectorNote n;
  n.live = r.GetU32();
  n.dead = r.GetU32();
  n.failed_over = r.GetU64();
  n.ckpt_bytes = r.GetU64();
  n.replayed_batches = r.GetU64();
  n.joins = r.GetU64();
  n.leaves = r.GetU64();
  n.drain_moves = r.GetU64();
  EXPECT_TRUE(r.AtEnd());
  return n;
}

Duration Micros(SteadyTime from, SteadyTime to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

class MasterProtocolTest : public ::testing::Test {
 protected:
  MasterProtocolTest() {
    cfg_.num_slaves = 2;
    cfg_.join.num_partitions = 4;
    cfg_.join.window = 10 * kUsPerSec;
    cfg_.epoch.t_dist = kTd;
    cfg_.epoch.t_rep = 1000 * kTd;  // no reorganization unless a case asks
    cfg_.replication.ckpt_interval_epochs = 1000;  // no sweep unless asked
    wall_.recv_timeout_us = 2 * kUsPerSec;
    wall_.recv_max_retries = 1;
  }

  ~MasterProtocolTest() override {
    if (master_.joinable()) {
      hub_->Shutdown();  // a failed case must not leave the master running
      master_.join();
    }
  }

  /// The trace: one tuple of every group in each of epochs 1..`epochs`,
  /// groups ascending, so the master runs exactly `epochs` epochs.
  void Fill(std::uint64_t epochs) {
    const std::uint32_t npart = cfg_.join.num_partitions;
    for (std::uint64_t e = 1; e <= epochs; ++e) {
      for (PartitionId pid = 0; pid < npart; ++pid) {
        std::uint64_t key = 0;
        while (PartitionOf(key, npart) != pid) ++key;
        trace_.push_back(Rec{static_cast<Time>(e - 1) * kTd + 1 + pid, key,
                             static_cast<StreamId>(pid & 1)});
      }
    }
  }

  /// The trace's tuples of `pids` (in that order), epochs from..to.
  std::vector<Rec> Tuples(std::vector<PartitionId> pids, std::uint64_t from,
                          std::uint64_t to) const {
    std::vector<Rec> out;
    for (PartitionId pid : pids) {
      for (const Rec& rec : trace_) {
        const std::uint64_t e = static_cast<std::uint64_t>(rec.ts / kTd) + 1;
        if (PartitionOf(rec.key, cfg_.join.num_partitions) == pid &&
            e >= from && e <= to) {
          out.push_back(rec);
        }
      }
    }
    return out;
  }

  void Start() {
    const Rank n = cfg_.num_slaves;
    hub_ = std::make_unique<InProcHub>(n + 2);
    log_ = std::make_unique<SendLog>(hub_->Endpoint(kMaster));
    eps_.clear();
    eps_.push_back(nullptr);
    for (Rank r = 1; r <= n + 1; ++r) eps_.push_back(hub_->Endpoint(r));
    wall_.input_trace = &trace_;
    master_ = std::thread(
        [this] { summary_ = RunMasterNode(*log_, cfg_, wall_); });
  }

  /// Waits for RunMasterNode to return.
  const MasterSummary& Finish() {
    master_.join();
    return summary_;
  }

  /// The next frame of `type` the master sends to `to`. A wait that times
  /// out fails the case and returns a default frame.
  Sent Await(Rank to, MsgType type) {
    Sent s;
    if (!log_->WaitFor(to, type, cursor_[{to, type}]++, &s)) {
      ADD_FAILURE() << "no " << MsgTypeName(type) << " to rank " << to;
    }
    return s;
  }

  /// The next kTupleBatch to slave rank `r`, decoded.
  std::vector<Rec> Batch(Rank r) {
    const Sent s = Await(r, MsgType::kTupleBatch);
    ++batches_[r];
    Reader rd(s.payload);
    return DecodeTupleBatch(rd, cfg_.workload.tuple_bytes).recs;
  }

  template <typename Msg>
  void SendAs(Rank r, MsgType type, const Msg& body) {
    eps_[r]->Send(kMaster, Frame(type, body));
  }

  /// Answers the newest batch rank `r` got.
  void Report(Rank r, double occupancy = 0.2) {
    SendAs(r, MsgType::kLoadReport,
           LoadReportMsg{occupancy, 0, 0, batches_[r]});
  }

  /// One epoch of `ranks`: each takes its batch and reports.
  void Serve(std::initializer_list<Rank> ranks) {
    for (Rank r : ranks) (void)Batch(r);
    for (Rank r : ranks) Report(r);
  }

  template <typename Msg, typename DecodeFn>
  Msg Decoded(const Sent& s, DecodeFn decode) {
    Reader r(s.payload);
    return decode(r);
  }

  MoveCmdMsg AwaitMove(Rank to, MsgType type) {
    return Decoded<MoveCmdMsg>(Await(to, type), DecodeMoveCmd);
  }
  CkptCmdMsg AwaitCkpt(Rank to) {
    return Decoded<CkptCmdMsg>(Await(to, MsgType::kCkptCmd), DecodeCkptCmd);
  }

  void Ack(Rank r, PartitionId pid, std::uint64_t seq) {
    SendAs(r, MsgType::kAck, AckMsg{pid, seq});
  }
  void CkptAck(Rank r, PartitionId pid, std::uint64_t covered) {
    SendAs(r, MsgType::kCheckpointAck, CheckpointAckMsg{pid, covered, 100});
  }

  /// Every frame, as (destination, type), in send order.
  std::vector<std::pair<Rank, MsgType>> Order() const {
    std::vector<std::pair<Rank, MsgType>> out;
    for (const Sent& s : log_->Frames()) out.emplace_back(s.to, s.type);
    return out;
  }

  /// Index of the first frame at or after `from` of `type` to `to`.
  std::size_t IndexOf(Rank to, MsgType type, std::size_t from = 0) const {
    const std::vector<Sent> frames = log_->Frames();
    for (std::size_t i = from; i < frames.size(); ++i) {
      if (frames[i].to == to && frames[i].type == type) return i;
    }
    return frames.size();
  }

  SystemConfig cfg_;
  WallOptions wall_;
  std::vector<Rec> trace_;
  std::unique_ptr<InProcHub> hub_;
  std::unique_ptr<SendLog> log_;
  std::vector<std::unique_ptr<InProcEndpoint>> eps_;  // index = rank
  std::map<std::pair<Rank, MsgType>, std::size_t> cursor_;
  std::map<Rank, std::uint64_t> batches_;
  MasterSummary summary_;
  std::thread master_;
};

using MT = MsgType;

TEST_F(MasterProtocolTest, ClockSyncThenOneBatchPerMemberPerEpochInOrder) {
  Fill(3);
  Start();
  // Epoch 1. Slave 2 reports at once; slave 1 first sends two reports whose
  // seq answers no batch it got, then the right one.
  EXPECT_EQ(Batch(1), Tuples({0, 2}, 1, 1));
  EXPECT_EQ(Batch(2), Tuples({1, 3}, 1, 1));
  Report(2);
  SendAs(1, MT::kLoadReport, LoadReportMsg{0.2, 0, 0, 0});
  SendAs(1, MT::kLoadReport, LoadReportMsg{0.2, 0, 0, 7});
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const std::size_t before_report = log_->Count();
  Report(1);
  for (std::uint64_t e = 2; e <= 3; ++e) {
    EXPECT_EQ(Batch(1), Tuples({0, 2}, e, e));
    EXPECT_EQ(Batch(2), Tuples({1, 3}, e, e));
    Report(1);
    Report(2);
  }
  const MasterSummary& sum = Finish();
  EXPECT_EQ(sum.epochs, 3u);
  EXPECT_EQ(sum.tuples_sent, trace_.size());
  const std::vector<std::pair<Rank, MsgType>> want = {
      {1, MT::kClockSync},  {2, MT::kClockSync},  {1, MT::kTupleBatch},
      {2, MT::kTupleBatch}, {1, MT::kTupleBatch}, {2, MT::kTupleBatch},
      {1, MT::kTupleBatch}, {2, MT::kTupleBatch}, {3, MT::kShutdown},
      {1, MT::kShutdown},   {2, MT::kShutdown}};
  EXPECT_EQ(Order(), want);
  // The stale reports did not end the wait on slave 1.
  EXPECT_GE(IndexOf(1, MT::kTupleBatch, 3), before_report);
  const std::vector<Sent> frames = log_->Frames();
  Reader cs(frames[0].payload);
  EXPECT_EQ(DecodeClockSync(cs).next_epoch_start, kTd);
}

TEST_F(MasterProtocolTest, ReorganizationWithholdsTheGroupUntilBothAcks) {
  cfg_.epoch.t_rep = 2 * kTd;
  Fill(6);
  Start();
  Serve({1, 2});
  // Epoch 2 reorganizes: slave 1 supplies, slave 2 consumes.
  (void)Batch(1);
  (void)Batch(2);
  Report(1, 0.9);
  Report(2, 0.0);
  const MoveCmdMsg move = AwaitMove(1, MT::kMoveCmd);
  const MoveCmdMsg install = AwaitMove(2, MT::kInstallCmd);
  EXPECT_EQ(move.peer, 2u);
  EXPECT_EQ(install.peer, 1u);
  EXPECT_EQ(install.partition_id, move.partition_id);
  EXPECT_EQ(install.move_seq, move.move_seq);
  const PartitionId pid = move.partition_id;
  ASSERT_TRUE(pid == 0 || pid == 2);
  const PartitionId kept = pid == 0 ? 2 : 0;
  // Epoch 3: withheld from both. The supplier acks twice, and an ack with
  // another seq names no move.
  EXPECT_EQ(Batch(1), Tuples({kept}, 3, 3));
  EXPECT_EQ(Batch(2), Tuples({1, 3}, 3, 3));
  Ack(1, pid, move.move_seq);
  Ack(1, pid, move.move_seq);
  Ack(2, pid, move.move_seq + 5);
  Report(1);
  Report(2);
  // Epoch 4: still withheld; the consumer's ack completes the move.
  EXPECT_EQ(Batch(1), Tuples({kept}, 4, 4));
  EXPECT_EQ(Batch(2), Tuples({1, 3}, 4, 4));
  Ack(2, pid, move.move_seq);
  Report(1);
  Report(2);
  // Epoch 5: the consumer gets the group with every withheld tuple. A
  // duplicate ack changes nothing.
  std::vector<PartitionId> con = {1, 3, pid};
  std::sort(con.begin(), con.end());
  std::vector<Rec> want;
  for (PartitionId p : con) {
    const std::vector<Rec> run = Tuples({p}, p == pid ? 3 : 5, 5);
    want.insert(want.end(), run.begin(), run.end());
  }
  EXPECT_EQ(Batch(1), Tuples({kept}, 5, 5));
  EXPECT_EQ(Batch(2), want);
  Ack(2, pid, move.move_seq);
  Ack(1, pid, move.move_seq);
  Report(1);
  Report(2);
  EXPECT_EQ(Batch(1), Tuples({kept}, 6, 6));
  EXPECT_EQ(Batch(2), Tuples(con, 6, 6));
  Report(1);
  Report(2);
  const MasterSummary& sum = Finish();
  EXPECT_EQ(sum.migrations, 1u);
  EXPECT_EQ(sum.tuples_sent, trace_.size());
  // The commands follow epoch 2's batches, supplier first.
  const std::size_t mv = IndexOf(1, MT::kMoveCmd);
  EXPECT_EQ(IndexOf(2, MT::kInstallCmd), mv + 1);
  EXPECT_EQ(mv, 6u);  // 2 syncs, then 2 batches in each of 2 epochs
}

TEST_F(MasterProtocolTest, SilentSlaveIsEvictedAfterMaxRetriesPlusOneTimeouts) {
  wall_.recv_timeout_us = kShortTimeout;
  wall_.recv_max_retries = 2;
  Fill(3);
  Start();
  (void)Batch(1);
  (void)Batch(2);
  Report(1);
  const SteadyTime silent_from = std::chrono::steady_clock::now();
  // Slave 2 never answers; its groups' later tuples go to slave 1.
  EXPECT_EQ(Batch(1), Tuples({0, 1, 2, 3}, 2, 2));
  const Sent next = log_->Frames()[IndexOf(1, MT::kTupleBatch, 3)];
  EXPECT_GE(Micros(silent_from, next.at), 3 * kShortTimeout);
  Report(1);
  EXPECT_EQ(Batch(1), Tuples({0, 1, 2, 3}, 3, 3));
  Report(1);
  const MasterSummary& sum = Finish();
  EXPECT_EQ(sum.dead_slaves, 1u);
  EXPECT_EQ(sum.groups_rehosted, 2u);
  EXPECT_EQ(sum.groups_failed_over, 0u);
  // After its first batch slave 2 gets nothing, not even kShutdown.
  const std::size_t first = IndexOf(2, MT::kTupleBatch);
  EXPECT_EQ(IndexOf(2, MT::kTupleBatch, first + 1), log_->Count());
  EXPECT_EQ(IndexOf(2, MT::kShutdown), log_->Count());
  const CollectorNote note =
      DecodeCollectorNote(log_->Frames()[IndexOf(3, MT::kShutdown)].payload);
  EXPECT_EQ(note.live, 1u);
  EXPECT_EQ(note.dead, 1u);
}

class ReplicatedMasterTest : public MasterProtocolTest {
 protected:
  ReplicatedMasterTest() {
    // Owners: slave 1 groups 0 3, slave 2 groups 1 4, slave 3 groups 2 5;
    // each group's buddy is its owner's ring successor.
    cfg_.num_slaves = 3;
    cfg_.join.num_partitions = 6;
    cfg_.replication.enabled = true;
    wall_.recv_timeout_us = kShortTimeout;
  }
};

TEST_F(ReplicatedMasterTest, FailoverCommandThenReplaysFromCommittedPlusOne) {
  cfg_.replication.ckpt_interval_epochs = 2;
  Fill(5);
  Start();
  Serve({1, 2, 3});
  Serve({1, 2, 3});
  // Epoch 2's sweep: every owner ships its groups to their buddies in full.
  for (Rank r = 1; r <= 3; ++r) {
    const CkptCmdMsg cmd = AwaitCkpt(r);
    EXPECT_EQ(cmd.covered_epoch, 2u);
    ASSERT_EQ(cmd.entries.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(cmd.entries[i].partition_id, r - 1 + 3 * i);
      EXPECT_EQ(cmd.entries[i].buddy, r % 3 + 1);
      EXPECT_TRUE(cmd.entries[i].full);
      EXPECT_EQ(cmd.entries[i].committed_epoch, 0u);
      CkptAck(r % 3 + 1, cmd.entries[i].partition_id, 2);
    }
  }
  Serve({1, 2, 3});
  // Epoch 4: slave 2 goes silent; slave 3, its groups' buddy, adopts them.
  for (Rank r : {1u, 2u, 3u}) (void)Batch(r);
  Report(1);
  Report(3);
  const FailoverCmdMsg fc =
      Decoded<FailoverCmdMsg>(Await(3, MT::kFailoverCmd), DecodeFailoverCmd);
  EXPECT_EQ(fc.dead, 2u);
  ASSERT_EQ(fc.entries.size(), 2u);
  EXPECT_EQ(fc.entries[0].partition_id, 1u);
  EXPECT_EQ(fc.entries[1].partition_id, 4u);
  EXPECT_EQ(fc.entries[0].replay_from, 3u);
  EXPECT_EQ(fc.entries[1].replay_from, 3u);
  for (std::uint64_t e = 3; e <= 4; ++e) {
    const ReplayBatchMsg rb = Decoded<ReplayBatchMsg>(
        Await(3, MT::kReplayBatch), [&](Reader& r) {
          return DecodeReplayBatch(r, cfg_.workload.tuple_bytes);
        });
    EXPECT_EQ(rb.epoch, e);
    EXPECT_EQ(rb.recs, Tuples({1, 4}, e, e));
  }
  // The new owner's sweep entries: the adopted groups start over in full
  // with a fresh buddy, its own groups keep their watermark.
  const CkptCmdMsg own = AwaitCkpt(3);
  ASSERT_EQ(own.entries.size(), 4u);
  EXPECT_EQ(own.entries[0].partition_id, 1u);
  EXPECT_EQ(own.entries[0].buddy, 1u);
  EXPECT_TRUE(own.entries[0].full);
  EXPECT_EQ(own.entries[0].committed_epoch, 0u);
  EXPECT_EQ(own.entries[1].partition_id, 2u);
  EXPECT_FALSE(own.entries[1].full);
  EXPECT_EQ(own.entries[1].committed_epoch, 2u);
  EXPECT_EQ(Batch(1), Tuples({0, 3}, 5, 5));
  EXPECT_EQ(Batch(3), Tuples({1, 2, 4, 5}, 5, 5));
  Report(1);
  Report(3);
  const MasterSummary& sum = Finish();
  EXPECT_EQ(sum.dead_slaves, 1u);
  EXPECT_EQ(sum.groups_failed_over, 2u);
  EXPECT_EQ(sum.degraded_failovers, 0u);
  EXPECT_EQ(sum.replayed_batches, 2u);
  ASSERT_EQ(sum.failovers.size(), 2u);
  EXPECT_EQ(sum.failovers[0].target, 3u);
  EXPECT_EQ(sum.failovers[0].replay_from, 3u);
  EXPECT_EQ(sum.failovers[0].replay_to, 4u);
  // The command goes out right before the replays.
  const std::size_t fc_at = IndexOf(3, MT::kFailoverCmd);
  EXPECT_EQ(IndexOf(3, MT::kReplayBatch), fc_at + 1);
  EXPECT_EQ(IndexOf(3, MT::kReplayBatch, fc_at + 2), fc_at + 2);
}

/// Epoch 2 moves a group of slave 1 to slave 3; slave 1 goes silent at
/// epoch 4. Returns the moved group and checks the failover command.
class OrphanRuleTest : public ReplicatedMasterTest {
 protected:
  OrphanRuleTest() { cfg_.epoch.t_rep = 2 * kTd; }

  void Run(bool consumer_acks_first) {
    Fill(5);
    Start();
    Serve({1, 2, 3});
    for (Rank r : {1u, 2u, 3u}) (void)Batch(r);
    Report(1, 0.9);
    Report(2, 0.2);
    Report(3, 0.0);
    const MoveCmdMsg move = AwaitMove(1, MT::kMoveCmd);
    EXPECT_EQ(move.peer, 3u);
    pid_ = move.partition_id;
    ASSERT_TRUE(pid_ == 0 || pid_ == 3);
    kept_ = pid_ == 0 ? 3 : 0;
    for (Rank r : {1u, 2u, 3u}) (void)Batch(r);
    if (consumer_acks_first) Ack(3, pid_, move.move_seq);
    for (Rank r : {1u, 2u, 3u}) Report(r);
    // Epoch 4: the supplier is silent.
    for (Rank r : {1u, 2u, 3u}) (void)Batch(r);
    Report(2);
    Report(3);
    fc_ = Decoded<FailoverCmdMsg>(Await(2, MT::kFailoverCmd),
                                  DecodeFailoverCmd);
    EXPECT_EQ(fc_.dead, 1u);
  }

  PartitionId pid_ = 0;
  PartitionId kept_ = 0;
  FailoverCmdMsg fc_;
};

TEST_F(OrphanRuleTest, SupplierSilentBeforeTheConsumerAckLosesTheGroup) {
  Run(/*consumer_acks_first=*/false);
  // The supplier's own group, then the orphan, both to their buddy.
  ASSERT_EQ(fc_.entries.size(), 2u);
  EXPECT_EQ(fc_.entries[0].partition_id, kept_);
  EXPECT_EQ(fc_.entries[1].partition_id, pid_);
  EXPECT_EQ(fc_.entries[1].replay_from, 1u);
  // Epoch 5: the buddy owns the group, withheld tuples included.
  std::vector<PartitionId> owned = {1, 4, kept_, pid_};
  std::sort(owned.begin(), owned.end());
  std::vector<Rec> want;
  for (PartitionId p : owned) {
    const std::vector<Rec> run = Tuples({p}, p == pid_ ? 3 : 5, 5);
    want.insert(want.end(), run.begin(), run.end());
  }
  EXPECT_EQ(Batch(2), want);
  EXPECT_EQ(Batch(3), Tuples({2, 5}, 5, 5));
  Report(2);
  Report(3);
  const MasterSummary& sum = Finish();
  EXPECT_EQ(sum.groups_failed_over, 2u);
}

TEST_F(OrphanRuleTest, SupplierSilentAfterTheConsumerAckKeepsTheMove) {
  Run(/*consumer_acks_first=*/true);
  ASSERT_EQ(fc_.entries.size(), 1u);
  EXPECT_EQ(fc_.entries[0].partition_id, kept_);
  // Epoch 5: the consumer keeps the group and gets its withheld tuples.
  std::vector<PartitionId> owned = {2, 5, pid_};
  std::sort(owned.begin(), owned.end());
  std::vector<Rec> want;
  for (PartitionId p : owned) {
    const std::vector<Rec> run = Tuples({p}, p == pid_ ? 3 : 5, 5);
    want.insert(want.end(), run.begin(), run.end());
  }
  std::vector<PartitionId> buddy_owned = {1, 4, kept_};
  std::sort(buddy_owned.begin(), buddy_owned.end());
  EXPECT_EQ(Batch(2), Tuples(buddy_owned, 5, 5));
  EXPECT_EQ(Batch(3), want);
  Report(2);
  Report(3);
  const MasterSummary& sum = Finish();
  EXPECT_EQ(sum.groups_failed_over, 1u);
}

TEST_F(MasterProtocolTest, CheckpointSweepEveryIntervalCarriesTheWatermark) {
  cfg_.replication.enabled = true;
  cfg_.replication.ckpt_interval_epochs = 2;
  Fill(4);
  Start();
  Serve({1, 2});
  Serve({1, 2});
  // Slave 1 owns groups 0 2 (buddy slave 2), slave 2 groups 1 3.
  CkptCmdMsg c1 = AwaitCkpt(1);
  CkptCmdMsg c2 = AwaitCkpt(2);
  EXPECT_EQ(c1.covered_epoch, 2u);
  ASSERT_EQ(c1.entries.size(), 2u);
  ASSERT_EQ(c2.entries.size(), 2u);
  EXPECT_EQ(c1.entries[1].partition_id, 2u);
  EXPECT_EQ(c1.entries[1].buddy, 2u);
  EXPECT_TRUE(c1.entries[1].full);
  CkptAck(2, 0, 2);
  CkptAck(2, 2, 2);
  CkptAck(1, 1, 2);  // group 3's segment is never acked
  Serve({1, 2});
  Serve({1, 2});
  c1 = AwaitCkpt(1);
  c2 = AwaitCkpt(2);
  EXPECT_EQ(c1.covered_epoch, 4u);
  for (const CkptCmdMsg::Entry& e : c1.entries) {
    EXPECT_FALSE(e.full);
    EXPECT_EQ(e.committed_epoch, 2u);
  }
  ASSERT_EQ(c2.entries.size(), 2u);
  EXPECT_EQ(c2.entries[0].committed_epoch, 2u);
  EXPECT_EQ(c2.entries[1].committed_epoch, 0u);
  CkptAck(2, 0, 4);
  CkptAck(2, 2, 4);
  CkptAck(1, 1, 4);
  CkptAck(1, 3, 4);
  const MasterSummary& sum = Finish();
  EXPECT_EQ(sum.ckpt_sweeps, 2u);
  EXPECT_EQ(sum.ckpt_acks, 7u);
  EXPECT_EQ(sum.stale_ckpt_acks, 0u);
  // Sweeps follow the reports of epochs 2 and 4 only.
  std::size_t batches = 0;
  for (const auto& [to, type] : Order()) {
    if (type == MT::kTupleBatch) ++batches;
    if (type == MT::kCkptCmd) {
      EXPECT_TRUE(batches == 4 || batches == 8);
    }
  }
}

TEST_F(ReplicatedMasterTest, AckFromAReplacedBuddyIsStale) {
  cfg_.replication.ckpt_interval_epochs = 2;
  Fill(4);
  Start();
  Serve({1, 2, 3});
  Serve({1, 2, 3});
  for (Rank r = 1; r <= 3; ++r) (void)AwaitCkpt(r);
  // Epoch 3: slave 2 is silent before slave 3 acked its group 1.
  for (Rank r : {1u, 2u, 3u}) (void)Batch(r);
  Report(1);
  Report(3);
  (void)Await(3, MT::kFailoverCmd);
  // Slave 3 owns group 1 now, with slave 1 as its buddy: its late ack as
  // the old buddy is stale.
  for (Rank r : {1u, 3u}) (void)Batch(r);
  CkptAck(3, 1, 2);
  Report(1);
  Report(3);
  const CkptCmdMsg cmd = AwaitCkpt(3);
  ASSERT_FALSE(cmd.entries.empty());
  EXPECT_EQ(cmd.entries[0].partition_id, 1u);
  EXPECT_EQ(cmd.entries[0].buddy, 1u);
  EXPECT_TRUE(cmd.entries[0].full);
  const MasterSummary& sum = Finish();
  EXPECT_EQ(sum.stale_ckpt_acks, 1u);
  EXPECT_EQ(sum.ckpt_acks, 0u);
}

class ElasticMasterTest : public MasterProtocolTest {
 protected:
  ElasticMasterTest() { cfg_.cluster.elastic.enabled = true; }
};

TEST_F(ElasticMasterTest, JoinCmdIsResentWithDoublingTimeoutsThenTheVerdict) {
  cfg_.initial_active_slaves = 1;
  wall_.recv_timeout_us = 20 * kUsPerMs;
  wall_.recv_max_retries = 9;  // slack for slave 1; handshakes never retry
  wall_.membership = {MembershipEvent{2, true, 1}};
  Fill(3);
  Start();
  Serve({1});
  // Epoch 2 starts with the admission of slave 2, which never answers.
  std::vector<Sent> cmds;
  for (int i = 0; i < 4; ++i) cmds.push_back(Await(2, MT::kJoinCmd));
  for (const Sent& s : cmds) {
    Reader r(s.payload);
    const JoinCmdMsg jc = DecodeJoinCmd(r);
    EXPECT_EQ(jc.admit_epoch, 2u);
    EXPECT_EQ(jc.num_partitions, 4u);
  }
  Duration timeout = wall_.recv_timeout_us;
  for (std::size_t i = 1; i < cmds.size(); ++i, timeout *= 2) {
    EXPECT_GE(Micros(cmds[i - 1].at, cmds[i].at), timeout);
  }
  (void)Batch(1);
  const Sent batch = log_->Frames()[IndexOf(1, MT::kTupleBatch, cmds[3].index)];
  EXPECT_GE(Micros(cmds[3].at, batch.at), timeout);
  Report(1);
  Serve({1});
  const MasterSummary& sum = Finish();
  EXPECT_EQ(sum.handshake_retries, 3u);
  EXPECT_EQ(sum.dead_slaves, 1u);
  EXPECT_EQ(sum.joins, 0u);
  EXPECT_EQ(IndexOf(2, MT::kTupleBatch), log_->Count());
  EXPECT_EQ(IndexOf(2, MT::kShutdown), log_->Count());
}

TEST_F(ElasticMasterTest, LeaveMovesGroupsOneAtATimeThenHandsOverThenEnds) {
  cfg_.num_slaves = 3;
  cfg_.join.num_partitions = 6;
  cfg_.replication.enabled = true;
  wall_.membership = {MembershipEvent{2, false, 2}};
  Fill(3);
  Start();
  Serve({1, 2, 3});
  // Epoch 2 starts with the drain of slave 3: its groups 2 and 5 move to
  // slave 2 (slave 1 is their buddy), the second only after both acks of
  // the first.
  const MoveCmdMsg m1 = AwaitMove(3, MT::kMoveCmd);
  const MoveCmdMsg i1 = AwaitMove(2, MT::kInstallCmd);
  EXPECT_EQ(m1.partition_id, 2u);
  EXPECT_EQ(m1.peer, 2u);
  EXPECT_EQ(i1.move_seq, m1.move_seq);
  Ack(3, 2, m1.move_seq);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const std::size_t before_ack = log_->Count();
  Ack(2, 2, m1.move_seq);
  const MoveCmdMsg m2 = AwaitMove(3, MT::kMoveCmd);
  EXPECT_EQ(m2.partition_id, 5u);
  EXPECT_EQ(m2.move_seq, m1.move_seq + 1);
  EXPECT_GE(IndexOf(3, MT::kMoveCmd, IndexOf(3, MT::kMoveCmd) + 1),
            before_ack);
  (void)AwaitMove(2, MT::kInstallCmd);
  Ack(3, 5, m2.move_seq);
  Ack(2, 5, m2.move_seq);
  // Then slave 2's groups 1 and 4, whose replicas slave 3 held, go to its
  // new ring successor, slave 1, one full checkpoint each.
  for (PartitionId pid : {1u, 4u}) {
    const CkptCmdMsg cmd = AwaitCkpt(2);
    EXPECT_EQ(cmd.covered_epoch, 2u);
    ASSERT_EQ(cmd.entries.size(), 1u);
    EXPECT_EQ(cmd.entries[0].partition_id, pid);
    EXPECT_EQ(cmd.entries[0].buddy, 1u);
    EXPECT_TRUE(cmd.entries[0].full);
  }
  CkptAck(1, 1, 2);
  CkptAck(1, 4, 2);
  // Then the farewell, and epoch 2 goes to the two remaining members.
  const Sent leave_cmd = Await(3, MT::kLeaveCmd);
  Reader lr(leave_cmd.payload);
  EXPECT_EQ(DecodeLeaveCmd(lr).epoch, 2u);
  SendAs(3, MT::kLeaveAck, LeaveAckMsg{2});
  EXPECT_EQ(Batch(1), Tuples({0, 3}, 2, 2));
  EXPECT_EQ(Batch(2), Tuples({1, 2, 4, 5}, 2, 2));
  Report(1);
  Report(2);
  Serve({1, 2});
  const MasterSummary& sum = Finish();
  EXPECT_EQ(sum.leaves, 1u);
  EXPECT_EQ(sum.drain_moves, 2u);
  EXPECT_EQ(sum.buddy_handovers, 2u);
  EXPECT_EQ(sum.dead_slaves, 0u);
  // After the farewell slave 3 gets only its kShutdown.
  const std::size_t leave = IndexOf(3, MT::kLeaveCmd);
  const std::vector<Sent> frames = log_->Frames();
  for (std::size_t i = leave + 1; i < frames.size(); ++i) {
    if (frames[i].to == 3) {
      EXPECT_EQ(frames[i].type, MT::kShutdown);
    }
  }
  EXPECT_LT(IndexOf(2, MT::kCkptCmd), IndexOf(3, MT::kLeaveCmd));
  EXPECT_LT(IndexOf(2, MT::kInstallCmd, IndexOf(3, MT::kMoveCmd) + 2),
            IndexOf(2, MT::kCkptCmd));
}

TEST_F(ReplicatedMasterTest, ShutdownWaitsForTheLastSweepThenReleasesThenEnds) {
  cfg_.epoch.t_rep = 2 * kTd;
  cfg_.replication.ckpt_interval_epochs = 3;
  Fill(3);
  Start();
  Serve({1, 2, 3});
  for (Rank r : {1u, 2u, 3u}) (void)Batch(r);
  Report(1, 0.9);
  Report(2, 0.2);
  Report(3, 0.0);
  const MoveCmdMsg move = AwaitMove(1, MT::kMoveCmd);
  const PartitionId pid = move.partition_id;
  // Epoch 3, the last: the move completes after its batches, and the sweep
  // that follows is never acked.
  for (Rank r : {1u, 2u, 3u}) (void)Batch(r);
  Ack(1, pid, move.move_seq);
  Ack(3, pid, move.move_seq);
  for (Rank r : {1u, 2u, 3u}) Report(r);
  for (Rank r = 1; r <= 3; ++r) (void)AwaitCkpt(r);
  // The master waits for each buddy's acks, bounded and with no verdict,
  // then sends the tuples it withheld during the move.
  EXPECT_EQ(Batch(3), Tuples({pid}, 3, 3));
  const MasterSummary& sum = Finish();
  EXPECT_EQ(sum.dead_slaves, 0u);
  const std::vector<Sent> frames = log_->Frames();
  const std::size_t sweep = IndexOf(3, MT::kCkptCmd);
  const std::size_t last = IndexOf(3, MT::kTupleBatch, sweep);
  ASSERT_LT(last, frames.size());
  EXPECT_GE(Micros(frames[sweep].at, frames[last].at),
            3 * (wall_.recv_max_retries + 1) * wall_.recv_timeout_us);
  // Then the collector's summary, then every slave's kShutdown.
  const std::vector<std::pair<Rank, MsgType>> order = Order();
  const std::vector<std::pair<Rank, MsgType>> tail(
      order.begin() + static_cast<std::ptrdiff_t>(sweep), order.end());
  const std::vector<std::pair<Rank, MsgType>> want = {
      {3, MT::kCkptCmd},  {3, MT::kTupleBatch}, {4, MT::kShutdown},
      {1, MT::kShutdown}, {2, MT::kShutdown},   {3, MT::kShutdown}};
  EXPECT_EQ(tail, want);
  const CollectorNote note = DecodeCollectorNote(frames[last + 1].payload);
  EXPECT_EQ(note.live, 3u);
  EXPECT_EQ(note.dead, 0u);
  EXPECT_EQ(note.failed_over, 0u);
  EXPECT_EQ(note.ckpt_bytes, 0u);
}

}  // namespace
}  // namespace sjoin
