// Transport-conformance suite: one timeout contract, every implementation
// (net/transport.h "Timed receives"). The same cases run against the
// in-process hub, real AF_UNIX sockets, and the fault decorator (zero fault
// probability over inproc), pinning down:
//   * timeout 0  -- non-blocking poll: delivers already-queued/readable
//     messages (RecvFromTimed hunts past ineligible senders, stashing
//     them), else kTimeout without waiting;
//   * timeout > 0 -- waits at least the requested time before kTimeout
//     (spurious wakeups resume the wait, never shorten it);
//   * kClosed only after shutdown *and* drain -- no deliverable message is
//     ever discarded by closing;
//   * the untimed Recv/RecvFrom (a negative timeout) keep the same stash
//     and the same drain-then-closed rule.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "net/fault_transport.h"
#include "net/inproc_transport.h"
#include "net/socket_transport.h"
#include "net/transport.h"

namespace sjoin {
namespace {

Message Msg(MsgType type, std::vector<std::uint8_t> payload = {}) {
  Message m;
  m.type = type;
  m.payload = std::move(payload);
  return m;
}

/// A connected 3-rank world: rank 0 receives, ranks 1 and 2 send.
class World {
 public:
  virtual ~World() = default;
  virtual Transport& At(Rank r) = 0;
  /// Tears the senders down; rank 0 must observe kClosed after draining.
  virtual void Shutdown() = 0;
};

class InProcWorld final : public World {
 public:
  InProcWorld() {
    for (Rank r = 0; r < 3; ++r) eps_.push_back(hub_.Endpoint(r));
  }
  Transport& At(Rank r) override { return *eps_[r]; }
  void Shutdown() override { hub_.Shutdown(); }

 private:
  InProcHub hub_{3};
  std::vector<std::unique_ptr<InProcEndpoint>> eps_;
};

class SocketWorld final : public World {
 public:
  SocketWorld() {
    int p01[2], p02[2], p12[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, p01), 0);
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, p02), 0);
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, p12), 0);
    eps_.push_back(std::make_unique<SocketEndpoint>(
        0, std::map<Rank, int>{{1, p01[0]}, {2, p02[0]}}));
    eps_.push_back(std::make_unique<SocketEndpoint>(
        1, std::map<Rank, int>{{0, p01[1]}, {2, p12[0]}}));
    eps_.push_back(std::make_unique<SocketEndpoint>(
        2, std::map<Rank, int>{{0, p02[1]}, {1, p12[1]}}));
  }
  Transport& At(Rank r) override { return *eps_[r]; }
  void Shutdown() override {
    // Destroying the sender endpoints closes their fds; bytes already in
    // rank 0's kernel buffers stay readable (drain-then-closed).
    eps_[1].reset();
    eps_[2].reset();
  }

 private:
  std::vector<std::unique_ptr<SocketEndpoint>> eps_;
};

class FaultWorld final : public World {
 public:
  FaultWorld() {
    FaultConfig fc;  // all fault probabilities zero: a pass-through pump
    fc.seed = 7;
    for (Rank r = 0; r < 3; ++r) {
      eps_.push_back(std::make_unique<FaultEndpoint>(hub_.Endpoint(r), fc));
    }
  }
  Transport& At(Rank r) override { return *eps_[r]; }
  void Shutdown() override { hub_.Shutdown(); }

 private:
  InProcHub hub_{3};
  std::vector<std::unique_ptr<FaultEndpoint>> eps_;
};

// Explicit values: each ctest name carries the parameter's byte dump, so a
// backend's value must not change when another one is removed.
enum class Backend : std::uint64_t {
  kInProcMutex = 0,
  kSocket = 2,
  kFaultOverInProc = 3,
};

std::unique_ptr<World> MakeWorld(Backend backend) {
  switch (backend) {
    case Backend::kInProcMutex:
      return std::make_unique<InProcWorld>();
    case Backend::kSocket:
      return std::make_unique<SocketWorld>();
    case Backend::kFaultOverInProc:
      return std::make_unique<FaultWorld>();
  }
  return nullptr;
}

/// Pointer-free, like bnl_equivalence_test's Workload: each ctest name
/// carries gtest's byte dump of the parameter, and a pointer in it would
/// give the same case a different name on every build (ASLR).
struct BackendParam {
  Backend backend;
  char name[32];
};

class TransportConformanceTest : public ::testing::TestWithParam<BackendParam> {
 protected:
  std::unique_ptr<World> world_ = MakeWorld(GetParam().backend);

  /// Lets in-flight sends become visible (socket frames need to land in the
  /// receiver's kernel buffer before a non-blocking poll can see them).
  static void Settle() {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  static std::int64_t ElapsedUs(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  }
};

TEST_P(TransportConformanceTest, ZeroTimeoutEmptyIsImmediateTimeout) {
  const auto start = std::chrono::steady_clock::now();
  RecvResult res = world_->At(0).RecvTimed(0);
  EXPECT_EQ(res.status, RecvStatus::kTimeout);
  // "Never waits": generous bound, but far below any real timeout wait.
  EXPECT_LT(ElapsedUs(start), 250'000);
  EXPECT_EQ(world_->At(0).RecvFromTimed(1, 0).status, RecvStatus::kTimeout);
}

TEST_P(TransportConformanceTest, ZeroTimeoutDeliversAlreadyQueued) {
  world_->At(1).Send(0, Msg(MsgType::kAck, {42}));
  Settle();
  RecvResult res = world_->At(0).RecvTimed(0);
  ASSERT_EQ(res.status, RecvStatus::kOk);
  EXPECT_EQ(res.msg.from, 1u);
  EXPECT_EQ(res.msg.payload, (std::vector<std::uint8_t>{42}));
  EXPECT_EQ(world_->At(0).RecvTimed(0).status, RecvStatus::kTimeout);
}

TEST_P(TransportConformanceTest, ZeroTimeoutFromHuntsPastOtherPeers) {
  world_->At(1).Send(0, Msg(MsgType::kAck, {1}));
  Settle();
  world_->At(2).Send(0, Msg(MsgType::kAck, {2}));
  Settle();
  // Poll for rank 2: rank 1's earlier message must be skipped (and kept).
  RecvResult res = world_->At(0).RecvFromTimed(2, 0);
  ASSERT_EQ(res.status, RecvStatus::kOk);
  EXPECT_EQ(res.msg.from, 2u);
  // The skipped message is stashed, not lost, and a poll finds it.
  res = world_->At(0).RecvFromTimed(1, 0);
  ASSERT_EQ(res.status, RecvStatus::kOk);
  EXPECT_EQ(res.msg.from, 1u);
  EXPECT_EQ(res.msg.payload, (std::vector<std::uint8_t>{1}));
}

TEST_P(TransportConformanceTest, PositiveTimeoutWaitsAtLeastThatLong) {
  constexpr Duration kTimeoutUs = 30'000;
  const auto start = std::chrono::steady_clock::now();
  RecvResult res = world_->At(0).RecvTimed(kTimeoutUs);
  EXPECT_EQ(res.status, RecvStatus::kTimeout);
  EXPECT_GE(ElapsedUs(start), kTimeoutUs);

  const auto start2 = std::chrono::steady_clock::now();
  res = world_->At(0).RecvFromTimed(1, kTimeoutUs);
  EXPECT_EQ(res.status, RecvStatus::kTimeout);
  EXPECT_GE(ElapsedUs(start2), kTimeoutUs);
}

TEST_P(TransportConformanceTest, DelayedSenderDeliveredWithinTimeout) {
  std::thread sender([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    world_->At(1).Send(0, Msg(MsgType::kAck, {7}));
  });
  RecvResult res = world_->At(0).RecvFromTimed(1, 5'000'000);
  sender.join();
  ASSERT_EQ(res.status, RecvStatus::kOk);
  EXPECT_EQ(res.msg.from, 1u);
  EXPECT_EQ(res.msg.payload, (std::vector<std::uint8_t>{7}));
}

TEST_P(TransportConformanceTest, ClosedOnlyAfterDrain) {
  world_->At(1).Send(0, Msg(MsgType::kAck, {9}));
  Settle();
  world_->Shutdown();
  // The queued message survives the shutdown...
  RecvResult res = world_->At(0).RecvTimed(5'000'000);
  ASSERT_EQ(res.status, RecvStatus::kOk);
  EXPECT_EQ(res.msg.payload, (std::vector<std::uint8_t>{9}));
  // ...and only then does the transport report closure.
  res = world_->At(0).RecvTimed(5'000'000);
  EXPECT_EQ(res.status, RecvStatus::kClosed);
}

TEST_P(TransportConformanceTest, UntimedFromSkipsOtherPeersForLaterRecv) {
  world_->At(1).Send(0, Msg(MsgType::kAck, {1}));
  Settle();
  world_->At(2).Send(0, Msg(MsgType::kAck, {2}));
  Settle();
  // RecvFrom(2) passes rank 1's earlier frame by...
  std::optional<Message> msg = world_->At(0).RecvFrom(2);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->from, 2u);
  EXPECT_EQ(msg->payload, (std::vector<std::uint8_t>{2}));
  // ...and a later untimed Recv delivers it.
  msg = world_->At(0).Recv();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->from, 1u);
  EXPECT_EQ(msg->payload, (std::vector<std::uint8_t>{1}));
}

TEST_P(TransportConformanceTest, UntimedNulloptOnlyAfterShutdownAndDrain) {
  world_->At(1).Send(0, Msg(MsgType::kAck, {9}));
  world_->At(2).Send(0, Msg(MsgType::kAck, {8}));
  Settle();
  world_->Shutdown();
  // Both queued frames survive the shutdown, in either receive...
  std::optional<Message> msg = world_->At(0).RecvFrom(2);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, (std::vector<std::uint8_t>{8}));
  msg = world_->At(0).Recv();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, (std::vector<std::uint8_t>{9}));
  // ...and only then does either report the closure.
  EXPECT_FALSE(world_->At(0).Recv().has_value());
  EXPECT_FALSE(world_->At(0).RecvFrom(1).has_value());
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, TransportConformanceTest,
    ::testing::Values(BackendParam{Backend::kInProcMutex, "InProcMutex"},
                      BackendParam{Backend::kSocket, "Socket"},
                      BackendParam{Backend::kFaultOverInProc, "FaultOverInProc"}),
    [](const ::testing::TestParamInfo<BackendParam>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace sjoin
