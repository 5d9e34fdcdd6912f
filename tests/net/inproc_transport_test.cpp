#include "net/inproc_transport.h"

#include <gtest/gtest.h>

#include <thread>

namespace sjoin {
namespace {

Message Msg(MsgType type, std::vector<std::uint8_t> payload = {}) {
  Message m;
  m.type = type;
  m.payload = std::move(payload);
  return m;
}

TEST(InProcTransportTest, SendRecvAcrossThreads) {
  InProcHub hub(2);
  auto a = hub.Endpoint(0);
  auto b = hub.Endpoint(1);

  std::thread sender([&] { a->Send(1, Msg(MsgType::kAck, {7, 8, 9})); });
  auto got = b->Recv();
  sender.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, MsgType::kAck);
  EXPECT_EQ(got->from, 0u);
  EXPECT_EQ(got->payload, (std::vector<std::uint8_t>{7, 8, 9}));
}

TEST(InProcTransportTest, FifoPerSender) {
  InProcHub hub(2);
  auto a = hub.Endpoint(0);
  auto b = hub.Endpoint(1);
  for (std::uint8_t i = 0; i < 10; ++i) {
    a->Send(1, Msg(MsgType::kTupleBatch, {i}));
  }
  for (std::uint8_t i = 0; i < 10; ++i) {
    auto got = b->Recv();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload[0], i);
  }
}

TEST(InProcTransportTest, RecvFromDefersOtherSenders) {
  InProcHub hub(3);
  auto a = hub.Endpoint(0);
  auto b = hub.Endpoint(1);
  auto c = hub.Endpoint(2);

  a->Send(2, Msg(MsgType::kLoadReport, {1}));
  b->Send(2, Msg(MsgType::kAck, {2}));

  // RecvFrom(1) must skip over rank 0's earlier message...
  auto from_b = c->RecvFrom(1);
  ASSERT_TRUE(from_b.has_value());
  EXPECT_EQ(from_b->from, 1u);
  // ...and the deferred message is still delivered afterwards.
  auto from_a = c->Recv();
  ASSERT_TRUE(from_a.has_value());
  EXPECT_EQ(from_a->from, 0u);
}

TEST(InProcTransportTest, ShutdownUnblocksRecv) {
  InProcHub hub(1);
  auto a = hub.Endpoint(0);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    hub.Shutdown();
  });
  auto got = a->Recv();
  closer.join();
  EXPECT_FALSE(got.has_value());
}

TEST(InProcTransportTest, RecvTimedTimesOutOnSilentPeer) {
  InProcHub hub(2);
  auto a = hub.Endpoint(0);
  RecvResult res = a->RecvTimed(5 * kUsPerMs);
  EXPECT_EQ(res.status, RecvStatus::kTimeout);
  RecvResult from_res = a->RecvFromTimed(1, 5 * kUsPerMs);
  EXPECT_EQ(from_res.status, RecvStatus::kTimeout);
}

TEST(InProcTransportTest, RecvFromTimedDeliversFromSlowPeer) {
  InProcHub hub(2);
  auto a = hub.Endpoint(0);
  auto b = hub.Endpoint(1);
  std::thread slow([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    b->Send(0, Msg(MsgType::kLoadReport, {5}));
  });
  RecvResult res = a->RecvFromTimed(1, 2 * kUsPerSec);
  slow.join();
  ASSERT_EQ(res.status, RecvStatus::kOk);
  EXPECT_EQ(res.msg.from, 1u);
  EXPECT_EQ(res.msg.payload[0], 5);
}

TEST(InProcTransportTest, RecvFromTimedIgnoresOtherSendersUntilTimeout) {
  InProcHub hub(3);
  auto a = hub.Endpoint(0);
  auto c = hub.Endpoint(2);
  c->Send(0, Msg(MsgType::kAck, {9}));
  // Rank 1 stays silent: the timed wait must not be satisfied by rank 2.
  RecvResult res = a->RecvFromTimed(1, 10 * kUsPerMs);
  EXPECT_EQ(res.status, RecvStatus::kTimeout);
  // Rank 2's message is still there afterwards.
  auto got = a->Recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->from, 2u);
}

TEST(InProcTransportTest, RecvTimedReportsClosedAfterShutdown) {
  InProcHub hub(2);
  auto a = hub.Endpoint(0);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    hub.Shutdown();
  });
  RecvResult res = a->RecvTimed(5 * kUsPerSec);
  closer.join();
  EXPECT_EQ(res.status, RecvStatus::kClosed);
  EXPECT_EQ(a->RecvFromTimed(1, 5 * kUsPerMs).status, RecvStatus::kClosed);
}

TEST(InProcTransportTest, RecvTimedNegativeTimeoutWaitsForever) {
  InProcHub hub(2);
  auto a = hub.Endpoint(0);
  auto b = hub.Endpoint(1);
  std::thread slow([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    b->Send(0, Msg(MsgType::kAck, {1}));
  });
  RecvResult res = a->RecvTimed(-1);
  slow.join();
  EXPECT_EQ(res.status, RecvStatus::kOk);
}

TEST(InProcTransportTest, ManyToOneStress) {
  constexpr int kSenders = 4;
  constexpr int kEach = 500;
  InProcHub hub(kSenders + 1);
  auto sink = hub.Endpoint(kSenders);

  std::vector<std::thread> threads;
  for (Rank s = 0; s < kSenders; ++s) {
    threads.emplace_back([&hub, s] {
      auto ep = hub.Endpoint(s);
      for (int i = 0; i < kEach; ++i) {
        ep->Send(kSenders, Msg(MsgType::kTupleBatch));
      }
    });
  }
  int received = 0;
  for (int i = 0; i < kSenders * kEach; ++i) {
    auto got = sink->Recv();
    ASSERT_TRUE(got.has_value());
    ++received;
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(received, kSenders * kEach);
}

}  // namespace
}  // namespace sjoin
