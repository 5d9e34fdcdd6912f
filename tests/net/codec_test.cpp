#include "net/codec.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/rng.h"

namespace sjoin {
namespace {

TEST(NetCodecTest, TupleBatchRoundTrip) {
  TupleBatchMsg m;
  for (Time t = 1; t <= 10; ++t) {
    m.recs.push_back(Rec{t * 100, static_cast<std::uint64_t>(t * 7),
                         static_cast<StreamId>(t % 2)});
  }
  Writer w;
  Encode(w, m, 64);
  EXPECT_EQ(w.Size(), TupleBatchMsg::WireSize(m.recs.size(), 64));
  Reader r(w.Bytes());
  TupleBatchMsg back = DecodeTupleBatch(r, 64);
  EXPECT_EQ(back.recs, m.recs);
  EXPECT_TRUE(r.AtEnd());
}

TEST(NetCodecTest, EmptyTupleBatch) {
  TupleBatchMsg m;
  Writer w;
  Encode(w, m, 64);
  Reader r(w.Bytes());
  EXPECT_TRUE(DecodeTupleBatch(r, 64).recs.empty());
}

TEST(NetCodecTest, TupleBatchFromRunsEncodesTheirConcatenation) {
  // Runs of 3, 0 and 2 tuples encode to the bytes of one batch holding
  // all five in run order.
  TupleBatchMsg m;
  for (Time t = 1; t <= 5; ++t) {
    m.recs.push_back(Rec{t * 10, static_cast<std::uint64_t>(t), 1});
  }
  const std::span<const Rec> all = m.recs;
  const std::span<const Rec> runs[] = {all.first(3), all.subspan(3, 0),
                                       all.subspan(3)};
  const auto bytes = [](const Writer& w) {
    return std::vector<std::uint8_t>(w.Bytes().begin(), w.Bytes().end());
  };
  Writer one;
  Encode(one, m, 64);
  Writer from_runs;
  EncodeTupleBatch(from_runs, runs, 64);
  EXPECT_EQ(bytes(from_runs), bytes(one));
  Writer none;
  EncodeTupleBatch(none, {}, 64);
  Writer empty;
  Encode(empty, TupleBatchMsg{}, 64);
  EXPECT_EQ(bytes(none), bytes(empty));
}

TEST(NetCodecTest, TupleBatchWireSizeMatchesPaperTuples) {
  // 64-byte tuples on the wire, plus the 8-byte count prefix.
  EXPECT_EQ(TupleBatchMsg::WireSize(100, 64), 8u + 6400u);
}

TEST(NetCodecTest, LoadReportRoundTrip) {
  LoadReportMsg m{0.375, 1234, 567890};
  Writer w;
  Encode(w, m);
  Reader r(w.Bytes());
  LoadReportMsg back = DecodeLoadReport(r);
  EXPECT_DOUBLE_EQ(back.avg_buffer_occupancy, 0.375);
  EXPECT_EQ(back.buffered_tuples, 1234u);
  EXPECT_EQ(back.window_tuples, 567890u);
}

TEST(NetCodecTest, MoveCmdRoundTrip) {
  MoveCmdMsg m{42, 3};
  Writer w;
  Encode(w, m);
  Reader r(w.Bytes());
  MoveCmdMsg back = DecodeMoveCmd(r);
  EXPECT_EQ(back.partition_id, 42u);
  EXPECT_EQ(back.peer, 3u);
}

TEST(NetCodecTest, StateTransferRoundTrip) {
  StateTransferMsg m;
  m.partition_id = 17;
  m.group_state = {1, 2, 3, 4, 5};
  m.pending = {Rec{10, 20, 0}, Rec{11, 21, 1}};
  Writer w;
  Encode(w, m, 64);
  Reader r(w.Bytes());
  StateTransferMsg back = DecodeStateTransfer(r, 64);
  EXPECT_EQ(back.partition_id, 17u);
  EXPECT_EQ(back.group_state, m.group_state);
  EXPECT_EQ(back.pending, m.pending);
}

TEST(NetCodecTest, AckAndClockSyncRoundTrip) {
  Writer w;
  Encode(w, AckMsg{9});
  Encode(w, ClockSyncMsg{123456, 200000});
  Reader r(w.Bytes());
  EXPECT_EQ(DecodeAck(r).partition_id, 9u);
  ClockSyncMsg cs = DecodeClockSync(r);
  EXPECT_EQ(cs.master_now, 123456);
  EXPECT_EQ(cs.next_epoch_start, 200000);
}

TEST(NetCodecTest, ResultStatsRoundTrip) {
  ResultStatsMsg m{1000, 2.5e6, 9e6};
  Writer w;
  Encode(w, m);
  Reader r(w.Bytes());
  ResultStatsMsg back = DecodeResultStats(r);
  EXPECT_EQ(back.outputs, 1000u);
  EXPECT_DOUBLE_EQ(back.delay_sum_us, 2.5e6);
  EXPECT_DOUBLE_EQ(back.delay_max_us, 9e6);
}

TEST(NetCodecTest, MembershipFramesRoundTrip) {
  Writer w;
  Encode(w, JoinCmdMsg{77, 24});
  Encode(w, JoinAckMsg{77});
  Encode(w, LeaveCmdMsg{123});
  Encode(w, LeaveAckMsg{123});
  Reader r(w.Bytes());
  JoinCmdMsg jc = DecodeJoinCmd(r);
  EXPECT_EQ(jc.admit_epoch, 77u);
  EXPECT_EQ(jc.num_partitions, 24u);
  EXPECT_EQ(DecodeJoinAck(r).admit_epoch, 77u);
  EXPECT_EQ(DecodeLeaveCmd(r).epoch, 123u);
  EXPECT_EQ(DecodeLeaveAck(r).epoch, 123u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(NetCodecTest, MembershipFrameTypeNames) {
  // The trace/debug name table must cover the membership frames.
  EXPECT_STREQ(MsgTypeName(MsgType::kJoinCmd), "join_cmd");
  EXPECT_STREQ(MsgTypeName(MsgType::kJoinAck), "join_ack");
  EXPECT_STREQ(MsgTypeName(MsgType::kLeaveCmd), "leave_cmd");
  EXPECT_STREQ(MsgTypeName(MsgType::kLeaveAck), "leave_ack");
}

TEST(NetCodecTest, MetricsHistogramRoundTrip) {
  MetricsMsg m;
  m.epoch = 12;
  obs::MetricSample c;
  c.name = "tuples";
  c.kind = obs::MetricKind::kCounter;
  c.counter = 99;
  m.samples.push_back(c);
  obs::MetricSample h;
  h.name = "tuple_delay_us";
  h.labels = "pid=3";
  h.kind = obs::MetricKind::kHistogram;
  h.hist_bounds = {1000.0, 10000.0};
  h.hist_counts = {4, 2, 1};  // bounds + overflow bucket
  h.hist_total = 7;
  m.samples.push_back(h);
  Writer w;
  Encode(w, m);
  Reader r(w.Bytes());
  MetricsMsg back = DecodeMetrics(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.epoch, 12u);
  ASSERT_EQ(back.samples.size(), 2u);
  EXPECT_EQ(back.samples[0].counter, 99u);
  const obs::MetricSample& hb = back.samples[1];
  EXPECT_EQ(hb.kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(hb.labels, "pid=3");
  EXPECT_EQ(hb.hist_bounds, h.hist_bounds);
  EXPECT_EQ(hb.hist_counts, h.hist_counts);
  EXPECT_EQ(hb.hist_total, 7u);
}

TEST(NetCodecTest, MetricsHistogramBoundCountGuarded) {
  // A hostile bound count must be rejected before any allocation: claim
  // 2^40 bounds with a near-empty payload.
  Writer w;
  w.PutU64(1);   // epoch
  w.PutU64(1);   // one sample
  w.PutString("h");
  w.PutString("");
  w.PutU8(static_cast<std::uint8_t>(obs::MetricKind::kHistogram));
  w.PutU64(0);          // counter
  w.PutDouble(0.0);     // gauge
  w.PutU64(1ull << 40); // absurd bound count
  Reader r(w.Bytes());
  EXPECT_THROW(DecodeMetrics(r), DecodeError);
}

TEST(NetCodecTest, MessageWireBytesIncludesHeader) {
  Message m;
  m.payload = {1, 2, 3};
  EXPECT_EQ(m.WireBytes(), Message::kFrameHeaderBytes + 3u);
  EXPECT_EQ(Message::kFrameHeaderBytes, 33u);
}

TEST(NetCodecTest, FrameHeaderRoundTripsTraceContext) {
  // The causal trace context must survive the wire byte-for-byte: a child
  // span opened on receive inherits exactly what the sender stamped.
  Message m;
  m.type = MsgType::kTupleBatch;
  m.from = 3;
  m.trace_id = 0xFEEDFACECAFEBEEFull;
  m.parent_span = (5ull << 32) | 42u;
  m.send_vt = 123'456'789;
  m.payload = {9, 8, 7, 6};

  Writer w(Message::kFrameHeaderBytes);
  EncodeFrameHeader(w, m);
  ASSERT_EQ(w.Size(), Message::kFrameHeaderBytes);

  Reader r(w.Bytes());
  Message out;
  const std::uint32_t len = DecodeFrameHeader(r, out);
  EXPECT_EQ(len, 4u);
  EXPECT_EQ(out.from, 3u);
  EXPECT_EQ(out.type, MsgType::kTupleBatch);
  EXPECT_EQ(out.trace_id, m.trace_id);
  EXPECT_EQ(out.parent_span, m.parent_span);
  EXPECT_EQ(out.send_vt, m.send_vt);
  EXPECT_TRUE(r.AtEnd());
}

TEST(NetCodecTest, FrameHeaderDefaultsToNoContext) {
  // Legacy senders (zeroed context) must decode back to "no context" so
  // receivers can gate child-span creation on trace_id != 0.
  Message m;
  m.type = MsgType::kAck;
  Writer w;
  EncodeFrameHeader(w, m);
  Reader r(w.Bytes());
  Message out;
  (void)DecodeFrameHeader(r, out);
  EXPECT_EQ(out.trace_id, 0u);
  EXPECT_EQ(out.parent_span, 0u);
  EXPECT_EQ(out.send_vt, 0);
}

}  // namespace
}  // namespace sjoin
