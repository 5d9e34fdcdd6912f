// Failure injection: every decoder must reject truncated or corrupted
// payloads with DecodeError -- never crash, never read out of bounds, never
// return silently wrong data on short input. (Malformed frames are exactly
// what a node sees when a peer dies mid-send.)
#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/codec.h"
#include "net/message.h"
#include "testutil/fuzz_env.h"
#include "window/state_codec.h"

namespace sjoin {
namespace {

std::vector<std::uint8_t> EncodedBatch(std::size_t n) {
  TupleBatchMsg m;
  Pcg32 rng(17, 1);
  Time ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ts += 1 + rng.NextBounded(50);
    m.recs.push_back(Rec{ts, rng.NextU64(),
                         static_cast<StreamId>(rng.NextBounded(2))});
  }
  Writer w;
  Encode(w, m, 64);
  return std::move(w).TakeBuffer();
}

class TruncationFuzzTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TruncationFuzzTest, TruncatedTupleBatchAlwaysThrows) {
  auto bytes = EncodedBatch(20);
  const std::size_t cut = GetParam() % bytes.size();
  if (cut == bytes.size()) return;
  Reader r(std::span<const std::uint8_t>(bytes.data(), cut));
  // Either throws, or (when the cut lands exactly after a whole tuple
  // count-prefix boundary... it cannot: the count promises 20 tuples).
  EXPECT_THROW((void)DecodeTupleBatch(r, 64), DecodeError);
}

// Hand-picked boundary cuts plus SJOIN_FUZZ_ITERS seeded random ones (the
// encoded 20-tuple batch is 8 + 20*64 = 1288 bytes).
std::vector<std::size_t> TruncationCuts() {
  std::vector<std::size_t> cuts{0u, 1u, 7u, 8u,  9u,    63u,
                                64u, 100u, 500u, 1000u, 1279u};
  Pcg32 rng(99, 3);
  const int extra = FuzzIters(16);
  for (int i = 0; i < extra; ++i) {
    cuts.push_back(rng.NextBounded(1288));
  }
  return cuts;
}

INSTANTIATE_TEST_SUITE_P(Cuts, TruncationFuzzTest,
                         ::testing::ValuesIn(TruncationCuts()));

TEST(CodecFuzzTest, AllControlMessagesRejectTruncation) {
  Writer w;
  Encode(w, LoadReportMsg{0.5, 10, 20});
  Encode(w, MoveCmdMsg{1, 2});
  Encode(w, AckMsg{3});
  Encode(w, ClockSyncMsg{100, 200});
  Encode(w, ResultStatsMsg{5, 1.0, 2.0});
  auto bytes = std::move(w).TakeBuffer();

  for (std::size_t cut = 0; cut < 8; ++cut) {
    Reader r(std::span<const std::uint8_t>(bytes.data(), cut));
    EXPECT_THROW((void)DecodeLoadReport(r), DecodeError) << "cut=" << cut;
  }
}

TEST(CodecFuzzTest, StateTransferRejectsLengthLies) {
  // A state transfer whose inner length prefix exceeds the actual payload.
  Writer w;
  w.PutU32(7);          // partition id
  w.PutU64(1'000'000);  // claims 1 MB of group state
  w.PutU8(1);           // ...but delivers one byte
  Reader r(w.Bytes());
  EXPECT_THROW((void)DecodeStateTransfer(r, 64), DecodeError);
}

TEST(CodecFuzzTest, RandomCorruptionNeverCrashesStateDecode) {
  // Build a real group state, then flip random bytes; decoding must either
  // succeed (benign flip) or throw DecodeError / produce a group -- never
  // crash. Structural lies about counts surface as DecodeError via the
  // bounds checks in Reader.
  JoinConfig jcfg;
  jcfg.block_bytes = 128;
  jcfg.theta_bytes = 512;
  PartitionGroup g(jcfg, 32);
  Pcg32 rng(23, 4);
  for (Time t = 1; t <= 60; ++t) {
    g.InstallSealed(Rec{t, rng.NextU64(), static_cast<StreamId>(t % 2)});
  }
  Writer w;
  EncodeGroupState(w, g);
  auto clean = std::move(w).TakeBuffer();

  const int trials = FuzzIters(200);
  for (int trial = 0; trial < trials; ++trial) {
    auto bytes = clean;
    std::size_t pos = rng.NextBounded(static_cast<std::uint32_t>(bytes.size()));
    bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.NextBounded(255));
    Reader r(bytes);
    try {
      auto decoded = DecodeGroupState(r, jcfg, 32);
      // Benign or content-only corruption: the group exists.
      EXPECT_LE(decoded->TotalCount(), 600u);
    } catch (const DecodeError&) {
      // Structural corruption detected: also fine.
    }
  }
}

// ---------------------------------------------------------------------------
// Replication frames (kCkptCmd / kCheckpoint / kCheckpointAck /
// kFailoverCmd / kReplayBatch): same contract -- truncation and structural
// corruption must surface as DecodeError, never as a crash or silently
// wrong data.
// ---------------------------------------------------------------------------

std::vector<Rec> FuzzRecs(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed, 11);
  std::vector<Rec> recs;
  Time ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ts += 1 + rng.NextBounded(40);
    recs.push_back(
        Rec{ts, rng.NextU64(), static_cast<StreamId>(rng.NextBounded(2))});
  }
  return recs;
}

TEST(CodecFuzzTest, ReplicationFramesRoundTrip) {
  CkptCmdMsg cmd;
  cmd.covered_epoch = 12;
  cmd.entries = {{3, 2, true, 0}, {9, 1, false, 10}};
  Writer w1;
  Encode(w1, cmd);
  Reader r1(w1.Bytes());
  CkptCmdMsg cmd2 = DecodeCkptCmd(r1);
  EXPECT_EQ(cmd2.covered_epoch, 12u);
  ASSERT_EQ(cmd2.entries.size(), 2u);
  EXPECT_EQ(cmd2.entries[0].partition_id, 3u);
  EXPECT_EQ(cmd2.entries[0].buddy, 2u);
  EXPECT_TRUE(cmd2.entries[0].full);
  EXPECT_FALSE(cmd2.entries[1].full);
  EXPECT_EQ(cmd2.entries[0].committed_epoch, 0u);
  EXPECT_EQ(cmd2.entries[1].committed_epoch, 10u);

  CheckpointMsg ck;
  ck.partition_id = 7;
  ck.from_epoch = 4;
  ck.to_epoch = 8;
  ck.full = false;
  ck.expire_before = 1234;
  ck.committed_epoch = 6;
  ck.recs = FuzzRecs(15, 5);
  Writer w2;
  Encode(w2, ck, 64);
  Reader r2(w2.Bytes());
  CheckpointMsg ck2 = DecodeCheckpoint(r2, 64);
  EXPECT_EQ(ck2.to_epoch, 8u);
  EXPECT_EQ(ck2.expire_before, 1234);
  EXPECT_EQ(ck2.committed_epoch, 6u);
  ASSERT_EQ(ck2.recs.size(), 15u);
  EXPECT_EQ(ck2.recs.back().ts, ck.recs.back().ts);

  Writer w3;
  Encode(w3, CheckpointAckMsg{7, 8, 999});
  Reader r3(w3.Bytes());
  CheckpointAckMsg ack = DecodeCheckpointAck(r3);
  EXPECT_EQ(ack.partition_id, 7u);
  EXPECT_EQ(ack.covered_epoch, 8u);
  EXPECT_EQ(ack.bytes, 999u);

  FailoverCmdMsg fo;
  fo.dead = 2;
  fo.entries = {{3, 5}, {9, 1}};
  Writer w4;
  Encode(w4, fo);
  Reader r4(w4.Bytes());
  FailoverCmdMsg fo2 = DecodeFailoverCmd(r4);
  EXPECT_EQ(fo2.dead, 2u);
  ASSERT_EQ(fo2.entries.size(), 2u);
  EXPECT_EQ(fo2.entries[1].replay_from, 1u);

  ReplayBatchMsg rp;
  rp.epoch = 6;
  rp.recs = FuzzRecs(9, 8);
  Writer w5;
  Encode(w5, rp, 64);
  Reader r5(w5.Bytes());
  ReplayBatchMsg rp2 = DecodeReplayBatch(r5, 64);
  EXPECT_EQ(rp2.epoch, 6u);
  ASSERT_EQ(rp2.recs.size(), 9u);
}

TEST(CodecFuzzTest, ReplicationFramesRejectTruncation) {
  CheckpointMsg ck;
  ck.partition_id = 5;
  ck.from_epoch = 0;
  ck.to_epoch = 3;
  ck.full = true;
  ck.expire_before = 77;
  ck.recs = FuzzRecs(12, 21);
  Writer w;
  Encode(w, ck, 64);
  auto ck_bytes = std::move(w).TakeBuffer();

  CkptCmdMsg cmd;
  cmd.covered_epoch = 4;
  cmd.entries = {{1, 2, false, 2}, {2, 3, true, 0}, {3, 1, false, 2}};
  Writer wc;
  Encode(wc, cmd);
  auto cmd_bytes = std::move(wc).TakeBuffer();

  FailoverCmdMsg fo;
  fo.dead = 1;
  fo.entries = {{4, 2}, {8, 2}};
  Writer wf;
  Encode(wf, fo);
  auto fo_bytes = std::move(wf).TakeBuffer();

  ReplayBatchMsg rp;
  rp.epoch = 2;
  rp.recs = FuzzRecs(10, 33);
  Writer wr;
  Encode(wr, rp, 64);
  auto rp_bytes = std::move(wr).TakeBuffer();

  Pcg32 rng(7, 2);
  const int iters = FuzzIters(32);
  auto check = [&](const std::vector<std::uint8_t>& bytes, auto decode) {
    // Every hand-picked and random proper prefix must throw.
    std::vector<std::size_t> cuts{0, 1, 4, 8, bytes.size() - 1};
    for (int i = 0; i < iters; ++i) {
      cuts.push_back(rng.NextBounded(static_cast<std::uint32_t>(bytes.size())));
    }
    for (std::size_t cut : cuts) {
      if (cut >= bytes.size()) continue;
      Reader r(std::span<const std::uint8_t>(bytes.data(), cut));
      EXPECT_THROW((void)decode(r), DecodeError) << "cut=" << cut;
    }
  };
  check(ck_bytes, [](Reader& r) { return DecodeCheckpoint(r, 64); });
  check(cmd_bytes, [](Reader& r) { return DecodeCkptCmd(r); });
  check(fo_bytes, [](Reader& r) { return DecodeFailoverCmd(r); });
  check(rp_bytes, [](Reader& r) { return DecodeReplayBatch(r, 64); });

  Writer wa;
  Encode(wa, CheckpointAckMsg{1, 2, 3});
  auto ack_bytes = std::move(wa).TakeBuffer();
  for (std::size_t cut = 0; cut < ack_bytes.size(); ++cut) {
    Reader r(std::span<const std::uint8_t>(ack_bytes.data(), cut));
    EXPECT_THROW((void)DecodeCheckpointAck(r), DecodeError) << "cut=" << cut;
  }
}

TEST(CodecFuzzTest, ReplicationFramesRejectLengthLies) {
  // A checkpoint whose record count promises far more state than the
  // payload carries: the count-vs-remaining bound must trip before any
  // allocation or read.
  Writer w;
  w.PutU32(3);        // partition id
  w.PutU64(0);        // from_epoch
  w.PutU64(4);        // to_epoch
  w.PutU8(1);         // full
  w.PutU64(0);        // expire_before
  w.PutU64(0);        // committed_epoch
  w.PutU64(1 << 20);  // claims a million records...
  w.PutU8(9);         // ...delivers one byte
  Reader r(w.Bytes());
  EXPECT_THROW((void)DecodeCheckpoint(r, 64), DecodeError);

  Writer w2;
  w2.PutU64(5);        // covered_epoch
  w2.PutU64(1 << 30);  // a billion sweep entries...
  w2.PutU32(1);        // ...in 4 bytes
  Reader r2(w2.Bytes());
  EXPECT_THROW((void)DecodeCkptCmd(r2), DecodeError);

  Writer w3;
  w3.PutU32(2);        // dead rank
  w3.PutU64(1 << 30);  // a billion failover entries
  w3.PutU32(7);
  Reader r3(w3.Bytes());
  EXPECT_THROW((void)DecodeFailoverCmd(r3), DecodeError);

  Writer w4;
  w4.PutU64(9);        // epoch
  w4.PutU64(1 << 26);  // replay batch claiming 64M tuples
  Reader r4(w4.Bytes());
  EXPECT_THROW((void)DecodeReplayBatch(r4, 64), DecodeError);
}

TEST(CodecFuzzTest, CheckpointRejectsInconsistentEpochRange) {
  // An incremental segment must cover a non-empty (from, to] range; a full
  // snapshot must carry from_epoch == 0. Anything else is a protocol bug or
  // corruption and must be rejected at decode time.
  CheckpointMsg bad;
  bad.partition_id = 1;
  bad.from_epoch = 6;
  bad.to_epoch = 4;  // incremental with from >= to
  bad.full = false;
  Writer w;
  Encode(w, bad, 64);
  Reader r(w.Bytes());
  EXPECT_THROW((void)DecodeCheckpoint(r, 64), DecodeError);

  CheckpointMsg badfull;
  badfull.partition_id = 1;
  badfull.from_epoch = 2;  // full snapshot claiming a delta base
  badfull.to_epoch = 4;
  badfull.full = true;
  Writer w2;
  Encode(w2, badfull, 64);
  Reader r2(w2.Bytes());
  EXPECT_THROW((void)DecodeCheckpoint(r2, 64), DecodeError);
}

// ---------------------------------------------------------------------------
// Membership frames (kJoinCmd / kJoinAck / kLeaveCmd / kLeaveAck): fixed
// layouts, so every proper prefix of an encoded frame must throw.
// ---------------------------------------------------------------------------

TEST(CodecFuzzTest, MembershipFramesRejectTruncation) {
  auto check = [](const std::vector<std::uint8_t>& bytes, auto decode) {
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      Reader r(std::span<const std::uint8_t>(bytes.data(), cut));
      EXPECT_THROW((void)decode(r), DecodeError) << "cut=" << cut;
    }
  };
  Writer w1;
  Encode(w1, JoinCmdMsg{42, 24});
  check(std::move(w1).TakeBuffer(),
        [](Reader& r) { return DecodeJoinCmd(r); });
  Writer w2;
  Encode(w2, JoinAckMsg{42});
  check(std::move(w2).TakeBuffer(),
        [](Reader& r) { return DecodeJoinAck(r); });
  Writer w3;
  Encode(w3, LeaveCmdMsg{99});
  check(std::move(w3).TakeBuffer(),
        [](Reader& r) { return DecodeLeaveCmd(r); });
  Writer w4;
  Encode(w4, LeaveAckMsg{99});
  check(std::move(w4).TakeBuffer(),
        [](Reader& r) { return DecodeLeaveAck(r); });
}

TEST(CodecFuzzTest, MetricsHistogramRejectsTruncation) {
  // A kMetrics frame carrying histogram buckets has a variable tail (bounds,
  // counts, total); every proper prefix must throw, never under-read.
  MetricsMsg m;
  m.epoch = 3;
  obs::MetricSample h;
  h.name = "tuple_delay_us";
  h.labels = "pid=1";
  h.kind = obs::MetricKind::kHistogram;
  h.hist_bounds = {10.0, 100.0, 1000.0};
  h.hist_counts = {1, 2, 3, 4};
  h.hist_total = 10;
  m.samples.push_back(h);
  Writer w;
  Encode(w, m);
  auto bytes = std::move(w).TakeBuffer();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Reader r(std::span<const std::uint8_t>(bytes.data(), cut));
    EXPECT_THROW((void)DecodeMetrics(r), DecodeError) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// Frame header (from + type + len + trace context): the 33-byte wire header
// the socket transport reads before every payload. Every proper prefix must
// throw, and random corruption must never crash the decoder.
// ---------------------------------------------------------------------------

TEST(CodecFuzzTest, FrameHeaderRejectsTruncation) {
  Message m;
  m.type = MsgType::kCheckpoint;
  m.from = 7;
  m.trace_id = 0x1234'5678'9ABC'DEF0ull;
  m.parent_span = (3ull << 32) | 11u;
  m.send_vt = 5'000'000;
  m.payload.resize(19);
  Writer w;
  EncodeFrameHeader(w, m);
  auto bytes = std::move(w).TakeBuffer();
  ASSERT_EQ(bytes.size(), Message::kFrameHeaderBytes);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Reader r(std::span<const std::uint8_t>(bytes.data(), cut));
    Message out;
    EXPECT_THROW((void)DecodeFrameHeader(r, out), DecodeError)
        << "cut=" << cut;
  }
}

TEST(CodecFuzzTest, FrameHeaderRandomCorruptionRoundTripsStructurally) {
  // Header fields are fixed-width, so any 33-byte buffer decodes to *some*
  // header -- corruption must surface as a wrong length/type caught by the
  // framing layer, never as a Reader crash. Also: encode(decode(x)) over
  // random headers must be the identity on all 33 bytes.
  Pcg32 rng(41, 9);
  const int trials = FuzzIters(200);
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<std::uint8_t> bytes(Message::kFrameHeaderBytes);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.NextBounded(256));
    Reader r(bytes);
    Message decoded;
    const std::uint32_t len = DecodeFrameHeader(r, decoded);
    EXPECT_TRUE(r.AtEnd());
    // Re-encode field by field (EncodeFrameHeader derives the length field
    // from the payload, which a bare header round-trip does not carry).
    Writer w;
    w.PutU32(decoded.from);
    w.PutU8(static_cast<std::uint8_t>(decoded.type));
    w.PutU32(len);
    w.PutU64(decoded.trace_id);
    w.PutU64(decoded.parent_span);
    w.PutI64(decoded.send_vt);
    EXPECT_EQ(std::move(w).TakeBuffer(), bytes);
  }
}

TEST(CodecFuzzTest, RandomCorruptionNeverCrashesReplicationDecode) {
  CheckpointMsg ck;
  ck.partition_id = 2;
  ck.from_epoch = 0;
  ck.to_epoch = 5;
  ck.full = true;
  ck.expire_before = 50;
  ck.recs = FuzzRecs(30, 41);
  Writer w;
  Encode(w, ck, 64);
  auto clean = std::move(w).TakeBuffer();

  Pcg32 rng(13, 6);
  const int trials = FuzzIters(200);
  for (int trial = 0; trial < trials; ++trial) {
    auto bytes = clean;
    std::size_t pos = rng.NextBounded(static_cast<std::uint32_t>(bytes.size()));
    bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.NextBounded(255));
    Reader r(bytes);
    try {
      CheckpointMsg decoded = DecodeCheckpoint(r, 64);
      // Benign or content-only flip: structure still sound.
      EXPECT_LE(decoded.recs.size(), (1u << 21));
    } catch (const DecodeError&) {
      // Structural corruption detected: also fine.
    }
  }
}

}  // namespace
}  // namespace sjoin
