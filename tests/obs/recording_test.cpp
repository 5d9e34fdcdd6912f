// `.sjrec` bundle format tests: manifest/config codec round-trips, writer ->
// loader round-trips through a real file, torn-tail tolerance (a crashed
// recorder's bundle must still load -- that is the bundle one wants most),
// and seeded fuzz over random event streams and random truncation points.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/recording.h"
#include "testutil/fuzz_env.h"

namespace sjoin::obs {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            ("sjoin_rec_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

SystemConfig NonDefaultConfig() {
  SystemConfig cfg;
  cfg.num_slaves = 5;
  cfg.initial_active_slaves = 3;
  cfg.join.num_partitions = 48;
  cfg.join.window = 123456;
  cfg.join.fine_tuning = true;
  cfg.balance.beta = 0.77;
  cfg.epoch.t_dist = 7777;
  cfg.epoch_tuner.enabled = true;
  cfg.replication.enabled = true;
  cfg.replication.ckpt_interval_epochs = 3;
  cfg.slave.workers = 4;
  cfg.cluster.elastic.enabled = true;
  cfg.cluster.elastic.drain_groups_per_epoch = 9;
  cfg.cluster.elastic.policy = true;
  cfg.cluster.elastic.surge_occupancy = 0.9;
  cfg.net.use_inet = true;
  cfg.obs.delay_sample_rate = 13;
  cfg.workload.lambda = 321.5;
  cfg.workload.rate_schedule.push_back(RatePhase{1000, 50.0});
  cfg.workload.rate_schedule.push_back(RatePhase{2000, 150.0});
  cfg.workload.b_skew = 0.3;
  cfg.workload.key_domain = 999;
  cfg.workload.tuple_bytes = 72;
  cfg.workload.seed = 424242;
  cfg.cost.cmp_ns = 1.25;
  cfg.cost.msg_fixed_us = 17;
  return cfg;
}

RecordedFrame RandomFrame(Pcg32& rng) {
  RecordedFrame f;
  f.peer = rng.NextBounded(8);
  f.type = static_cast<std::uint8_t>(1 + rng.NextBounded(19));
  f.trace_id = rng.NextU64();
  f.parent_span = rng.NextU64();
  f.send_vt = static_cast<Time>(rng.NextBounded(1 << 20));
  const std::uint32_t len = rng.NextBounded(64);
  f.payload.reserve(len);
  for (std::uint32_t i = 0; i < len; ++i) {
    f.payload.push_back(static_cast<std::uint8_t>(rng.NextBounded(256)));
  }
  return f;
}

TEST(RecordingCodecTest, SystemConfigRoundTripsEveryField) {
  const SystemConfig cfg = NonDefaultConfig();
  Writer w;
  EncodeSystemConfig(w, cfg);
  Reader r(w.Bytes());
  const SystemConfig back = DecodeSystemConfig(r);
  EXPECT_TRUE(r.AtEnd());
  // Spot-check across every sub-struct; a full byte-compare of re-encoding
  // catches the rest.
  EXPECT_EQ(back.num_slaves, 5u);
  EXPECT_EQ(back.initial_active_slaves, 3u);
  EXPECT_EQ(back.join.num_partitions, 48u);
  EXPECT_TRUE(back.cluster.elastic.policy);
  EXPECT_EQ(back.workload.rate_schedule.size(), 2u);
  EXPECT_DOUBLE_EQ(back.workload.rate_schedule[1].rate_per_sec, 150.0);
  EXPECT_EQ(back.cost.msg_fixed_us, 17);
  Writer w2;
  EncodeSystemConfig(w2, back);
  EXPECT_EQ(w.Bytes().size(), w2.Bytes().size());
  EXPECT_TRUE(std::equal(w.Bytes().begin(), w.Bytes().end(),
                         w2.Bytes().begin()));
}

TEST(RecordingCodecTest, ManifestRoundTripsWithInputTrace) {
  RecordingManifest m;
  m.build_version = "test-build";
  m.rank = 0;
  m.membership_epoch = 12;
  m.cfg = NonDefaultConfig();
  m.config_summary = Summarize(m.cfg);
  m.has_input_trace = true;
  m.input_trace = {Rec{10, 7, 0}, Rec{20, 9, 1}, Rec{30, 7, 1}};
  m.membership = {MembershipEvent{4, true, 3}, MembershipEvent{9, false, 1}};
  m.wall_run_for = 10'000'000;
  m.wall_recv_timeout_us = 250'000;
  m.wall_recv_max_retries = 3;
  Writer w;
  EncodeManifest(w, m);
  Reader r(w.Bytes());
  const RecordingManifest back = DecodeManifest(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.schema, 6u);
  EXPECT_EQ(back.build_version, "test-build");
  EXPECT_EQ(back.membership_epoch, 12u);
  EXPECT_EQ(back.config_summary, m.config_summary);
  ASSERT_TRUE(back.has_input_trace);
  ASSERT_EQ(back.input_trace.size(), 3u);
  EXPECT_EQ(back.input_trace[2].ts, 30);
  EXPECT_EQ(back.input_trace[2].key, 7u);
  ASSERT_EQ(back.membership.size(), 2u);
  EXPECT_EQ(back.membership[1].epoch, 9u);
  EXPECT_FALSE(back.membership[1].join);
  EXPECT_EQ(back.membership[1].slave, 1u);
  EXPECT_EQ(back.wall_run_for, 10'000'000);
  EXPECT_EQ(back.wall_recv_timeout_us, 250'000);
  EXPECT_EQ(back.wall_recv_max_retries, 3u);
}

TEST(RecordingCodecTest, ManifestRejectsWrongSchema) {
  RecordingManifest m;
  Writer w;
  EncodeManifest(w, m);
  // 2 had an execution-mode byte, 3 checkpoint frames without a committed
  // epoch, 4 three more config fields and no membership schedule, 5 ten
  // more config fields: no reader.
  for (const std::uint8_t schema :
       {std::uint8_t{99}, std::uint8_t{2}, std::uint8_t{3}, std::uint8_t{4},
        std::uint8_t{5}}) {
    std::vector<std::uint8_t> bytes(w.Bytes().begin(), w.Bytes().end());
    bytes[0] = schema;  // schema field is the leading u32
    Reader r(bytes);
    EXPECT_THROW((void)DecodeManifest(r), DecodeError)
        << "schema " << int{schema};
  }
}

// A corrupt element count must fail as a DecodeError, not reach reserve().
// Each count is found as the first byte where an encoding with no elements
// differs from one with one element, then set to its maximum.
TEST(RecordingCodecTest, CorruptCountsAreDecodeErrors) {
  const auto max_count_at_first_difference =
      [](const Writer& none, const Writer& one, std::size_t width) {
        std::vector<std::uint8_t> bytes(none.Bytes().begin(),
                                        none.Bytes().end());
        const auto at = std::mismatch(bytes.begin(), bytes.end(),
                                      one.Bytes().begin())
                            .first;
        std::fill(at, at + static_cast<std::ptrdiff_t>(width),
                  std::uint8_t{0xFF});
        return bytes;
      };
  {
    SystemConfig with_phase;
    with_phase.workload.rate_schedule = {RatePhase{1, 2.0}};
    Writer none;
    Writer one;
    EncodeSystemConfig(none, SystemConfig{});
    EncodeSystemConfig(one, with_phase);
    const std::vector<std::uint8_t> bytes =
        max_count_at_first_difference(none, one, 4);
    Reader r(bytes);
    EXPECT_THROW((void)DecodeSystemConfig(r), DecodeError);
  }
  {
    RecordingManifest empty_trace;
    empty_trace.has_input_trace = true;
    RecordingManifest one_rec = empty_trace;
    one_rec.input_trace = {Rec{1, 2, 0}};
    Writer none;
    Writer one;
    EncodeManifest(none, empty_trace);
    EncodeManifest(one, one_rec);
    const std::vector<std::uint8_t> bytes =
        max_count_at_first_difference(none, one, 8);
    Reader r(bytes);
    EXPECT_THROW((void)DecodeManifest(r), DecodeError);
  }
  {
    RecordingManifest one_event;
    one_event.membership = {MembershipEvent{1, true, 2}};
    Writer none;
    Writer one;
    EncodeManifest(none, RecordingManifest{});
    EncodeManifest(one, one_event);
    const std::vector<std::uint8_t> bytes =
        max_count_at_first_difference(none, one, 4);
    Reader r(bytes);
    EXPECT_THROW((void)DecodeManifest(r), DecodeError);
  }
}

TEST(RecordingWriterTest, WriterLoaderRoundTrip) {
  TempDir dir;
  const std::string path = RecordingBundlePath(dir.path + "/nested", 3);
  RecordingManifest m;
  m.rank = 3;
  m.cfg = NonDefaultConfig();
  RecordingWriter writer;
  ASSERT_TRUE(writer.Open(path, m));
  EXPECT_TRUE(writer.IsOpen());

  Pcg32 rng(5, 9);
  std::vector<RecordedEvent> expected;
  for (int i = 0; i < 200; ++i) {
    switch (rng.NextBounded(4)) {
      case 0: {
        RecordedFrame f = RandomFrame(rng);
        writer.FrameIn(f);
        expected.push_back(RecordedEvent{RecordKind::kFrameIn, f});
        break;
      }
      case 1: {
        RecordedFrame f = RandomFrame(rng);
        writer.FrameOut(f);
        expected.push_back(RecordedEvent{RecordKind::kFrameOut, f});
        break;
      }
      case 2: {
        const std::uint32_t peer = rng.NextBounded(8);
        writer.Timeout(peer);
        RecordedEvent ev;
        ev.kind = RecordKind::kTimeout;
        ev.frame.peer = peer;
        expected.push_back(ev);
        break;
      }
      default: {
        writer.Closed(kRecordAnyPeer);
        RecordedEvent ev;
        ev.kind = RecordKind::kClosed;
        ev.frame.peer = kRecordAnyPeer;
        expected.push_back(ev);
        break;
      }
    }
  }
  writer.Close();
  EXPECT_FALSE(writer.IsOpen());

  LoadRecordingResult res = LoadRecording(path);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_FALSE(res.recording.truncated_tail);
  EXPECT_EQ(res.recording.manifest.rank, 3u);
  ASSERT_EQ(res.recording.events.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(res.recording.events[i], expected[i]) << "event " << i;
  }
}

TEST(RecordingWriterTest, AppendsAfterCloseAreNoOps) {
  TempDir dir;
  const std::string path = RecordingBundlePath(dir.path, 1);
  RecordingWriter writer;
  RecordingManifest m;
  m.rank = 1;
  ASSERT_TRUE(writer.Open(path, m));
  writer.Timeout(0);
  writer.Close();
  writer.Timeout(0);  // dropped
  writer.Closed(0);   // dropped
  LoadRecordingResult res = LoadRecording(path);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.recording.events.size(), 1u);
}

TEST(RecordingLoaderTest, RejectsBadMagicAndTruncatedHeader) {
  TempDir dir;
  const std::string bad = dir.path + "/bad.sjrec";
  {
    std::ofstream out(bad, std::ios::binary);
    out << "NOTSJREC-AT-ALL";
  }
  EXPECT_FALSE(LoadRecording(bad).ok);
  EXPECT_FALSE(LoadRecording(dir.path + "/missing.sjrec").ok);
}

// Torn tails at every possible byte boundary inside the record stream load
// with events intact up to the tear; tears inside the header/manifest fail
// with an error instead. Never a crash, never a bogus event.
TEST(RecordingLoaderTest, TornTailFuzzAtEveryTruncationPoint) {
  TempDir dir;
  const std::string path = RecordingBundlePath(dir.path, 2);
  RecordingManifest m;
  m.rank = 2;
  RecordingWriter writer;
  ASSERT_TRUE(writer.Open(path, m));
  Pcg32 rng(11, 13);
  for (int i = 0; i < 12; ++i) writer.FrameIn(RandomFrame(rng));
  writer.Close();

  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  LoadRecordingResult whole = LoadRecording(path);
  ASSERT_TRUE(whole.ok);
  const std::size_t total_events = whole.recording.events.size();
  ASSERT_EQ(total_events, 12u);

  // Byte offsets at which the file ends exactly on a record boundary: a cut
  // there produces a clean shorter bundle, not a torn one.
  std::vector<std::size_t> boundaries;
  {
    std::size_t at = sizeof(kRecordingMagic) + 4;  // magic + schema
    std::uint32_t manifest_len = 0;
    std::memcpy(&manifest_len, bytes.data() + at, 4);
    at += 4 + manifest_len;
    boundaries.push_back(at);
    while (at + 4 <= bytes.size()) {
      std::uint32_t len = 0;
      std::memcpy(&len, bytes.data() + at, 4);
      at += 4 + len;
      boundaries.push_back(at);
    }
  }
  auto on_boundary = [&](std::size_t cut) {
    return std::find(boundaries.begin(), boundaries.end(), cut) !=
           boundaries.end();
  };

  // Exhaustive over the whole file when small, else seeded samples.
  std::vector<std::size_t> cuts;
  if (bytes.size() <= 4096) {
    for (std::size_t c = 0; c < bytes.size(); ++c) cuts.push_back(c);
  } else {
    Pcg32 cut_rng(3, 1);
    const int iters = FuzzIters(512);
    for (int i = 0; i < iters; ++i) {
      cuts.push_back(cut_rng.NextBounded(
          static_cast<std::uint32_t>(bytes.size())));
    }
  }
  const std::string cut_path = dir.path + "/cut.sjrec";
  for (const std::size_t cut : cuts) {
    {
      std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    LoadRecordingResult res = LoadRecording(cut_path);
    if (!res.ok) continue;  // header/manifest tears are errors, fine
    EXPECT_LE(res.recording.events.size(), total_events);
    for (const RecordedEvent& ev : res.recording.events) {
      EXPECT_GE(static_cast<int>(ev.kind), 1);
      EXPECT_LE(static_cast<int>(ev.kind), 4);
    }
    if (res.recording.events.size() < total_events && !on_boundary(cut)) {
      EXPECT_TRUE(res.recording.truncated_tail) << "cut at " << cut;
    }
  }
}

// Random single-byte corruption inside the record stream must never crash
// the loader: it either still parses (the flip landed in a payload byte or
// produced another structurally-valid stream) or fails with an error.
TEST(RecordingLoaderTest, RandomCorruptionNeverCrashes) {
  TempDir dir;
  const std::string path = RecordingBundlePath(dir.path, 4);
  RecordingManifest m;
  m.rank = 4;
  RecordingWriter writer;
  ASSERT_TRUE(writer.Open(path, m));
  Pcg32 rng(21, 7);
  for (int i = 0; i < 20; ++i) writer.FrameIn(RandomFrame(rng));
  writer.Close();

  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  const std::string mut_path = dir.path + "/mut.sjrec";
  Pcg32 mut_rng(31, 17);
  const int iters = FuzzIters(256);
  for (int i = 0; i < iters; ++i) {
    std::vector<char> mutated = bytes;
    const std::size_t at =
        mut_rng.NextBounded(static_cast<std::uint32_t>(mutated.size()));
    mutated[at] = static_cast<char>(mutated[at] ^
                                    (1 << mut_rng.NextBounded(8)));
    {
      std::ofstream out(mut_path, std::ios::binary | std::ios::trunc);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    LoadRecordingResult res = LoadRecording(mut_path);  // must not crash
    (void)res;
  }
}

}  // namespace
}  // namespace sjoin::obs
