// Record/replay acceptance tests (DESIGN.md "Record/replay debugging"):
//
//   1. byte-identity -- a slave recorded during a crash-chaos run (buddy
//      failover, batch replays, the works) is replayed offline from its
//      `.sjrec` bundle alone and reproduces the live run's tagged outputs,
//      per-epoch recorder CSV/JSONL, and logical-time trace byte for byte,
//      with every deterministic outbound frame matching the recorded one;
//   2. breakpoints -- `until_epoch` halts before the next batch lands and
//      the dumped window state is exactly the post-epoch-N state (output
//      prefix property, group digests present);
//   3. divergence pinpointing -- a single-bit key corruption injected into
//      one recorded batch is localized by PinpointDivergence to exactly
//      that epoch and the affected partition groups.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/replayer.h"
#include "harness/chaos_harness.h"
#include "net/codec.h"
#include "obs/recording.h"

namespace sjoin {
namespace {

std::string ReadFileRaw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Directory a case records its run into. With $SJOIN_RECORD_KEEP_DIR set
/// it is kept, so tools/replay_ab.py verifies the run too: the keep dir
/// itself for `at_keep_root`, else `<keep>/RecordReplayTest.<case>`. Unset,
/// it is a unique scratch dir, removed on destruction.
struct RecordDir {
  std::string path;
  bool kept = false;
  explicit RecordDir(bool at_keep_root = false) {
    static int counter = 0;
    const char* keep = std::getenv("SJOIN_RECORD_KEEP_DIR");
    kept = keep != nullptr && *keep != '\0';
    if (kept) {
      std::filesystem::path dir(keep);
      if (!at_keep_root) {
        dir /= std::string("RecordReplayTest.") +
               ::testing::UnitTest::GetInstance()->current_test_info()->name();
      }
      path = dir.string();
    } else {
      path = (std::filesystem::temp_directory_path() /
              ("sjoin_rr_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter++)))
                 .string();
    }
    std::filesystem::create_directories(path);
  }
  ~RecordDir() {
    if (kept) return;
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Crash-chaos scenario with replication: rank 1 dies mid-run, its groups
/// fail over to buddies, the master replays retained batches -- and the
/// differential check still demands exactness. Survivor bundles therefore
/// exercise checkpoints, adoption, and replayed epochs.
ChaosClusterOptions CrashOptions(const std::string& record_dir) {
  ChaosClusterOptions opts;
  opts.cfg.num_slaves = 3;
  opts.cfg.join.num_partitions = 24;
  opts.cfg.join.window = 30 * kUsPerMs;
  opts.cfg.epoch.t_dist = 5 * kUsPerMs;
  opts.cfg.epoch.t_rep = 20 * kUsPerMs;
  opts.cfg.replication.enabled = true;
  opts.cfg.replication.ckpt_interval_epochs = 2;
  opts.record_dir = record_dir;
  opts.wall.run_for = 10 * kUsPerSec;
  opts.wall.recv_timeout_us = 250 * kUsPerMs;
  opts.wall.recv_max_retries = 3;
  opts.faults.seed = 71;
  opts.faults.crash_rank = 1;
  opts.faults.crash_after_batches = 6;
  opts.trace = MakeChaosTrace(/*seed=*/97, /*count=*/900,
                              /*span_us=*/120 * kUsPerMs,
                              /*key_domain=*/40);
  opts.trace_events = true;
  return opts;
}

TEST(RecordReplayTest, RecordedSlaveReplaysByteIdentically) {
  // CI's replay-smoke step sets SJOIN_RECORD_KEEP_DIR and re-verifies this
  // run's bundles + live artifacts there with the sjoin_replay CLI.
  RecordDir dir(/*at_keep_root=*/true);
  ChaosClusterOptions opts = CrashOptions(dir.path);
  ChaosClusterResult live = RunChaosCluster(opts);
  ASSERT_TRUE(live.exact) << "missing=" << live.missing.size()
                          << " extra=" << live.extra.size();
  ASSERT_GT(live.master.groups_failed_over, 0u);
  ASSERT_TRUE(live.recording.kept);
  EXPECT_EQ(live.recording.dir, dir.path);

  // Replay a *survivor* (rank 2): it processed normal epochs, checkpoint
  // commands, adopted groups, and replayed batches.
  const std::string bundle = obs::RecordingBundlePath(dir.path, 2);
  obs::LoadRecordingResult loaded = obs::LoadRecording(bundle);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.recording.manifest.rank, 2u);
  EXPECT_FALSE(loaded.recording.manifest.config_summary.empty());

  ReplayOptions ro;
  ro.trace = true;
  ReplayResult rep = ReplayNode(loaded.recording, ro);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_FALSE(rep.control_divergence) << rep.divergence_note;

  // Live artifacts written by the harness next to the bundles.
  EXPECT_EQ(FormatTaggedOutputs(rep.outputs),
            ReadFileRaw(dir.path + "/outputs_rank2.csv"));
  EXPECT_EQ(rep.epoch_csv, ReadFileRaw(dir.path + "/epochs_rank2.csv"));
  EXPECT_EQ(rep.epoch_jsonl, ReadFileRaw(dir.path + "/epochs_rank2.jsonl"));
  EXPECT_EQ(rep.trace_json, ReadFileRaw(dir.path + "/trace_rank2.json"));

  // ... and against the in-memory live run, for good measure.
  EXPECT_EQ(rep.epoch_csv, live.obs[2]->recorder.ExportCsv());
  EXPECT_EQ(rep.trace_json, live.rank_traces[2]);
  EXPECT_GT(rep.outputs.size(), 0u);

  // Every deterministic outbound frame (acks, checkpoints, state transfer,
  // shutdown) was re-produced byte-for-byte in order.
  EXPECT_GT(rep.sends_checked, 0u);
  EXPECT_EQ(rep.send_mismatches, 0u);

  // The crashed rank's bundle is torn mid-write by design yet still loads.
  obs::LoadRecordingResult crashed =
      obs::LoadRecording(obs::RecordingBundlePath(dir.path, 1));
  ASSERT_TRUE(crashed.ok) << crashed.error;
  ReplayResult crashed_rep = ReplayNode(crashed.recording, {});
  EXPECT_TRUE(crashed_rep.ok) << crashed_rep.error;
}

// The master replays too: a replicated elastic run with a scheduled join
// and a scheduled leave. The bundle's manifest carries the schedule, so the
// replayed master starts the same transitions at the same epochs and every
// one of its deterministic sends, its epoch rows and its trace match.
TEST(RecordReplayTest, RecordedMasterWithMembershipScheduleReplays) {
  RecordDir dir;
  ChaosClusterOptions opts = CrashOptions(dir.path);
  opts.cfg.num_slaves = 4;
  opts.cfg.initial_active_slaves = 3;
  opts.cfg.cluster.elastic.enabled = true;
  opts.faults = FaultConfig{};
  opts.trace = MakeChaosTrace(/*seed=*/97, /*count=*/2000,
                              /*span_us=*/250 * kUsPerMs,
                              /*key_domain=*/40);
  opts.wall.membership = {
      MembershipEvent{/*epoch=*/4, /*join=*/true, /*slave=*/3},
      MembershipEvent{/*epoch=*/10, /*join=*/false, /*slave=*/1},
  };
  ChaosClusterResult live = RunChaosCluster(opts);
  ASSERT_TRUE(live.exact) << "missing=" << live.missing.size()
                          << " extra=" << live.extra.size();
  ASSERT_EQ(live.master.joins, 1u);
  ASSERT_EQ(live.master.leaves, 1u);

  obs::LoadRecordingResult loaded =
      obs::LoadRecording(obs::RecordingBundlePath(dir.path, 0));
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.recording.manifest.membership.size(), 2u);

  ReplayOptions ro;
  ro.trace = true;
  ReplayResult rep = ReplayNode(loaded.recording, ro);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_FALSE(rep.control_divergence) << rep.divergence_note;
  EXPECT_GT(rep.sends_checked, 0u);
  EXPECT_EQ(rep.send_mismatches, 0u);
  EXPECT_EQ(rep.epoch_csv, ReadFileRaw(dir.path + "/epochs_rank0.csv"));
  EXPECT_EQ(rep.trace_json, ReadFileRaw(dir.path + "/trace_rank0.json"));
  // The replayed master counts the live master's epochs; a collector
  // replay counts none.
  EXPECT_GT(live.master.epochs, 10u);
  EXPECT_EQ(rep.epochs_done, live.master.epochs);
  obs::LoadRecordingResult collector = obs::LoadRecording(
      obs::RecordingBundlePath(dir.path, opts.cfg.num_slaves + 1));
  ASSERT_TRUE(collector.ok) << collector.error;
  const ReplayResult col = ReplayNode(collector.recording, {});
  ASSERT_TRUE(col.ok) << col.error;
  EXPECT_FALSE(col.epochs_done.has_value());
  EXPECT_NE(col.state_json.find("\"epochs_done\":null"), std::string::npos);
}

// The collector writes its epoch files in every run, traced or not: one
// recorder row of run totals. Its replay reproduces both files, and the
// row's counters are nonzero, so the check compares real content.
TEST(RecordReplayTest, RecordedCollectorReplaysItsEpochFiles) {
  RecordDir dir;
  ChaosClusterOptions opts = CrashOptions(dir.path);
  opts.trace_events = false;
  ChaosClusterResult live = RunChaosCluster(opts);
  ASSERT_TRUE(live.exact) << "missing=" << live.missing.size()
                          << " extra=" << live.extra.size();
  ASSERT_GT(live.master.dead_slaves, 0u);

  const Rank collector = opts.cfg.num_slaves + 1;
  const std::string rs = std::to_string(collector);
  const obs::EpochRecorder& rec = live.obs[collector]->recorder;
  ASSERT_EQ(rec.Rows().size(), 1u);
  EXPECT_GT(rec.Back().cells.at("collector_reports").i, 0);
  EXPECT_GT(rec.Back().cells.at("collector_outputs").i, 0);

  obs::LoadRecordingResult loaded =
      obs::LoadRecording(obs::RecordingBundlePath(dir.path, collector));
  ASSERT_TRUE(loaded.ok) << loaded.error;
  const ReplayResult rep = ReplayNode(loaded.recording, {});
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_FALSE(rep.control_divergence) << rep.divergence_note;
  EXPECT_EQ(rep.epoch_csv,
            ReadFileRaw(dir.path + "/epochs_rank" + rs + ".csv"));
  EXPECT_EQ(rep.epoch_jsonl,
            ReadFileRaw(dir.path + "/epochs_rank" + rs + ".jsonl"));
  EXPECT_EQ(rep.epoch_csv, rec.ExportCsv());
}

// Every rank's bundle names the build that recorded it: this build's source
// stamp, which sjoin_replay prints beside its own.
TEST(RecordReplayTest, BundleNamesTheBuildThatRecordedIt) {
  RecordDir dir;
  ChaosClusterOptions opts = CrashOptions(dir.path);
  opts.trace_events = false;
  ChaosClusterResult live = RunChaosCluster(opts);
  ASSERT_TRUE(live.exact);
  const std::string stamp = obs::SourceStamp();
  EXPECT_EQ(stamp.rfind("src-", 0), 0u) << stamp;
  EXPECT_EQ(stamp.size(), 20u) << stamp;
  for (Rank r = 0; r <= opts.cfg.num_slaves + 1; ++r) {
    const obs::LoadRecordingResult loaded =
        obs::LoadRecording(obs::RecordingBundlePath(dir.path, r));
    ASSERT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.recording.manifest.build_version, stamp) << "rank " << r;
  }
}

TEST(RecordReplayTest, BreakpointHaltsWithPostEpochState) {
  RecordDir dir;
  ChaosClusterOptions opts = CrashOptions(dir.path);
  ChaosClusterResult live = RunChaosCluster(opts);
  ASSERT_TRUE(live.exact);

  obs::LoadRecordingResult loaded =
      obs::LoadRecording(obs::RecordingBundlePath(dir.path, 2));
  ASSERT_TRUE(loaded.ok) << loaded.error;

  ReplayResult full = ReplayNode(loaded.recording, {});
  ASSERT_TRUE(full.ok) << full.error;
  ASSERT_GT(full.epochs_done.value_or(0), 9u);

  ReplayOptions bo;
  bo.until_epoch = 7;
  ReplayResult at7 = ReplayNode(loaded.recording, bo);
  ASSERT_TRUE(at7.ok) << at7.error;
  EXPECT_TRUE(at7.hit_breakpoint);
  EXPECT_EQ(at7.epochs_done, 7u);
  EXPECT_FALSE(at7.groups.empty());
  EXPECT_NE(at7.state_json.find("\"epochs_done\":7"), std::string::npos);

  // Output prefix property: the breakpoint replay's outputs are exactly the
  // full replay's outputs through epoch 7.
  std::vector<TaggedOutput> prefix;
  for (const TaggedOutput& t : full.outputs) {
    if (t.epoch <= 7) prefix.push_back(t);
  }
  EXPECT_EQ(HashTaggedOutputs(at7.outputs), HashTaggedOutputs(prefix));

  // until_vt maps to the same breakpoint via t_dist.
  ReplayOptions vt;
  vt.until_vt = 7 * opts.cfg.epoch.t_dist;
  ReplayResult at_vt = ReplayNode(loaded.recording, vt);
  ASSERT_TRUE(at_vt.ok);
  EXPECT_EQ(at_vt.epochs_done, 7u);
  EXPECT_EQ(HashTaggedOutputs(at_vt.outputs),
            HashTaggedOutputs(at7.outputs));
}

TEST(RecordReplayTest, PinpointerLocalizesSingleBitCorruption) {
  RecordDir dir;
  ChaosClusterOptions opts = CrashOptions(dir.path);
  ChaosClusterResult live = RunChaosCluster(opts);
  ASSERT_TRUE(live.exact);

  obs::LoadRecordingResult loaded =
      obs::LoadRecording(obs::RecordingBundlePath(dir.path, 2));
  ASSERT_TRUE(loaded.ok) << loaded.error;
  const obs::Recording& pristine = loaded.recording;

  // Corrupt one bit of one key in the middle kTupleBatch: decode the
  // payload, flip, re-encode. The replay of the corrupted bundle inserts a
  // different record into (up to) two partition groups at exactly that
  // epoch.
  obs::Recording corrupted = pristine;
  const std::size_t tuple_bytes = pristine.manifest.cfg.workload.tuple_bytes;
  std::uint64_t batch_ordinal = 0;
  std::uint64_t corrupt_epoch = 0;
  std::uint64_t key_before = 0;
  std::uint64_t key_after = 0;
  std::uint64_t total_batches = 0;
  for (const obs::RecordedEvent& ev : pristine.events) {
    if (ev.kind == obs::RecordKind::kFrameIn && ev.frame.type == 1) {
      ++total_batches;
    }
  }
  ASSERT_GT(total_batches, 6u);
  const std::uint64_t target = total_batches / 2;
  for (obs::RecordedEvent& ev : corrupted.events) {
    if (ev.kind != obs::RecordKind::kFrameIn || ev.frame.type != 1) continue;
    ++batch_ordinal;
    if (batch_ordinal < target) continue;
    Reader r(ev.frame.payload);
    TupleBatchMsg m = DecodeTupleBatch(r, tuple_bytes);
    if (m.recs.empty()) continue;  // keep scanning for a non-empty batch
    key_before = m.recs[0].key;
    m.recs[0].key ^= 1;
    key_after = m.recs[0].key;
    Writer w;
    Encode(w, m, tuple_bytes);
    ev.frame.payload.assign(w.Bytes().begin(), w.Bytes().end());
    corrupt_epoch = batch_ordinal;
    break;
  }
  ASSERT_GT(corrupt_epoch, 0u) << "no non-empty batch found to corrupt";

  DivergenceReport rep = PinpointDivergence(pristine, corrupted);
  ASSERT_TRUE(rep.comparable) << rep.note;
  ASSERT_TRUE(rep.diverged) << rep.note;
  EXPECT_EQ(rep.epoch, corrupt_epoch);
  ASSERT_FALSE(rep.pids.empty());
  const std::uint32_t parts = opts.cfg.join.num_partitions;
  for (std::uint32_t expected :
       {PartitionOf(key_before, parts), PartitionOf(key_after, parts)}) {
    EXPECT_NE(std::find(rep.pids.begin(), rep.pids.end(), expected),
              rep.pids.end())
        << "pid " << expected << " missing from divergence report";
  }
  // The frame ordinals point at the same record in both bundles (only the
  // payload bytes differ).
  EXPECT_EQ(rep.frame_seq_a, rep.frame_seq_b);
  EXPECT_EQ(pristine.events[rep.frame_seq_a].frame.type, 1u);

  // Identical bundles report no divergence.
  DivergenceReport same = PinpointDivergence(pristine, pristine);
  ASSERT_TRUE(same.comparable);
  EXPECT_FALSE(same.diverged);
}

}  // namespace
}  // namespace sjoin
