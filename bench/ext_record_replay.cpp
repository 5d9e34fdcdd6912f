// Extension: record/replay cost and yield (ISSUE 9) -- what black-box
// recording every transport outcome into a `.sjrec` bundle costs a live
// cluster run, and how much faster the offline replay of one node is than
// the wall-clock run that produced it.
//
// A wall-clock mini-cluster (master + 3 slaves + collector over
// InProcTransport) distributes a fixed trace at two frame rates (t_dist =
// 5ms and 2ms -- smaller epochs mean more, smaller frames for the same
// tuple count), each once bare and once with a RecordingTap wrapped around
// every endpoint, then replays one slave's bundle with core/replayer.h:
//   * record=0 rows: the bare run (baseline wall time at that frame rate);
//   * record=1 rows: the recorded run; `frames` counts the records across
//     all bundles, `bundle_mb` their on-disk size, `replay_ms` the offline
//     re-execution of rank 2's bundle, and `speedup` the recorded run's
//     wall time over the replay's. Replay skips every live wait (recv
//     blocking, epoch pacing) because the stimulus is already sequenced,
//     so it is typically much faster than real time.
//
// `wall_ms`/`replay_ms` are real elapsed time and vary with machine load:
// the JSON report is marked deterministic=false, so bench_diff checks
// structure only. The replay's byte-identity with the live run is gated by
// tests (tests/harness/record_replay_test.cpp), not here.
//
// SJOIN_BENCH=quick shrinks the trace for smoke runs.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "common/config.h"
#include "core/replayer.h"
#include "core/runner.h"
#include "net/inproc_transport.h"
#include "net/recording_tap.h"
#include "obs/obs.h"
#include "obs/recording.h"

namespace {

using namespace sjoin;

struct RunResult {
  double wall_ms = 0.0;
  std::uint64_t frames = 0;     ///< records across every rank's bundle
  double bundle_mb = 0.0;       ///< total on-disk bundle size
};

/// One full cluster run, one thread per rank; when `record_dir` is
/// non-empty every endpoint is wrapped in a RecordingTap (outermost, like
/// the chaos harness mounts it).
RunResult RunCluster(const SystemConfig& cfg, WallOptions wall,
                     const std::vector<Rec>& trace,
                     const std::string& record_dir) {
  const Rank n = cfg.num_slaves;
  InProcHub hub(n + 2);
  std::vector<std::unique_ptr<obs::NodeObs>> obs;
  for (Rank r = 0; r < n + 2; ++r) {
    obs.push_back(std::make_unique<obs::NodeObs>());
    obs[r]->trace.SetRank(r);
  }
  wall.master_obs = obs[0].get();
  wall.slave_obs.clear();
  for (Rank s = 1; s <= n; ++s) wall.slave_obs.push_back(obs[s].get());

  std::vector<std::unique_ptr<Transport>> eps;
  std::vector<std::unique_ptr<RecordingTap>> taps;
  std::vector<Transport*> nodes;
  for (Rank r = 0; r < n + 2; ++r) {
    eps.push_back(hub.Endpoint(r));
    taps.push_back(std::make_unique<RecordingTap>(*eps[r]));
    if (!record_dir.empty()) {
      RecordingTap::Info info;
      if (r == 0) info.input_trace = &trace;
      info.wall_run_for = wall.run_for;
      info.wall_recv_timeout_us = wall.recv_timeout_us;
      info.wall_recv_max_retries = wall.recv_max_retries;
      taps[r]->Open(record_dir, cfg, info);
    }
    nodes.push_back(taps[r].get());
  }

  const auto t0 = std::chrono::steady_clock::now();
  RunResult res;
  (void)RunInProcessCluster(hub, nodes, cfg, wall, obs[n + 1].get());
  res.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

  if (!record_dir.empty()) {
    for (Rank r = 0; r < n + 2; ++r) taps[r]->Finish();
    for (Rank r = 0; r < n + 2; ++r) {
      const std::string path = obs::RecordingBundlePath(record_dir, r);
      std::error_code ec;
      const auto bytes = std::filesystem::file_size(path, ec);
      if (!ec) res.bundle_mb += static_cast<double>(bytes) / (1024.0 * 1024.0);
      obs::LoadRecordingResult loaded = obs::LoadRecording(path);
      if (loaded.ok) res.frames += loaded.recording.events.size();
    }
  }
  return res;
}

}  // namespace

int main() {
  const bool quick = bench::QuickMode();
  const std::size_t tuples = quick ? 3000 : 12000;
  const Time span = (quick ? 300 : 1200) * kUsPerMs;

  SystemConfig cfg;
  cfg.num_slaves = 3;
  cfg.join.num_partitions = 24;
  cfg.join.window = 40 * kUsPerMs;
  cfg.epoch.t_dist = 5 * kUsPerMs;
  cfg.epoch.t_rep = 20 * kUsPerMs;
  cfg.workload.tuple_bytes = 64;

  WallOptions wall;
  wall.run_for = 60 * kUsPerSec;  // cap; the trace ends the run
  wall.recv_timeout_us = 250 * kUsPerMs;
  wall.recv_max_retries = 3;
  const std::vector<Rec> trace =
      bench::MakeTrace(0x5EC0DULL, 11, tuples, span, 48);
  wall.input_trace = &trace;

  const std::string record_dir =
      (std::filesystem::temp_directory_path() / "sjoin_bench_rr").string();
  std::filesystem::remove_all(record_dir);
  std::filesystem::create_directories(record_dir);

  bench::Reporter rep("ext_record_replay", "Ext record/replay",
                      "black-box recording overhead and offline replay "
                      "speed vs the live cluster run",
                      "recording adds IO-bounded overhead per frame; replay "
                      "skips live waits and beats real time",
                      cfg);
  rep.Deterministic(false);  // wall-clock cluster: timings vary run to run
  std::printf("# trace: %zu tuples over %.3f s; 3 slaves, 24 groups\n",
              tuples, UsToSeconds(span));
  std::printf("%-9s %7s %9s %8s %10s %10s %8s\n", "t_dist_ms", "record",
              "wall_ms", "frames", "bundle_mb", "replay_ms", "speedup");
  rep.Columns({"t_dist_ms", "record", "wall_ms", "frames", "bundle_mb",
               "replay_ms", "speedup"});

  for (const Time t_dist_ms : {Time(5), Time(2)}) {
    SystemConfig run_cfg = cfg;
    run_cfg.epoch.t_dist = t_dist_ms * kUsPerMs;
    for (const bool record : {false, true}) {
      std::filesystem::remove_all(record_dir);
      std::filesystem::create_directories(record_dir);
      RunResult r = RunCluster(run_cfg, wall, trace, record ? record_dir : "");
      double replay_ms = 0.0;
      double speedup = 0.0;
      if (record) {
        obs::LoadRecordingResult loaded =
            obs::LoadRecording(obs::RecordingBundlePath(record_dir, 2));
        if (loaded.ok) {
          const auto t0 = std::chrono::steady_clock::now();
          ReplayResult rr = ReplayNode(loaded.recording, {});
          replay_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
          if (rr.ok && replay_ms > 0.0) speedup = r.wall_ms / replay_ms;
        }
      }
      rep.Num("%-9.0f", static_cast<double>(t_dist_ms));
      rep.Num(" %7.0f", record ? 1.0 : 0.0);
      rep.Num(" %9.2f", r.wall_ms);
      rep.Num(" %8.0f", static_cast<double>(r.frames));
      rep.Num(" %10.3f", r.bundle_mb);
      rep.Num(" %10.2f", replay_ms);
      rep.Num(" %8.1f", speedup);
      rep.EndRow();
      std::fflush(stdout);
    }
  }
  std::filesystem::remove_all(record_dir);
  return rep.Finish();
}
