// sjoin_replay: offline deterministic re-execution of a recorded node
// (DESIGN.md "Record/replay debugging").
//
// Usage:
//   sjoin_replay --bundle <rank.sjrec> [--until-epoch N | --until-vt US]
//                [--dump-state] [--trace] [--out-dir DIR]
//   sjoin_replay --bundle <rank.sjrec> --verify <live-artifact-dir>
//   sjoin_replay --info <rank.sjrec>
//   sjoin_replay --diff <a.sjrec> <b.sjrec>
//
// --info and every replay print the build that recorded the bundle and the
// one running now (obs::SourceStamp); a replay by another build is how
// a refactor is checked, so they may differ.
//
// Default mode replays the bundle through the real runner and prints a
// summary (epochs, outputs, output hash, send verification). Breakpoints
// (--until-epoch / --until-vt) halt before the next distribution epoch is
// delivered; with --dump-state the post-breakpoint window/checkpoint state
// (per-group digests, record/byte/mini-group counts, journal depth) is
// printed as JSON. --out-dir writes the replayed artifacts (outputs.csv,
// epochs.csv, epochs.jsonl, trace.json with --trace, state.json with
// --dump-state) for offline comparison.
//
// --verify compares the replayed deterministic artifacts byte-for-byte
// against a live run's files in DIR (outputs_rank<R>.csv, epochs_rank<R>.csv
// as written by the chaos harness) and exits non-zero on any byte
// difference -- CI's replay-smoke gate.
//
// --diff replays two bundles of the same rank side by side and
// binary-searches the first epoch where any deterministic artifact (per-group
// state digest, cumulative output hash) differs, reporting group, epoch, and
// each bundle's frame ordinal. Exit status: 0 = no divergence, 1 = diverged,
// 2 = usage/load error.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/replayer.h"
#include "obs/recording.h"

namespace {

using sjoin::DivergenceReport;
using sjoin::ReplayOptions;
using sjoin::ReplayResult;

bool ReadFileTo(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool WriteFileTo(const std::string& path, const std::string& content) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

int Info(const char* path) {
  sjoin::obs::LoadRecordingResult loaded = sjoin::obs::LoadRecording(path);
  if (!loaded.ok) {
    std::fprintf(stderr, "sjoin_replay: %s\n", loaded.error.c_str());
    return 2;
  }
  const sjoin::obs::Recording& rec = loaded.recording;
  std::uint64_t frames = 0;
  std::uint64_t batches = 0;
  std::uint64_t sends = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t closures = 0;
  for (const sjoin::obs::RecordedEvent& ev : rec.events) {
    switch (ev.kind) {
      case sjoin::obs::RecordKind::kFrameIn:
        ++frames;
        if (ev.frame.type == 1) ++batches;  // kTupleBatch
        break;
      case sjoin::obs::RecordKind::kFrameOut:
        ++sends;
        break;
      case sjoin::obs::RecordKind::kTimeout:
        ++timeouts;
        break;
      case sjoin::obs::RecordKind::kClosed:
        ++closures;
        break;
    }
  }
  std::printf(
      "sjoin_replay: %s\n"
      "  schema=%u rank=%u membership_epoch=%llu build=%s (this build: %s)\n"
      "  config: %s\n"
      "  records=%zu (frames_in=%llu tuple_batches=%llu frames_out=%llu "
      "timeouts=%llu closures=%llu)%s\n"
      "  input_trace=%s wall: run_for=%lldus recv_timeout=%lldus "
      "retries=%u\n",
      path, rec.manifest.schema, rec.manifest.rank,
      static_cast<unsigned long long>(rec.manifest.membership_epoch),
      rec.manifest.build_version.c_str(), sjoin::obs::SourceStamp(),
      rec.manifest.config_summary.c_str(),
      rec.events.size(), static_cast<unsigned long long>(frames),
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(sends),
      static_cast<unsigned long long>(timeouts),
      static_cast<unsigned long long>(closures),
      rec.truncated_tail ? " [torn tail dropped]" : "",
      rec.manifest.has_input_trace
          ? (std::to_string(rec.manifest.input_trace.size()) + " tuples")
                .c_str()
          : "none",
      static_cast<long long>(rec.manifest.wall_run_for),
      static_cast<long long>(rec.manifest.wall_recv_timeout_us),
      rec.manifest.wall_recv_max_retries);
  return 0;
}

int Diff(const char* path_a, const char* path_b) {
  sjoin::obs::LoadRecordingResult a = sjoin::obs::LoadRecording(path_a);
  sjoin::obs::LoadRecordingResult b = sjoin::obs::LoadRecording(path_b);
  if (!a.ok || !b.ok) {
    std::fprintf(stderr, "sjoin_replay: %s\n",
                 (!a.ok ? a.error : b.error).c_str());
    return 2;
  }
  DivergenceReport rep =
      sjoin::PinpointDivergence(a.recording, b.recording);
  if (!rep.comparable) {
    std::fprintf(stderr, "sjoin_replay: bundles not comparable: %s\n",
                 rep.note.c_str());
    return 2;
  }
  if (!rep.diverged) {
    std::printf("sjoin_replay: no divergence: %s (%llu replays)\n",
                rep.note.c_str(), static_cast<unsigned long long>(rep.probes));
    return 0;
  }
  std::string pids;
  for (std::uint32_t pid : rep.pids) {
    if (!pids.empty()) pids += ',';
    pids += std::to_string(pid);
  }
  std::printf(
      "sjoin_replay: DIVERGED at epoch %llu (%s)\n"
      "  groups: [%s]\n"
      "  frame ordinal of that epoch's batch: %llu in %s, %llu in %s\n"
      "  bisection replays: %llu\n"
      "  repro: sjoin_replay --bundle %s --until-epoch %llu --dump-state\n",
      static_cast<unsigned long long>(rep.epoch),
      rep.outputs_differ ? "state + outputs differ" : "state differs",
      pids.c_str(), static_cast<unsigned long long>(rep.frame_seq_a), path_a,
      static_cast<unsigned long long>(rep.frame_seq_b), path_b,
      static_cast<unsigned long long>(rep.probes), path_a,
      static_cast<unsigned long long>(rep.epoch));
  return 1;
}

/// Byte-compares a replayed artifact against a live file; missing live
/// files are skipped (a crashed rank may not have flushed everything).
bool VerifyOne(const std::string& dir, const std::string& name,
               const std::string& replayed, bool* checked_any) {
  const std::string path = dir + "/" + name;
  std::string live;
  if (!ReadFileTo(path, &live)) {
    std::printf("sjoin_replay: verify: %s absent, skipped\n", path.c_str());
    return true;
  }
  *checked_any = true;
  if (live == replayed) {
    std::printf("sjoin_replay: verify: %s byte-identical (%zu bytes)\n",
                path.c_str(), live.size());
    return true;
  }
  std::size_t at = 0;
  const std::size_t n = std::min(live.size(), replayed.size());
  while (at < n && live[at] == replayed[at]) ++at;
  std::fprintf(stderr,
               "sjoin_replay: verify: %s DIFFERS (live %zu bytes, replay %zu "
               "bytes, first difference at byte %zu)\n",
               path.c_str(), live.size(), replayed.size(), at);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const char* bundle = nullptr;
  const char* info = nullptr;
  const char* verify_dir = nullptr;
  const char* out_dir = nullptr;
  const char* diff_a = nullptr;
  const char* diff_b = nullptr;
  ReplayOptions opts;
  bool dump_state = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bundle") == 0 && i + 1 < argc) {
      bundle = argv[++i];
    } else if (std::strcmp(argv[i], "--info") == 0 && i + 1 < argc) {
      info = argv[++i];
    } else if (std::strcmp(argv[i], "--until-epoch") == 0 && i + 1 < argc) {
      opts.until_epoch = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--until-vt") == 0 && i + 1 < argc) {
      opts.until_vt = std::strtoll(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opts.trace = true;
    } else if (std::strcmp(argv[i], "--dump-state") == 0) {
      dump_state = true;
    } else if (std::strcmp(argv[i], "--verify") == 0 && i + 1 < argc) {
      verify_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--diff") == 0 && i + 2 < argc) {
      diff_a = argv[++i];
      diff_b = argv[++i];
    } else {
      std::fprintf(stderr, "sjoin_replay: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  if (info != nullptr) return Info(info);
  if (diff_a != nullptr) return Diff(diff_a, diff_b);
  if (bundle == nullptr) {
    std::fprintf(
        stderr,
        "usage: sjoin_replay --bundle <rank.sjrec> [--until-epoch N | "
        "--until-vt US] [--dump-state] [--trace] [--out-dir DIR] "
        "[--verify <live-artifact-dir>]\n"
        "       sjoin_replay --info <rank.sjrec>\n"
        "       sjoin_replay --diff <a.sjrec> <b.sjrec>\n");
    return 2;
  }

  // Verification compares full-run artifacts; force trace on so a traced
  // live run matches.
  if (verify_dir != nullptr) opts.trace = true;

  const sjoin::obs::LoadRecordingResult loaded =
      sjoin::obs::LoadRecording(bundle);
  if (!loaded.ok) {
    std::fprintf(stderr, "sjoin_replay: %s\n", loaded.error.c_str());
    return 2;
  }
  std::printf("sjoin_replay: build: recorded by %s, replayed by %s\n",
              loaded.recording.manifest.build_version.c_str(),
              sjoin::obs::SourceStamp());
  ReplayResult res = sjoin::ReplayNode(loaded.recording, opts);
  if (!res.ok) {
    std::fprintf(stderr, "sjoin_replay: %s\n", res.error.c_str());
    return 2;
  }
  // A collector counts no epochs, so its line has no epoch field.
  const std::string epochs =
      res.epochs_done ? "epochs=" + std::to_string(*res.epochs_done) + " "
                      : std::string();
  std::printf(
      "sjoin_replay: rank %u replayed: %sframes=%llu outputs=%zu "
      "output_hash=%016llx%s\n",
      res.rank, epochs.c_str(),
      static_cast<unsigned long long>(res.frames_delivered),
      res.outputs.size(), static_cast<unsigned long long>(res.output_hash),
      res.hit_breakpoint ? " [breakpoint]" : "");
  if (res.control_divergence) {
    std::fprintf(stderr,
                 "sjoin_replay: WARNING: control-flow divergence: %s\n",
                 res.divergence_note.c_str());
  }
  if (res.sends_checked > 0) {
    std::printf("sjoin_replay: sends verified: %llu checked, %llu mismatches\n",
                static_cast<unsigned long long>(res.sends_checked),
                static_cast<unsigned long long>(res.send_mismatches));
  }
  if (dump_state) {
    std::printf("%s\n", res.state_json.c_str());
  }

  bool ok = !res.control_divergence && res.send_mismatches == 0;
  if (out_dir != nullptr) {
    const std::string dir(out_dir);
    const std::string r = std::to_string(res.rank);
    ok &= WriteFileTo(dir + "/outputs_rank" + r + ".csv",
                      sjoin::FormatTaggedOutputs(res.outputs));
    ok &= WriteFileTo(dir + "/epochs_rank" + r + ".csv", res.epoch_csv);
    ok &= WriteFileTo(dir + "/epochs_rank" + r + ".jsonl", res.epoch_jsonl);
    if (opts.trace) {
      ok &= WriteFileTo(dir + "/trace_rank" + r + ".json", res.trace_json);
    }
    if (dump_state) {
      ok &= WriteFileTo(dir + "/state_rank" + r + ".json", res.state_json);
    }
    std::printf("sjoin_replay: artifacts written to %s\n", out_dir);
  }
  if (verify_dir != nullptr) {
    const std::string dir(verify_dir);
    const std::string r = std::to_string(res.rank);
    bool checked_any = false;
    bool vok = true;
    vok &= VerifyOne(dir, "outputs_rank" + r + ".csv",
                     sjoin::FormatTaggedOutputs(res.outputs), &checked_any);
    vok &= VerifyOne(dir, "epochs_rank" + r + ".csv", res.epoch_csv,
                     &checked_any);
    vok &= VerifyOne(dir, "epochs_rank" + r + ".jsonl", res.epoch_jsonl,
                     &checked_any);
    vok &= VerifyOne(dir, "trace_rank" + r + ".json", res.trace_json,
                     &checked_any);
    if (!checked_any) {
      std::fprintf(stderr,
                   "sjoin_replay: verify: no live artifacts for rank %s "
                   "found in %s\n",
                   r.c_str(), verify_dir);
      return 2;
    }
    if (!vok) return 1;
    std::printf("sjoin_replay: verify: all present artifacts byte-identical\n");
    ok &= vok;
  }
  return ok ? 0 : 1;
}
