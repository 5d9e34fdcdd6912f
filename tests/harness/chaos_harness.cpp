#include "harness/chaos_harness.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "core/replayer.h"
#include "join/epoch_tag_sink.h"
#include "join/sink.h"
#include "net/inproc_transport.h"
#include "net/recording_tap.h"
#include "obs/artifact.h"
#include "obs/trace_check.h"

namespace sjoin {

namespace {

/// Fresh per-run directory for auto-recorded bundles (opts.record_dir
/// empty). Under $SJOIN_RECORD_KEEP_DIR it is named after the running test
/// (`<suite>.<test>.<n>`, '/' of parameterized names as '_') and always
/// kept; otherwise it is unique under the system temp dir and deleted again
/// unless the run fails its differential check.
std::string MakeRecordDir(const char* keep_root) {
  static std::atomic<std::uint64_t> counter{0};
  std::error_code ec;
  if (keep_root != nullptr) {
    std::string test = "run";
    if (const ::testing::TestInfo* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      test = std::string(info->test_suite_name()) + "." + info->name();
      std::replace(test.begin(), test.end(), '/', '_');
    }
    while (true) {
      const std::filesystem::path dir =
          std::filesystem::path(keep_root) /
          (test + "." +
           std::to_string(counter.fetch_add(1, std::memory_order_relaxed)));
      // An existing dir (create_directories is false, no error): next n.
      if (std::filesystem::create_directories(dir, ec)) return dir.string();
      if (ec) return {};
    }
  }
  const std::filesystem::path base =
      std::filesystem::temp_directory_path(ec);
  if (ec) return {};
  const std::string name =
      "sjrec_" + std::to_string(::getpid()) + "_" +
      std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  const std::filesystem::path dir = base / name;
  std::filesystem::create_directories(dir, ec);
  if (ec) return {};
  return dir.string();
}

void WriteFileRaw(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

std::string ReadFileRaw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

JoinPair PairOf(const JoinOutput& out) {
  return JoinPair{out.left.ts, out.right.ts, out.left.key};
}

/// FNV-1a over the sorted pair list: a compact, order-stable output digest.
std::uint64_t HashPairs(const std::vector<JoinPair>& pairs) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const JoinPair& p : pairs) {
    mix(static_cast<std::uint64_t>(p.ts0));
    mix(static_cast<std::uint64_t>(p.ts1));
    mix(p.key);
  }
  return h;
}

}  // namespace

std::string ChaosClusterResult::Summary(bool include_fault_lines) const {
  std::ostringstream os;
  os << "tuples_sent=" << master.tuples_sent << " epochs=" << master.epochs
     << " migrations=" << master.migrations
     << " dead_slaves=" << master.dead_slaves
     << " groups_rehosted=" << master.groups_rehosted
     << " failed_over=" << master.groups_failed_over << "\n";
  os << "outputs=" << outputs.size() << " hash=" << HashPairs(outputs)
     << " missing=" << missing.size() << " extra=" << extra.size() << "\n";
  // Elastic membership line (omitted when no membership machinery ran, so
  // pre-elastic scenarios keep their original summaries). All of these are
  // epoch-boundary deterministic for scheduled transitions.
  if (master.joins != 0 || master.leaves != 0 || master.drain_moves != 0 ||
      master.membership_epochs != 0 || master.membership_skipped != 0) {
    os << "joins=" << master.joins << " leaves=" << master.leaves
       << " drain_moves=" << master.drain_moves
       << " handovers=" << master.buddy_handovers
       << " membership_epochs=" << master.membership_epochs
       << " skipped=" << master.membership_skipped
       << " dup_group_epoch=" << dup_group_epoch_ranks << "\n";
  }
  if (include_fault_lines) {
    for (std::size_t r = 0; r < fault_stats.size(); ++r) {
      const FaultStats& fs = fault_stats[r];
      os << "rank" << r << ": delivered=" << fs.delivered
         << " delayed=" << fs.delayed << " duplicated=" << fs.duplicated
         << " retransmitted=" << fs.retransmitted << "\n";
    }
  }
  // The collector's raw output count is excluded: it includes whatever a
  // dying slave drained before the crash (a thread race, see the `drained`
  // note above); the deterministic output set is already pinned by the
  // outputs=/hash= line. Its report count races the same way once a slave
  // is evicted (the kResultStats frames a crashed slave got out before its
  // endpoint died), so it is printed only for runs without an eviction:
  // there each slave's reports reach the collector ahead of its kShutdown on
  // the same channel, and the count is deterministic.
  if (master.dead_slaves == 0) {
    os << "collector: reports=" << collector.reports << "\n";
  }
  return std::move(os).str();
}

ChaosClusterResult RunChaosCluster(const ChaosClusterOptions& opts) {
  const Rank n = opts.cfg.num_slaves;
  InProcHub hub(n + 2);

  ChaosClusterResult result;
  for (Rank r = 0; r < n + 2; ++r) {
    result.obs.push_back(std::make_unique<obs::NodeObs>());
    result.obs[r]->trace.SetRank(r);
    result.obs[r]->trace.SetEnabled(opts.trace_events);
  }

  // Every run records: to opts.record_dir when set, else to a directory of
  // its own under SJOIN_RECORD_KEEP_DIR (kept) or the temp dir (kept only
  // on differential failure). The tap is outermost (around the fault
  // endpoint) so bundles hold frames exactly as the node saw them, after
  // injection.
  const char* keep_root = std::getenv("SJOIN_RECORD_KEEP_DIR");
  if (keep_root != nullptr && *keep_root == '\0') keep_root = nullptr;
  const bool keep = !opts.record_dir.empty() || keep_root != nullptr;
  const std::string record_dir = !opts.record_dir.empty()
                                     ? opts.record_dir
                                     : MakeRecordDir(keep_root);

  std::vector<std::unique_ptr<FaultEndpoint>> endpoints(n + 2);
  std::vector<std::unique_ptr<RecordingTap>> taps(n + 2);
  for (Rank r = 0; r < n + 2; ++r) {
    endpoints[r] =
        std::make_unique<FaultEndpoint>(hub.Endpoint(r), opts.faults);
    endpoints[r]->AttachMetrics(&result.obs[r]->registry);
    taps[r] = std::make_unique<RecordingTap>(*endpoints[r]);
    if (!record_dir.empty()) {
      RecordingTap::Info info;
      info.input_trace = r == 0 ? &opts.trace : nullptr;
      info.membership = r == 0 ? &opts.wall.membership : nullptr;
      info.wall_run_for = opts.wall.run_for;
      info.wall_recv_timeout_us = opts.wall.recv_timeout_us;
      info.wall_recv_max_retries = opts.wall.recv_max_retries;
      taps[r]->Open(record_dir, opts.cfg, info);
    }
  }

  std::vector<EpochTagSink> sinks;
  sinks.reserve(n);
  for (Rank s = 0; s < n; ++s) {
    sinks.emplace_back(opts.cfg.join.num_partitions);
  }
  WallOptions wall = opts.wall;
  wall.input_trace = &opts.trace;
  wall.slave_extra_sinks.clear();
  wall.slave_epoch_sinks.clear();
  for (Rank s = 0; s < n; ++s) wall.slave_epoch_sinks.push_back(&sinks[s]);
  wall.master_obs = result.obs[0].get();
  wall.slave_obs.clear();
  for (Rank s = 1; s <= n; ++s) wall.slave_obs.push_back(result.obs[s].get());

  std::vector<Transport*> nodes;
  for (Rank r = 0; r < n + 2; ++r) nodes.push_back(taps[r].get());
  ClusterSummaries sums = RunInProcessCluster(hub, nodes, opts.cfg, wall,
                                              result.obs[n + 1].get());
  result.master = std::move(sums.master);
  result.slaves = std::move(sums.slaves);
  result.collector = sums.collector;

  for (Rank r = 0; r < n + 2; ++r) {
    result.fault_stats.push_back(endpoints[r]->Stats());
  }

  if (opts.trace_events) {
    std::vector<const obs::TraceSink*> sinks_by_rank;
    for (Rank r = 0; r < n + 2; ++r) {
      sinks_by_rank.push_back(&result.obs[r]->trace);
    }
    result.trace_json = obs::ExportChromeJson(obs::MergeTraces(sinks_by_rank));
    // Per-rank trace files, as a real deployment would write them -- the
    // inputs of trace_check --stitch (and of the stitch tests).
    for (Rank r = 0; r < n + 2; ++r) {
      const obs::TraceSink* one[] = {sinks_by_rank[r]};
      result.rank_traces.push_back(
          obs::ExportChromeJson(obs::MergeTraces(one)));
    }
  }

  // Failover output-voiding rule: outputs tagged (pid, replay_from <=
  // epoch <= replay_to) count only from the failover target -- the replay
  // regenerates exactly those (see core/runner.h FailoverRecord). Epochs
  // past the verdict belong to whoever owns the group then (an elastic
  // drain may legitimately move it off the target).
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t>
      group_epoch_ranks;  // (pid, epoch) -> bitmask of producing ranks
  for (Rank s = 0; s < n; ++s) {
    for (const TaggedOutput& t : sinks[s].Outputs()) {
      bool voided = false;
      for (const FailoverRecord& f : result.master.failovers) {
        if (t.pid == f.pid && t.epoch >= f.replay_from &&
            t.epoch <= f.replay_to && s + 1 != f.target) {
          voided = true;
          break;
        }
      }
      if (voided) {
        ++result.voided;
        continue;
      }
      group_epoch_ranks[{t.pid, t.epoch}] |= 1u << s;
      result.outputs.push_back(PairOf(t.out));
    }
  }
  // A surviving (group, epoch) tag produced by two ranks is a duplicated
  // delivery (one epoch's tuples for one group have exactly one owner).
  for (const auto& [ge, mask] : group_epoch_ranks) {
    if ((mask & (mask - 1)) != 0) ++result.dup_group_epoch_ranks;
  }
  std::sort(result.outputs.begin(), result.outputs.end());
  result.reference =
      ReferenceSlidingJoin(opts.trace, opts.cfg.join.window);
  std::set_difference(result.reference.begin(), result.reference.end(),
                      result.outputs.begin(), result.outputs.end(),
                      std::back_inserter(result.missing));
  std::set_difference(result.outputs.begin(), result.outputs.end(),
                      result.reference.begin(), result.reference.end(),
                      std::back_inserter(result.extra));
  result.exact = result.missing.empty() && result.extra.empty();

  // Close the bundles, then pair them with the live deterministic artifacts
  // (per-rank tagged outputs, epoch CSV/JSONL, traces): the directory is a
  // self-contained repro that `sjoin_replay --verify` can gate byte-for-byte.
  for (Rank r = 0; r < n + 2; ++r) taps[r]->Finish();
  if (!record_dir.empty() && (keep || !result.exact)) {
    for (Rank s = 1; s <= n; ++s) {
      const std::string rs = std::to_string(s);
      WriteFileRaw(record_dir + "/outputs_rank" + rs + ".csv",
                   FormatTaggedOutputs(sinks[s - 1].Outputs()));
      WriteFileRaw(record_dir + "/epochs_rank" + rs + ".csv",
                   result.obs[s]->recorder.ExportCsv());
      WriteFileRaw(record_dir + "/epochs_rank" + rs + ".jsonl",
                   result.obs[s]->recorder.ExportJsonl());
    }
    WriteFileRaw(record_dir + "/epochs_rank0.csv",
                 result.obs[0]->recorder.ExportCsv());
    WriteFileRaw(record_dir + "/epochs_rank0.jsonl",
                 result.obs[0]->recorder.ExportJsonl());
    const std::string collector = std::to_string(n + 1);
    WriteFileRaw(record_dir + "/epochs_rank" + collector + ".csv",
                 result.obs[n + 1]->recorder.ExportCsv());
    WriteFileRaw(record_dir + "/epochs_rank" + collector + ".jsonl",
                 result.obs[n + 1]->recorder.ExportJsonl());
    for (Rank r = 0; r < result.rank_traces.size(); ++r) {
      WriteFileRaw(record_dir + "/trace_rank" + std::to_string(r) + ".json",
                   result.rank_traces[r]);
    }
    result.recording.dir = record_dir;
    result.recording.kept = true;
  }

  // Output-diff failure: leave a post-mortem behind. Every rank's flight
  // ring, the stitched distributed trace (when tracing was on), and the
  // record/replay bundles land in the artifact directory CI uploads; a
  // no-op when no artifact env var is set.
  if (!result.exact) {
    const std::string summary = Summarize(opts.cfg);
    for (Rank r = 0; r < n + 2; ++r) {
      obs::WriteArtifact(obs::ArtifactKind::kChaos,
                         "flight_rank" + std::to_string(r) + ".txt",
                         result.obs[r]->flight.Dump(), summary);
    }
    if (!result.rank_traces.empty()) {
      obs::WriteArtifact(obs::ArtifactKind::kChaos, "stitched_trace.json",
                         obs::StitchTraces(result.rank_traces).json, summary);
    }
    for (Rank r = 0; r < n + 2; ++r) {
      const std::string bundle =
          ReadFileRaw(obs::RecordingBundlePath(record_dir, r));
      if (!bundle.empty()) {
        obs::WriteArtifact(obs::ArtifactKind::kChaos,
                           "rank" + std::to_string(r) + ".sjrec", bundle,
                           summary);
      }
    }
  } else if (!keep && !record_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(record_dir, ec);
  }
  return result;
}

std::vector<Rec> MakeChaosTrace(std::uint64_t seed, std::size_t count,
                                Time span_us, std::uint64_t key_domain) {
  Pcg32 rng(Mix64(seed ^ 0xC4A05ULL), 7);
  std::vector<Rec> trace;
  trace.reserve(count);
  const Time step =
      std::max<Time>(1, span_us / static_cast<Time>(count > 0 ? count : 1));
  for (std::size_t i = 0; i < count; ++i) {
    // Tuple i lands in its own slot (i * step, (i + 1) * step].
    Rec rec;
    rec.ts = static_cast<Time>(i) * step + 1 +
             rng.NextBounded(static_cast<std::uint32_t>(step));
    rec.key = rng.NextBounded(static_cast<std::uint32_t>(key_domain));
    rec.stream = static_cast<StreamId>(i & 1);
    trace.push_back(rec);
  }
  return trace;
}

std::vector<MembershipEvent> MakeMembershipSchedule(
    std::uint64_t seed, std::size_t count, std::uint32_t num_slaves,
    std::uint32_t initial_members, std::uint64_t first_epoch,
    std::uint64_t gap_epochs) {
  Pcg32 rng(Mix64(seed ^ 0x3E1A57ULL), 11);
  std::vector<bool> member(num_slaves, false);
  for (std::uint32_t s = 0; s < initial_members && s < num_slaves; ++s) {
    member[s] = true;
  }
  auto pick = [&](bool want_member) -> std::int64_t {
    std::vector<std::uint32_t> pool;
    for (std::uint32_t s = 0; s < num_slaves; ++s) {
      if (member[s] == want_member) pool.push_back(s);
    }
    if (pool.empty()) return -1;
    return pool[rng.NextBounded(static_cast<std::uint32_t>(pool.size()))];
  };
  std::vector<MembershipEvent> schedule;
  std::uint64_t epoch = first_epoch;
  std::uint32_t members = std::min(initial_members, num_slaves);
  for (std::size_t i = 0; i < count; ++i, epoch += gap_epochs) {
    const bool can_join = members < num_slaves;
    const bool can_leave = members > 1;
    if (!can_join && !can_leave) break;
    bool join = can_join && (!can_leave || rng.NextBounded(2) == 0);
    const std::int64_t slave = pick(/*want_member=*/!join);
    if (slave < 0) continue;
    member[static_cast<std::uint32_t>(slave)] = join;
    members = join ? members + 1 : members - 1;
    schedule.push_back(
        MembershipEvent{epoch, join, static_cast<SlaveIdx>(slave)});
  }
  return schedule;
}

}  // namespace sjoin
