// Chaos-test harness: runs a full master/slaves/collector cluster over
// InProcTransport decorated with FaultEndpoint, under a seeded fault
// schedule, and differentially checks the cluster's join output against
// ReferenceSlidingJoin over the same input trace.
//
// The input is a fixed, timestamp-ordered trace distributed at virtual
// epoch boundaries (WallOptions::input_trace), so the tuple set every run
// joins -- and therefore the declarative answer -- is deterministic. The
// differential check then states the protocol's delivery guarantees:
//   * with delay / reorder / duplicate faults (and bounded
//     drop-with-retransmit) the cluster output must EQUAL the reference:
//     nothing lost, nothing duplicated;
//   * with a crashed slave and replication OFF the output must be a SUBSET
//     of the reference (`extra` empty): window state that died with the
//     node may lose matches, but hardening must never fabricate or
//     double-deliver one;
//   * with a crashed slave and replication ON (cfg.replication.enabled) the
//     output must EQUAL the reference: buddies rebuild the lost groups from
//     acked checkpoints and the master replays retained batches.
//
// Every slave's outputs are materialized through an EpochTagSink, and the
// harness applies the failover output-voiding rule before the differential
// check: for each FailoverRecord{pid, target, replay_from, replay_to}
// reported by the master, outputs tagged (pid, replay_from <= epoch <=
// replay_to) count only from `target` -- the replay regenerates exactly
// those, and any copy another rank produced (the dead slave pre-crash, a
// falsely-evicted slave post-verdict, or a pre-migration owner) is void.
// Epochs past the verdict (`replay_to`) were never delivered to the dead
// rank and belong to the group's then-current owner, which an elastic
// drain may legitimately have moved off the target. This is the
// collector's dedup discipline, stated over the test's materialized
// outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "core/runner.h"
#include "join/reference_join.h"
#include "net/fault_transport.h"
#include "obs/obs.h"
#include "tuple/tuple.h"

namespace sjoin {

struct ChaosClusterOptions {
  SystemConfig cfg;
  WallOptions wall;    ///< input_trace / slave_extra_sinks are set by the run
  FaultConfig faults;  ///< applied to every endpoint (master included)
  std::vector<Rec> trace;  ///< timestamp-ordered input, required

  /// Enables the per-rank TraceSinks; the merged Chrome trace lands in
  /// ChaosClusterResult::trace_json. Off by default (registries and
  /// recorders are always on regardless).
  bool trace_events = false;

  /// Where every rank's `rank<R>.sjrec` bundle and the live artifacts go
  /// (always kept). Empty: a directory of the run's own, under
  /// $SJOIN_RECORD_KEEP_DIR when that is set (always kept), else a temp
  /// directory kept only when the differential check fails (see
  /// ChaosClusterResult::recording).
  std::string record_dir;
};

/// Where a run's record/replay bundles ended up (see RunChaosCluster).
struct ChaosRecordingInfo {
  /// Directory holding `rank<R>.sjrec` bundles plus the live deterministic
  /// artifacts (outputs_rank<R>.csv, epochs_rank<R>.csv/.jsonl, per-rank
  /// traces) -- a self-contained repro for tools/sjoin_replay. Empty when
  /// the recording was discarded (run passed under an auto-record temp dir).
  std::string dir;
  bool kept = false;  ///< false = temp recording was deleted after a pass
};

struct ChaosClusterResult {
  MasterSummary master;
  std::vector<SlaveSummary> slaves;
  CollectorSummary collector;
  std::vector<FaultStats> fault_stats;  ///< per rank, 0 .. num_slaves+1

  std::vector<JoinPair> outputs;    ///< cluster-produced pairs, sorted
  std::vector<JoinPair> reference;  ///< ground truth over the trace, sorted
  std::vector<JoinPair> missing;    ///< reference \ outputs
  std::vector<JoinPair> extra;      ///< outputs \ reference (incl. dups)
  bool exact = false;               ///< missing and extra both empty

  /// Outputs dropped by the failover voiding rule (0 without a failover).
  /// Not part of Summary(): how much a dying slave drains before the crash
  /// lands is thread-timing dependent; the post-voiding output set is not.
  std::uint64_t voided = 0;

  /// Post-voiding (group, epoch) tags produced by MORE than one slave rank.
  /// One epoch's tuples for one group go to exactly one owner, and the
  /// voiding rule strips superseded pre-failover copies, so any survivor
  /// here is a duplicated delivery -- the graceful-leave acceptance check
  /// asserts 0 across membership transitions.
  std::uint64_t dup_group_epoch_ranks = 0;

  /// Per-rank observability bundles (index = rank, 0 .. num_slaves + 1; the
  /// collector's holds its two counters and one recorder row of run
  /// totals). The master's carries the ClusterMetricsView assembled from
  /// kMetrics frames. Registry counters on the fault endpoints are attached
  /// to the same bundles (volatile families).
  std::vector<std::unique_ptr<obs::NodeObs>> obs;

  /// Merged Chrome trace_event JSON over every rank's sink ("" unless
  /// ChaosClusterOptions::trace_events). Deterministic for a seeded run:
  /// wall runners stamp logical epoch time, never wall time.
  std::string trace_json;

  /// One Chrome trace document per rank (0..n+1; empty unless
  /// ChaosClusterOptions::trace_events) -- the per-process files a real
  /// deployment writes, and the inputs of obs::StitchTraces /
  /// `trace_check --stitch`.
  std::vector<std::string> rank_traces;

  /// Record/replay bundles of this run. Every chaos run is recorded: to
  /// ChaosClusterOptions::record_dir when set, or to a subdirectory of
  /// $SJOIN_RECORD_KEEP_DIR named after the running test (both always
  /// kept; tools/replay_ab.py verifies every run under the keep dir, and
  /// record_replay_test puts its record_dirs there), else to a temp
  /// directory that is kept -- and copied into the CI artifact dir -- only
  /// when the differential check fails, so any red run ships a one-command
  /// repro (`sjoin_replay --bundle <dir>/rank<R>.sjrec`).
  ChaosRecordingInfo recording;

  /// Deterministic digest of the run: every counter that depends only on
  /// the trace, the config, and the fault seed (no wall-clock-derived
  /// quantity). Two runs with identical options must produce identical
  /// summaries -- the seeded-determinism test compares these byte for byte.
  ///
  /// Pass include_fault_lines=false in crash scenarios: the dead-slave
  /// verdict lands after real-time timeouts, so the *epoch* it falls in --
  /// and with it every post-verdict message count (redirected batches,
  /// checkpoint segments, replays) -- is wall-timing dependent. The
  /// per-rank injected-fault counters inherit that variance; everything
  /// else in the summary stays seed-deterministic even across a crash.
  std::string Summary(bool include_fault_lines = true) const;
};

/// Runs the full cluster (one thread per rank) to completion and evaluates
/// the differential check. Always returns; a harness-level deadlock would
/// mean the hardened protocol failed its no-unbounded-wait guarantee.
ChaosClusterResult RunChaosCluster(const ChaosClusterOptions& opts);

/// Builds a deterministic two-stream trace: `count` tuples alternating
/// streams, strictly increasing timestamps evenly spread over [1, span_us],
/// keys drawn from [0, key_domain) with a seeded PCG. Small domains give
/// dense matches.
std::vector<Rec> MakeChaosTrace(std::uint64_t seed, std::size_t count,
                                Time span_us, std::uint64_t key_domain);

/// Builds a seeded, valid-by-construction membership schedule for a cluster
/// of `num_slaves` ranks of which `initial_members` start as members: the
/// generator simulates the member/standby sets, so every event joins an
/// actual standby or drains an actual member while keeping at least one
/// member -- no event is skippable by the runner's validity check (an
/// eviction racing the schedule can still invalidate one at run time, which
/// the runner then skips and counts). Events are spaced `gap_epochs` apart
/// starting at `first_epoch`.
std::vector<MembershipEvent> MakeMembershipSchedule(
    std::uint64_t seed, std::size_t count, std::uint32_t num_slaves,
    std::uint32_t initial_members, std::uint64_t first_epoch = 4,
    std::uint64_t gap_epochs = 6);

}  // namespace sjoin
