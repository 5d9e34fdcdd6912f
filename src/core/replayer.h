// Offline deterministic replay of a recorded node (DESIGN.md "Record/replay
// debugging").
//
// A `.sjrec` bundle (obs/recording.h) captures everything a node's control
// flow depends on: its config + seeds and the exact sequence of recv
// outcomes its transport delivered. ReplayTransport feeds that sequence back
// one outcome per recv call, so the *real* runner -- the same codec,
// JoinModule, window store, and checkpoint machinery that ran live --
// re-executes the node and reproduces its deterministic artifacts (join
// outputs, per-epoch recorder CSV/JSONL, logical-time trace) byte for byte.
// Wall-derived data (stage timings, delay sums inside kResultStats /
// kMetrics payloads) is not part of the determinism contract and is not
// compared.
//
// Breakpoints: `until_epoch` stops delivery before the (N+1)-th kTupleBatch
// frame; the slave's FIFO frame queue guarantees every delivered batch is
// fully joined before the stop lands, so the inspection seam
// (WallOptions::slave_inspect) observes exactly the post-epoch-N state,
// which is dumped as JSON with per-partition-group digests.
//
// Divergence pinpointing: given two bundles of the same node,
// PinpointDivergence binary-searches the first epoch whose deterministic
// artifacts (per-group state digests, cumulative output hash) differ, and
// reports the offending groups plus each bundle's frame ordinal for that
// epoch's batch. Both artifact classes are monotone -- a divergent output
// prefix stays divergent -- so bisection is sound.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "join/epoch_tag_sink.h"
#include "join/join_module.h"
#include "net/transport.h"
#include "obs/recording.h"

namespace sjoin {

/// Transport whose recv calls return a bundle's recorded stimulus (frames,
/// timeouts, closures) 1:1 in recorded order, and whose sends are captured
/// for verification. After the stimulus is exhausted -- or a batch
/// breakpoint trips -- every recv reports closure, which winds the node
/// down exactly like a live shutdown.
class ReplayTransport : public Transport {
 public:
  /// `max_batches` > 0 stops delivery before tuple-batch number
  /// max_batches + 1; 0 replays the full bundle. The recording must outlive
  /// the transport.
  ReplayTransport(const obs::Recording& recording, std::uint64_t max_batches);

  Rank Self() const override { return self_; }
  void Send(Rank to, Message msg) override;
  /// Both timed receives ignore the length of a timeout: a recorded timeout
  /// is delivered as one. A timeout stimulus that reaches an untimed
  /// receive (`timeout_us < 0`) is a control divergence; it is skipped.
  RecvResult RecvTimed(Duration timeout_us) override;
  RecvResult RecvFromTimed(Rank from, Duration timeout_us) override;

  /// Stimulus records consumed (for progress reporting).
  std::uint64_t FramesDelivered() const;
  std::uint64_t BatchesDelivered() const;

  /// Outbound frames the replayed node produced, in send order (peer =
  /// destination).
  std::vector<obs::RecordedFrame> Sends() const;

  /// True when the replayed control flow requested a recv the recording
  /// cannot satisfy in kind (e.g. RecvFrom a different peer than recorded)
  /// -- the node under replay is not the node that was recorded.
  bool ControlDivergence() const;
  std::string DivergenceNote() const;

 private:
  struct Stimulus {
    const obs::RecordedEvent* ev = nullptr;
    std::uint64_t seq = 0;  ///< record ordinal within the bundle
  };

  /// Consumes the next stimulus; nullopt at exhaustion or past a tripped
  /// breakpoint. `want_peer` set = targeted recv, checked against the
  /// recorded peer.
  std::optional<Stimulus> Next(std::optional<Rank> want_peer);
  /// The shared body of both receives.
  RecvResult Deliver(std::optional<Rank> want_peer, Duration timeout_us);
  void NoteDivergence(const std::string& note);

  Rank self_ = 0;
  std::uint64_t max_batches_ = 0;
  std::vector<Stimulus> stimulus_;

  mutable std::mutex mu_;
  std::size_t pos_ = 0;
  bool ended_ = false;
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t batches_delivered_ = 0;
  std::vector<obs::RecordedFrame> sends_;
  bool diverged_ = false;
  std::string divergence_note_;
};

struct ReplayOptions {
  /// Halt after this many distribution epochs are fully processed (0 = run
  /// the whole bundle). For a node admitted mid-run (manifest
  /// membership_epoch > 0) the count is translated to batches received
  /// since admission.
  std::uint64_t until_epoch = 0;

  /// Alternative breakpoint in virtual time: translated to
  /// until_epoch = until_vt / t_dist (0 = none; ignored when until_epoch is
  /// set).
  Time until_vt = 0;

  /// Enable the logical-time trace sink (matches a live run with trace
  /// events on; required for byte-comparing trace_json against it).
  bool trace = false;
};

struct ReplayResult {
  bool ok = false;
  std::string error;

  std::uint32_t rank = 0;
  /// Distribution epochs the node completed: a slave's from the inspection
  /// seam, the master's from its summary; none for a collector.
  std::optional<std::uint64_t> epochs_done;
  std::uint64_t frames_delivered = 0;   ///< stimulus records consumed
  bool hit_breakpoint = false;
  bool control_divergence = false;
  std::string divergence_note;

  // Deterministic artifacts (slave replays; master/collector replays fill
  // the recorder/trace only).
  std::vector<TaggedOutput> outputs;
  std::uint64_t output_hash = 0;  ///< HashTaggedOutputs(outputs)
  std::string epoch_csv;
  std::string epoch_jsonl;
  std::string trace_json;

  /// Post-run (or breakpoint) window/checkpoint state, sorted by pid.
  std::vector<JoinModule::GroupDigest> groups;
  /// The same state as a JSON document (tools/sjoin_replay --dump-state).
  std::string state_json;

  /// Send verification (full replays only; breakpoint replays skip it):
  /// the replayed node's outbound frames of deterministic protocol classes
  /// (state transfer, acks, checkpoints, leave-acks, shutdown) compared
  /// byte-for-byte, in order, against the recorded ones.
  std::uint64_t sends_checked = 0;
  std::uint64_t send_mismatches = 0;
};

/// Replays one node from a loaded bundle: rank 0 drives RunMasterNode
/// (requires an embedded input trace), ranks 1..N RunSlaveNode, rank N+1
/// RunCollectorNode.
ReplayResult ReplayNode(const obs::Recording& recording,
                        const ReplayOptions& opts = {});

/// Canonical text rendering of tagged outputs -- one CSV line per output --
/// shared by the chaos harness's live artifacts and the replayer so
/// byte-identity can be gated with a file compare. produced_at is excluded:
/// slaves stamp it from the wall clock, so it is not deterministic.
std::string FormatTaggedOutputs(std::span<const TaggedOutput> outputs);

/// FNV-1a over (epoch, pid, left, right) in order (produced_at excluded,
/// same reason as FormatTaggedOutputs).
std::uint64_t HashTaggedOutputs(std::span<const TaggedOutput> outputs);

// -- Divergence pinpointing -------------------------------------------------

struct DivergenceReport {
  bool comparable = false;  ///< same rank, non-empty common epoch prefix
  bool diverged = false;
  std::string note;

  std::uint64_t epoch = 0;  ///< first epoch whose artifacts differ
  std::vector<std::uint32_t> pids;  ///< groups whose state digests differ
  bool outputs_differ = false;      ///< cumulative output hash differs too
  /// Bundle-record ordinal of that epoch's kTupleBatch frame in each bundle
  /// (the frame to stare at).
  std::uint64_t frame_seq_a = 0;
  std::uint64_t frame_seq_b = 0;
  std::uint64_t probes = 0;  ///< replays performed by the bisection
};

/// Replays `a` and `b` side by side, binary-searching the first epoch where
/// any deterministic artifact differs. Both bundles must record the same
/// rank; the search covers the common epoch prefix.
DivergenceReport PinpointDivergence(const obs::Recording& a,
                                    const obs::Recording& b);

}  // namespace sjoin
