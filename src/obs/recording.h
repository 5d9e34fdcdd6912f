// Deterministic record/replay bundle format (`.sjrec`).
//
// Every node of this system is deterministic given (a) the sequence of recv
// outcomes its transport delivered -- frames, timeouts, closures -- and (b)
// its SystemConfig and seeds. A recording bundle captures exactly that: a
// schema-versioned manifest (full config, rank, seeds, membership epoch,
// build version, optional input trace and membership schedule) followed by
// a length-prefixed stream of transport events in the order the node
// observed them. Replaying the bundle through the real runner
// (core/replayer.h) reproduces the node's deterministic artifacts -- join
// outputs, per-epoch recorder CSV/JSONL, logical-time trace -- byte for
// byte.
//
// The format lives in obs (below net in the layering), so message types are
// raw u8 codes here, not net/message.h MsgType; net/recording_tap.h is the
// transport decorator that produces these files, core/replayer.h the
// consumer.
//
// File layout (all integers little-endian, see common/serialize.h):
//   magic   "SJREC\n" (6 bytes)
//   u32     schema version (kRecordingSchemaVersion)
//   u32     manifest blob length, then the manifest blob
//   records until EOF, each: u32 body length, then body
//     body: u8 kind (RecordKind), then per kind:
//       kFrameIn / kFrameOut: u32 peer, u8 type, u64 trace_id,
//                             u64 parent_span, i64 send_vt,
//                             u32 payload length, payload bytes
//       kTimeout / kClosed:   u32 peer (kRecordAnyPeer for untargeted recv)
//
// A bundle whose final record is cut short (the recording process died
// mid-write) still loads: the torn tail is dropped and flagged, because a
// crashed node is precisely the node one wants to replay.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/serialize.h"
#include "tuple/tuple.h"

namespace sjoin::obs {

// v2 added a u8 execution-mode flag after slave.workers; v3 drops it; v4's
// recorded kCkptCmd entries and kCheckpoint segments carry a committed
// epoch, so a v3 bundle's checkpoint frames no longer decode; v5 drops
// three config fields (handshake retries and backoff cap, flight-ring
// size) and adds the master's membership schedule to the manifest; v6
// drops ten more (the epoch tuner's seven bounds and rates, the directory
// depth cap, the elastic scale-in floor and the record directory). Only
// the current schema loads.
inline constexpr std::uint32_t kRecordingSchemaVersion = 6;
inline constexpr char kRecordingMagic[6] = {'S', 'J', 'R', 'E', 'C', '\n'};

/// Peer value recorded for an untargeted Recv()/RecvTimed() timeout or
/// closure (targeted RecvFrom* records the requested peer).
inline constexpr std::uint32_t kRecordAnyPeer = 0xFFFF'FFFFu;

enum class RecordKind : std::uint8_t {
  kFrameIn = 1,   ///< a recv call delivered this frame
  kFrameOut = 2,  ///< the node passed this frame to Send
  kTimeout = 3,   ///< a timed recv returned RecvStatus::kTimeout
  kClosed = 4,    ///< a recv observed transport closure
};

/// One wire frame as the node saw it. Field-for-field mirror of
/// net/message.h `Message` plus the peer rank; `type` is the raw MsgType
/// byte so this header stays below net in the layering.
struct RecordedFrame {
  std::uint32_t peer = 0;  ///< sender rank (kFrameIn) / destination (kFrameOut)
  std::uint8_t type = 0;   ///< raw MsgType code
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  Time send_vt = 0;
  std::vector<std::uint8_t> payload;

  friend bool operator==(const RecordedFrame&, const RecordedFrame&) = default;
};

struct RecordedEvent {
  RecordKind kind = RecordKind::kFrameIn;
  /// Full frame for kFrameIn/kFrameOut; only `peer` is meaningful for
  /// kTimeout/kClosed.
  RecordedFrame frame;

  friend bool operator==(const RecordedEvent&, const RecordedEvent&) = default;
};

/// Everything needed to reconstruct the node offline. `membership_epoch` is
/// the distribution epoch at which the node entered the cluster (0 for
/// initial members), so elastic-join bundles replay from the right boundary.
struct RecordingManifest {
  std::uint32_t schema = kRecordingSchemaVersion;
  std::string build_version;  ///< SourceStamp() of the recording build
  std::uint32_t rank = 0;
  std::uint64_t membership_epoch = 0;
  SystemConfig cfg;
  std::string config_summary;  ///< Summarize(cfg), for humans reading headers
  /// Master bundles of trace-driven runs carry the input trace so the master
  /// itself can be replayed; slave bundles leave it empty (slaves receive
  /// their input as frames).
  bool has_input_trace = false;
  std::vector<Rec> input_trace;
  /// Master bundles carry the run's scheduled membership transitions
  /// (WallOptions::membership): a replayed master without them would never
  /// start the joins and leaves its recorded frames answer.
  std::vector<MembershipEvent> membership;

  /// Wall-runner knobs of the live run (core WallOptions) that shape control
  /// flow -- the master's dead-slave verdict needs the same retry budget to
  /// branch identically under replay. Zero = not captured; the replayer
  /// falls back to the runner defaults.
  std::int64_t wall_run_for = 0;          ///< run duration, microseconds
  std::int64_t wall_recv_timeout_us = 0;  ///< per-attempt recv timeout
  std::uint32_t wall_recv_max_retries = 0;
};

// -- Codec (kRecordingSchemaVersion) ---------------------------------------

void EncodeSystemConfig(Writer& w, const SystemConfig& cfg);
SystemConfig DecodeSystemConfig(Reader& r);  // throws DecodeError

void EncodeManifest(Writer& w, const RecordingManifest& m);
RecordingManifest DecodeManifest(Reader& r);  // throws DecodeError

/// Encodes one event with its u32 length prefix.
void EncodeRecord(Writer& w, const RecordedEvent& ev);

// -- Streaming writer -------------------------------------------------------

/// Mutex-guarded append-only `.sjrec` writer. Safe to call from the comm and
/// join threads of one node concurrently (each append is atomic under the
/// lock); cheap no-ops when not open, so call sites need no `if (recording)`
/// guards.
class RecordingWriter {
 public:
  RecordingWriter() = default;
  ~RecordingWriter() { Close(); }
  RecordingWriter(const RecordingWriter&) = delete;
  RecordingWriter& operator=(const RecordingWriter&) = delete;

  /// Creates parent directories, opens `path`, writes header + manifest.
  bool Open(const std::string& path, const RecordingManifest& manifest);
  bool IsOpen() const;

  void FrameIn(const RecordedFrame& frame);
  void FrameOut(const RecordedFrame& frame);
  void Timeout(std::uint32_t peer);
  void Closed(std::uint32_t peer);

  /// Flushes and closes; further appends are no-ops.
  void Close();

 private:
  void Append(const RecordedEvent& ev);

  mutable std::mutex mu_;
  std::ofstream out_;
  Writer scratch_;
};

// -- Loader -----------------------------------------------------------------

struct Recording {
  RecordingManifest manifest;
  std::vector<RecordedEvent> events;
  bool truncated_tail = false;  ///< final record was torn and dropped
};

struct LoadRecordingResult {
  bool ok = false;
  std::string error;
  Recording recording;
};

LoadRecordingResult LoadRecording(const std::string& path);

/// This build's identity: "src-" and 16 hex digits of a SHA-256 over the
/// files under src/, computed by src/obs/CMakeLists.txt. A manifest names
/// the build that recorded it; a replay by a changed build differs.
const char* SourceStamp();

/// Canonical bundle path for a rank: `<dir>/rank<R>.sjrec`.
std::string RecordingBundlePath(const std::string& dir, std::uint32_t rank);

}  // namespace sjoin::obs
