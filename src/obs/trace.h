// TraceSink: structured trace events on the virtual timeline, exported as
// Chrome trace_event JSON (load the file in chrome://tracing or
// https://ui.perfetto.dev).
//
// Every event is stamped with *virtual* time (microseconds -- conveniently
// also the trace_event unit): the SimDriver stamps true virtual-clock spans
// (a join span's dur is the charged CostModel cost), while the wall-clock
// runners stamp the logical epoch timeline (epoch k's events carry
// ts = k * t_dist) so that a seeded chaos run produces a byte-identical
// trace regardless of thread scheduling. Wall-clock durations never enter a
// trace.
//
// Event identity: pid = rank (0 master, 1..N slaves, N+1 collector),
// tid = 0. Args are integer-valued only (floats would force a formatting
// choice into the determinism contract).
//
// Every emit, traced or not, lands under the sink's mutex in a ring of the
// node's kRingEvents most recent events: the post-mortem `Dump` a failed
// chaos seed or an eviction verdict leaves behind (DESIGN.md "Distributed
// tracing & flight recorder"). An enabled sink also appends the event to
// the exported list (traces are for test/debug runs, not the steady-state
// hot path).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"

namespace sjoin::obs {

/// Node rank (same convention as sjoin::Rank in net/message.h; redeclared so
/// obs stays below net in the layering).
using Rank = std::uint32_t;

/// Integer-only args keep JSON formatting (and hence byte-level trace
/// determinism) trivial.
using TraceArgs = std::vector<std::pair<std::string, std::int64_t>>;

struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'i';   ///< 'X' complete, 'B'/'E' span, 'i' instant, 's'/'f' flow
  Time ts = 0;     ///< virtual microseconds
  Duration dur = 0;  ///< 'X' only
  Rank pid = 0;    ///< rank
  std::uint32_t tid = 0;
  std::uint64_t seq = 0;  ///< per-sink emission ordinal (stable tiebreak)
  std::uint64_t id = 0;   ///< flow binding id ('s'/'f' only)
  TraceArgs args;
};

class TraceSink {
 public:
  /// Events the ring keeps: the node's most recent, traced or not.
  static constexpr std::size_t kRingEvents = 256;

  explicit TraceSink(bool enabled = false) : enabled_(enabled) {}

  bool Enabled() const { return enabled_; }
  void SetEnabled(bool on) { enabled_ = on; }

  /// Default rank stamped on events (settable once at node start).
  void SetRank(Rank rank) { rank_ = rank; }

  void Complete(std::string name, std::string cat, Time ts, Duration dur,
                TraceArgs args = {}) {
    Emit('X', std::move(name), std::move(cat), ts, dur, 0, std::move(args));
  }
  void Begin(std::string name, std::string cat, Time ts, TraceArgs args = {}) {
    Emit('B', std::move(name), std::move(cat), ts, 0, 0, std::move(args));
  }
  void End(std::string name, std::string cat, Time ts) {
    Emit('E', std::move(name), std::move(cat), ts, 0, 0, {});
  }
  void Instant(std::string name, std::string cat, Time ts,
               TraceArgs args = {}) {
    Emit('i', std::move(name), std::move(cat), ts, 0, 0, std::move(args));
  }

  /// Flow start ('s'): emitted inside the span that causes a cross-rank
  /// send; `id` binds it to the matching FlowFinish at the receiver.
  void FlowStart(std::string name, std::string cat, Time ts, std::uint64_t id,
                 TraceArgs args = {}) {
    Emit('s', std::move(name), std::move(cat), ts, 0, id, std::move(args));
  }

  /// Flow finish ('f', bp="e"): emitted inside the child span the receiver
  /// opened for the message whose sender stamped flow `id`.
  void FlowFinish(std::string name, std::string cat, Time ts, std::uint64_t id,
                  TraceArgs args = {}) {
    Emit('f', std::move(name), std::move(cat), ts, 0, id, std::move(args));
  }

  /// Deterministic span/flow id: (rank << 32) | per-sink ordinal, so ids are
  /// unique across ranks and byte-identical across same-seed runs. Never
  /// returns 0 (0 means "no context" in the wire frame header).
  std::uint64_t NextSpanId();

  /// The exported events: every event emitted while enabled.
  std::vector<TraceEvent> Events() const;
  std::size_t EventCount() const;

  /// The ring's events, oldest first (at most kRingEvents).
  std::vector<TraceEvent> Recent() const;

  /// The ring as plain text, oldest first: a header line with the retained
  /// and dropped counts, then one "vt=<ts> seq=<n> <name> k=v ..." line per
  /// event. Logical timestamps make same-seed dumps compare line by line.
  std::string Dump() const;

 private:
  void Emit(char ph, std::string name, std::string cat, Time ts, Duration dur,
            std::uint64_t id, TraceArgs args);

  bool enabled_;
  Rank rank_ = 0;
  mutable std::mutex mu_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_span_ = 0;
  std::vector<TraceEvent> events_;
  std::vector<TraceEvent> ring_;  ///< grows to kRingEvents, then wraps
  std::size_t head_ = 0;          ///< the oldest event once the ring is full
};

/// Merges per-rank event streams into one deterministic trace: stable-sorted
/// by (ts, pid, seq). Each rank's stream must itself be deterministically
/// ordered (single emitting thread), which the runners guarantee.
std::vector<TraceEvent> MergeTraces(
    std::span<const TraceSink* const> sinks);

/// Chrome trace_event "JSON array format". Deterministic byte-for-byte for
/// a deterministic event list.
std::string ExportChromeJson(std::span<const TraceEvent> events);

}  // namespace sjoin::obs
