// FlightRecorder: a fixed-size ring buffer of recent protocol, fault, and
// membership events per process -- the "black box" a failed chaos seed
// ships with (DESIGN.md "Distributed tracing & flight recorder").
//
// Unlike the trace sink (which records everything and is only enabled for
// traced runs), the flight recorder is always cheap enough to leave on: a
// bounded ring of small structs, appended under a mutex from the runner's
// protocol paths. When something goes wrong -- a chaos output diff, a
// tripped invariant, a dead-slave verdict -- the last `capacity` events are
// dumped as plain text, newest last, so the triage bundle shows what the
// process saw right before the failure without re-running the seed.
//
// Events are stamped with *virtual* time where the caller has it (the
// runner's logical epoch timeline), so dumps from same-seed runs are
// comparable line by line. The ring never allocates after construction
// beyond the event strings themselves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/time.h"

namespace sjoin::obs {

struct FlightEvent {
  Time vt = 0;           ///< logical instant (virtual us); 0 when unknown
  std::uint64_t seq = 0;  ///< monotone per-process ordinal
  std::string kind;      ///< short category, e.g. "failover", "member_join"
  std::string detail;    ///< free-form context, e.g. "slave=2 replay_from=4"
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 256);

  /// Resize the ring (drops recorded events; the node runners call it once
  /// at node start).
  void SetCapacity(std::size_t capacity);
  std::size_t Capacity() const;

  void Record(Time vt, std::string kind, std::string detail = "");

  /// Events currently in the ring, oldest first.
  std::vector<FlightEvent> Events() const;

  /// Total events ever recorded (>= Events().size(); the difference is how
  /// many the ring has already forgotten).
  std::uint64_t TotalRecorded() const;

  /// Plain-text dump, one event per line, oldest first:
  ///   "vt=<us> seq=<n> <kind> <detail>"
  /// preceded by a header line with the drop count.
  std::string Dump() const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
  std::size_t head_ = 0;          // index of the oldest event when full
  std::vector<FlightEvent> ring_;  // grows to capacity_, then wraps
};

}  // namespace sjoin::obs
