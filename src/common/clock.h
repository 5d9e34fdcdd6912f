// Clock abstraction. The wall-clock node loops (core/runner) read a
// WallClock, backed by std::chrono::steady_clock. The discrete-event
// SimDriver reads no Clock: it advances its own Time values between
// protocol events. VirtualClock is the seam where a deterministic scheduler
// is to drive the real node code on virtual time; nothing reads it yet.
#pragma once

#include <cstdint>

#include "common/time.h"

namespace sjoin {

/// Read-only time source. Implementations must be monotonic.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time in microseconds since the run epoch.
  virtual Time Now() const = 0;
};

/// A manually-advanced clock: its owner moves it forward between protocol
/// events, and the code it times only reads it.
class VirtualClock final : public Clock {
 public:
  explicit VirtualClock(Time start = 0) : now_(start) {}

  Time Now() const override { return now_; }

  /// Moves the clock forward by `d` microseconds. `d` must be >= 0.
  void Advance(Duration d);

  /// Jumps to an absolute time `t`, which must not be in the past.
  void AdvanceTo(Time t);

 private:
  Time now_;
};

/// Monotonic wall clock whose epoch is the moment of construction. Used by
/// the multi-process (socket transport) deployment.
class WallClock final : public Clock {
 public:
  WallClock();

  Time Now() const override;

 private:
  std::int64_t start_ns_;
};

}  // namespace sjoin
