// Workloads, their seeded input traces, and the reference join the cluster's
// output is checked against.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/config.h"
#include "tuple/tuple.h"

namespace wallbench {

/// A stretch of the input schedule at one offered rate (0 = no input).
struct Phase {
  double rate_tps = 0;  ///< both streams together
  sjoin::Duration duration_us = 0;
};

/// A stretch of the schedule [start_us, end_us).
struct Span {
  sjoin::Duration start_us = 0;
  sjoin::Duration end_us = 0;
};

struct Workload {
  std::string name;
  std::uint32_t slaves = 1;
  std::uint32_t workers = 1;
  std::vector<Phase> phases;      ///< the input schedule, in order
  sjoin::Duration window_us = 0;
  bool replication = false;
  sjoin::Duration grace_us = 0;   ///< deadline after the input ends
  /// Cluster runs over the trace, each with fresh processes; the end-to-end
  /// figures pool them.
  int runs = 1;
  /// Where capacity_tps is measured: a stretch of the schedule that starts
  /// with the window full.
  Span capacity;
  /// Delays count outputs whose newer input is scheduled in here (the window
  /// is full at its start).
  Span delay;
};

inline constexpr sjoin::Duration kEpochUs = 100'000;  // t_dist
inline constexpr double kBSkew = 0.7;
inline constexpr std::uint64_t kKeyDomain = 10'000'000;

/// The named workload, sized for `seconds` of measurement once its window is
/// full. Throws on an unknown name.
Workload MakeWorkload(const std::string& name, int seconds);

/// The cluster configuration every run of `w` uses.
sjoin::SystemConfig MakeConfig(const Workload& w, std::uint64_t seed);

/// Per phase, two Poisson streams of rate_tps/2 each, keys from the b-model,
/// merged in timestamp order. Gaps are drawn in fractional microseconds, so several
/// tuples may share a microsecond. The vector's pages are excluded from
/// fork(): node processes never map the input.
std::vector<sjoin::Rec> GenerateTrace(const Workload& w, std::uint64_t seed);

struct ReferenceResult {
  std::uint64_t outputs = 0;
  std::uint64_t digest = 0;
  double seconds = 0;  ///< the join's own run time
};

/// Single-threaded hash join over the trace: every cross-stream pair with
/// equal keys and |ts0 - ts1| <= window, counted and digested like the
/// benchmark sink does.
ReferenceResult ReferenceJoin(std::span<const sjoin::Rec> trace,
                              sjoin::Duration window);

}  // namespace wallbench
