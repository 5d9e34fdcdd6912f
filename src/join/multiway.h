// Multiway (n-stream) sliding-window equi-join.
//
// Section II of the paper defines the operator over n streams: the output
// of S1[W1] |><| ... |><| Sn[Wn] on attribute A is every composite tuple
// (s1, ..., sn) with equal keys such that, at the arrival instant of the
// *newest* component s_i, every other component s_k still lies within its
// stream's window W_k (i.e. s_i.t - s_k.t <= W_k). The evaluation section
// studies n = 2; this module implements the general operator as a
// single-node library component so n-way queries can run atop the same
// window substrate (per-key probe index, temporal block storage, BNL cost
// accounting).
//
// Processing is symmetric and tuple-granular: an arriving tuple probes the
// sealed state of every other stream and is then sealed itself, which emits
// every composite exactly once (at its newest component).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "window/mini_partition.h"

namespace sjoin {

/// One composite output: the timestamps of all n components (same key),
/// index == stream id. `newest` is the stream of the tuple whose arrival
/// produced the composite.
struct MultiJoinOutput {
  std::uint64_t key = 0;
  std::vector<Time> component_ts;
  StreamId newest = 0;
  Time produced_at = 0;
};

class MultiJoinSink {
 public:
  virtual ~MultiJoinSink() = default;
  virtual void OnComposite(const MultiJoinOutput& out) = 0;
};

/// Collects all composites (tests / small workloads).
class MultiCollectSink final : public MultiJoinSink {
 public:
  void OnComposite(const MultiJoinOutput& out) override {
    outputs_.push_back(out);
  }
  const std::vector<MultiJoinOutput>& Outputs() const { return outputs_; }

 private:
  std::vector<MultiJoinOutput> outputs_;
};

/// Counts composites and aggregates production delay.
class MultiStatsSink final : public MultiJoinSink {
 public:
  void OnComposite(const MultiJoinOutput& out) override;
  std::uint64_t Count() const { return delay_us_.Count(); }
  const RunningStat& DelayUs() const { return delay_us_; }

 private:
  RunningStat delay_us_;
};

class MultiwayJoinModule {
 public:
  /// `windows[k]` is W_k for stream k (n = windows.size() >= 2); tuples
  /// carry stream ids in [0, n).
  MultiwayJoinModule(std::vector<Duration> windows,
                     std::size_t block_capacity, MultiJoinSink* sink);

  /// Processes one tuple (global ts order across all streams) at virtual
  /// time `now`; returns the number of composites emitted.
  std::size_t Process(const Rec& rec, Time now);

  std::uint64_t Comparisons() const { return comparisons_; }
  std::uint64_t Composites() const { return composites_; }
  std::size_t WindowTuples() const;

 private:
  void Expire(Time latest);

  std::vector<Duration> windows_;
  std::vector<std::unique_ptr<MiniPartition>> parts_;
  MultiJoinSink* sink_;
  std::uint64_t comparisons_ = 0;
  std::uint64_t composites_ = 0;
  Time latest_ts_ = 0;
  /// One ProbeSealed scratch per stream: a probe holds every other
  /// stream's matches at once while it enumerates their cross product.
  std::vector<std::vector<Time>> probe_scratch_;
};

/// Ground truth for tests: all composites of the declarative n-way window
/// join, sorted by (key, component timestamps).
std::vector<MultiJoinOutput> ReferenceMultiwayJoin(
    std::span<const Rec> all, std::span<const Duration> windows);

}  // namespace sjoin
