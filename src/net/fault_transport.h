// FaultTransport: a decorator over any Transport that injects deterministic,
// seeded faults on the receive path. It exists to *prove* the epoch protocol
// survives the conditions the paper assumes away: slow links, reordered
// deliveries across peers, duplicated control messages, transient drops, and
// outright peer death. The chaos harness (tests/harness/chaos_harness.h)
// drives full clusters through these schedules.
//
// Fault model (see DESIGN.md "Fault model"):
//   * delay        -- a message is held for a sampled duration. Held
//                     messages keep per-channel FIFO order (head-of-line),
//                     so delays reorder deliveries *across* peers but never
//                     within one sender's stream -- exactly what a slow but
//                     order-preserving connection does.
//   * duplicate    -- an extra copy of a control message (kAck, kLoadReport,
//                     kStateTransfer, kCheckpoint, kCheckpointAck: the types
//                     the protocol must handle idempotently) is delivered
//                     right after the original.
//   * drop+retx    -- the first transmission vanishes; a bounded
//                     retransmission arrives `retransmit_delay_us` later.
//                     Messages are never lost permanently (that would be a
//                     different protocol); permanent loss is modeled by
//                     peer crash instead.
//   * crash / hang -- the decorated endpoint dies upon receiving its N-th
//                     kTupleBatch: all undelivered messages are discarded,
//                     subsequent sends are swallowed, and receives either
//                     report kClosed immediately (crash) or block until the
//                     inner transport shuts down (hang).
//
// Determinism: every fault decision is drawn from a per-channel PCG stream
// seeded by (seed, receiver, sender) and consumed in per-channel arrival
// order, which the inner transports guarantee is the sender's send order.
// Two runs with the same seed therefore inject the same faults on the same
// messages, independent of thread scheduling.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>

#include "common/clock.h"
#include "common/rng.h"
#include "net/net_instrument.h"
#include "net/transport.h"

namespace sjoin {

struct FaultConfig {
  static constexpr Rank kNoCrashRank = 0xFFFFFFFFu;

  /// Root seed of the fault schedule.
  std::uint64_t seed = 1;

  /// P(hold a message) and the held duration range, sampled uniformly.
  double delay_prob = 0.0;
  Duration delay_min_us = 1 * kUsPerMs;
  Duration delay_max_us = 10 * kUsPerMs;

  /// P(deliver an extra copy) of kAck / kLoadReport / kStateTransfer /
  /// kCheckpoint / kCheckpointAck.
  double duplicate_prob = 0.0;

  /// P(first transmission dropped); the retransmission arrives after
  /// `retransmit_delay_us` (bounded drop-with-retransmit).
  double drop_prob = 0.0;
  Duration retransmit_delay_us = 5 * kUsPerMs;

  /// Rank whose endpoint dies upon receiving its `crash_after_batches`-th
  /// kTupleBatch (so the death lands at a chosen distribution epoch).
  /// kNoCrashRank disables.
  Rank crash_rank = kNoCrashRank;
  std::uint64_t crash_after_batches = 0;

  /// false: death is visible to the local node (receives report kClosed, the
  /// node exits). true: the node hangs -- receives block forever and sends
  /// vanish, the worst case for its peers.
  bool crash_hang = false;

  /// `crash_rank` dies upon attempting its N-th kCheckpoint *send* instead
  /// of on batch receipt (0 disables): the mid-checkpoint-sweep crash. The
  /// triggering segment is swallowed with the node, so a buddy holds either
  /// the previous consistent segment or the new one -- never a torn one.
  std::uint64_t crash_after_checkpoint_sends = 0;
};

/// Deterministic per-endpoint fault counters (what was injected, not what
/// the cluster made of it). kMetrics telemetry frames bypass fault
/// injection entirely and are excluded here, so the counters match between
/// instrumented and bare runs. Checkpoint acks land in `delivered_acks`
/// instead of `delivered`: whether a late ack beats the shutdown barrier is
/// a wall race, so only the ack-free count is same-seed deterministic.
struct FaultStats {
  std::uint64_t delivered = 0;       ///< messages handed to the node (no acks)
  std::uint64_t delivered_acks = 0;  ///< kCheckpointAck deliveries (wall-racy)
  std::uint64_t delayed = 0;         ///< messages held by the delay fault
  std::uint64_t duplicated = 0;      ///< extra copies injected
  std::uint64_t retransmitted = 0;   ///< first transmissions dropped
};

class FaultEndpoint final : public Transport {
 public:
  FaultEndpoint(std::unique_ptr<Transport> inner, const FaultConfig& cfg);

  Rank Self() const override { return inner_->Self(); }
  void Send(Rank to, Message msg) override;
  RecvResult RecvTimed(Duration timeout_us) override;
  RecvResult RecvFromTimed(Rank from, Duration timeout_us) override;

  /// Counts at this (outermost) layer: receives as the node saw them
  /// post-fault (duplicates included, swallowed messages not), sends that
  /// were actually forwarded. The inner transport stays uninstrumented.
  void AttachMetrics(obs::MetricsRegistry* registry) override {
    instr_.Attach(registry);
  }

  /// Receive-side fault counters; read after the node's threads stopped.
  const FaultStats& Stats() const { return stats_; }

  /// Sends swallowed after this endpoint's death.
  std::uint64_t SwallowedSends() const { return swallowed_sends_.load(); }

  bool Dead() const { return dead_.load(); }

 private:
  struct Held {
    Message msg;
    Time release_at = 0;
  };
  struct Channel {
    Pcg32 rng;
    std::deque<Held> holding;  // FIFO; head released first
    explicit Channel(Pcg32 r) : rng(r) {}
  };

  Channel& ChannelOf(Rank from);

  /// Applies the fault decision to a message pulled from the inner
  /// transport: routes it to `ready_` or a channel's holding queue, injects
  /// duplicates, and triggers death on the configured kTupleBatch.
  void Ingest(Message msg);

  /// Moves every due holding-queue head to `ready_` (FIFO per channel).
  void ReleaseDue();

  /// Earliest pending release, or -1 when nothing is held.
  Duration NextReleaseDelay() const;

  /// Shared implementation of both timed receives. `timeout_us < 0` waits
  /// forever; `any` ignores `from`.
  RecvResult Pump(bool any, Rank from, Duration timeout_us);

  /// Pops the first ready_ message matching the (any, from) filter, doing
  /// the delivery bookkeeping. kTimeout status when none is eligible.
  RecvResult TakeReady(bool any, Rank from);

  std::unique_ptr<Transport> inner_;
  const FaultConfig cfg_;
  WallClock clock_;
  std::map<Rank, Channel> channels_;
  std::deque<Message> ready_;  // released, undelivered messages
  std::uint64_t batches_seen_ = 0;
  std::atomic<std::uint64_t> ckpt_sends_{0};
  FaultStats stats_;
  std::atomic<bool> dead_{false};
  std::atomic<std::uint64_t> swallowed_sends_{0};
  NetInstrument instr_;
};

}  // namespace sjoin
