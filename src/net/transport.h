// Transport abstraction: MPI-like blocking point-to-point message passing.
//
// The paper's algorithm only ever needs blocking send/recv over persistent
// pairwise connections used in a fixed, predefined order -- precisely the
// primitives below. Implementations:
//   * InProcTransport (inproc_transport.h): bounded in-process channels
//     between threads, for integration tests of the wall-clock runners;
//   * SocketTransport (socket_transport.h): real AF_UNIX sockets between
//     forked OS processes -- the multi-process shared-nothing deployment;
//   * FaultTransport (fault_transport.h): a decorator over either of the
//     above that injects deterministic, seeded faults (delay, reordering
//     across peers, duplication, drop-with-retransmit, peer crash/hang) for
//     chaos testing the epoch protocol.
//
// The timed receive variants exist because a perfectly reliable network is a
// fiction at production scale: a wedged peer must not block its partners
// forever. The master uses them to bound every protocol wait and to reach a
// dead-slave verdict (see core/runner.h).
#pragma once

#include <optional>
#include <utility>

#include "common/time.h"
#include "net/message.h"

namespace sjoin::obs {
class MetricsRegistry;
}  // namespace sjoin::obs

namespace sjoin {

/// Outcome of a timed receive.
enum class RecvStatus : std::uint8_t {
  kOk,       ///< a message was delivered
  kTimeout,  ///< the timeout elapsed with no eligible message
  kClosed,   ///< the transport (or the requested peer) is gone for good
};

struct RecvResult {
  RecvStatus status = RecvStatus::kClosed;
  Message msg;  ///< valid only when status == kOk

  bool Ok() const { return status == RecvStatus::kOk; }
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// This endpoint's rank.
  virtual Rank Self() const = 0;

  /// Blocking send to `to`. `msg.from` is stamped with Self(). Sending to a
  /// peer that is known to be gone is a silent no-op (the epoch protocol
  /// handles missing replies via timeouts, not send failures).
  virtual void Send(Rank to, Message msg) = 0;

  // Untimed receives: each is its timed form with a negative timeout, and no
  // transport defines them again. They stay virtual only because a
  // measuring decorator outside src/ (wallbench/probes.h MeasuredTransport)
  // times each call as the node makes it.

  /// Blocking receive from any peer (the `from` field identifies the
  /// sender). Returns nullopt when the transport is shut down.
  virtual std::optional<Message> Recv() { return Untimed(RecvTimed(-1)); }

  /// Blocking receive of the next message *from a specific peer*; messages
  /// from other peers arriving meanwhile are queued and delivered by later
  /// calls. This is the primitive the paper's fixed communication sequence
  /// relies on.
  virtual std::optional<Message> RecvFrom(Rank from) {
    return Untimed(RecvFromTimed(from, -1));
  }

  // Timed receives. Every implementation honors one timeout contract
  // (asserted across all transports by tests/net/transport_conformance_test):
  //   * timeout_us < 0  -- wait forever (what Recv/RecvFrom do);
  //   * timeout_us == 0 -- non-blocking poll: deliver a message that is
  //     already queued/readable (RecvFromTimed drains and stashes ineligible
  //     senders while hunting), otherwise return kTimeout without waiting;
  //   * timeout_us > 0  -- wait at least `timeout_us` microseconds before
  //     giving up (implementations may round up, never down); a spuriously
  //     woken wait resumes for the remainder.
  // kClosed is returned only once the transport is shut down (or the
  // requested peer is gone for good) AND no eligible message remains --
  // shutdown never discards deliverable messages.

  /// Timed receive from any peer (contract above).
  virtual RecvResult RecvTimed(Duration timeout_us) = 0;

  /// Timed receive from a specific peer (contract above). Messages from
  /// other peers arriving meanwhile are stashed for later delivery (they do
  /// not reset the timeout).
  virtual RecvResult RecvFromTimed(Rank from, Duration timeout_us) = 0;

  /// Starts counting per-peer, per-kind traffic into `registry` (see
  /// net/net_instrument.h). Call before the node's threads start; when a
  /// decorator wraps this transport, attach at the outermost layer only.
  /// Default: no-op (the transport stays uninstrumented).
  virtual void AttachMetrics(obs::MetricsRegistry* registry) {
    (void)registry;
  }

 private:
  /// An endless wait ends only with a message or closure.
  static std::optional<Message> Untimed(RecvResult res) {
    if (!res.Ok()) return std::nullopt;
    return std::move(res.msg);
  }
};

}  // namespace sjoin
