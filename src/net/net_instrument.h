// NetInstrument: per-peer, per-message-kind traffic counters for a
// Transport endpoint.
//
// Every transport owns one (dormant until AttachMetrics is called -- the
// common un-instrumented path costs a single pointer test per send/recv).
// Four counter families, labeled {peer, kind}:
//   net_sent_msgs / net_sent_bytes  -- frames this endpoint put on the wire
//   net_recv_msgs / net_recv_bytes  -- frames actually delivered to the node
// Bytes are Message::WireBytes() -- the exact codec frame size (asserted by
// tests/net/net_metrics_test.cpp).
//
// All four families are registered kVolatile: which epoch a receive (or a
// timeout-triggered retransmission) lands in depends on wall scheduling, so
// they are excluded from the per-epoch deterministic snapshots and only
// appear in end-of-run exports.
//
// When a decorator wraps an inner transport (FaultEndpoint), attach at the
// *outermost* layer only; attaching at two layers double-counts.
#pragma once

#include <map>
#include <mutex>
#include <tuple>

#include "net/message.h"
#include "obs/metrics.h"

namespace sjoin {

class NetInstrument {
 public:
  /// Idempotent; nullptr detaches. Not thread-safe against concurrent
  /// OnSend/OnRecv -- attach before the node's threads start.
  void Attach(obs::MetricsRegistry* registry);

  void OnSend(Rank peer, const Message& msg) {
    if (registry_) Count(/*send=*/true, peer, msg);
  }
  void OnRecv(Rank peer, const Message& msg) {
    if (registry_) Count(/*send=*/false, peer, msg);
  }

 private:
  struct Counters {
    obs::Counter* msgs = nullptr;
    obs::Counter* bytes = nullptr;
  };

  void Count(bool send, Rank peer, const Message& msg);

  obs::MetricsRegistry* registry_ = nullptr;
  std::mutex mu_;  // guards cache_ (first touch of a (dir, peer, kind))
  std::map<std::tuple<bool, Rank, std::uint8_t>, Counters> cache_;
};

}  // namespace sjoin
