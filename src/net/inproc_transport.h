// In-process transport: one mutex+condvar mailbox per rank. Endpoints are
// handed to node threads; Send never blocks (the mailbox is unbounded, so
// unlike a socket's send buffer nothing here bounds outstanding data: a
// checkpoint segment can be any size). A receive waits at most the given
// number of microseconds (0 = non-blocking poll, negative = until a message
// or hub shutdown).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "net/net_instrument.h"
#include "net/transport.h"

namespace sjoin {

class InProcHub;

class InProcEndpoint final : public Transport {
 public:
  InProcEndpoint(InProcHub* hub, Rank self) : hub_(hub), self_(self) {}

  Rank Self() const override { return self_; }
  void Send(Rank to, Message msg) override;
  RecvResult RecvTimed(Duration timeout_us) override;
  RecvResult RecvFromTimed(Rank from, Duration timeout_us) override;
  void AttachMetrics(obs::MetricsRegistry* registry) override {
    instr_.Attach(registry);
  }

 private:
  InProcHub* hub_;
  Rank self_;
  std::deque<Message> stash_;  // messages deferred by RecvFromTimed
  NetInstrument instr_;
};

/// Owns the mailboxes of a fixed-size rank space. Create it first, then one
/// endpoint per node thread. Thread-safe.
class InProcHub {
 public:
  explicit InProcHub(Rank num_ranks);

  std::unique_ptr<InProcEndpoint> Endpoint(Rank self);

  /// Wakes every blocked Recv with "shut down" (after draining).
  void Shutdown();

 private:
  friend class InProcEndpoint;

  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> queue;
  };

  void Push(Rank to, Message msg);

  /// Timed pop: kTimeout after `timeout_us` with an empty mailbox (0 polls,
  /// negative waits forever), kClosed after Shutdown() drained the queue.
  RecvResult PopTimed(Rank self, Duration timeout_us);

  bool Down() const { return down_.load(std::memory_order_acquire); }

  std::vector<std::unique_ptr<Mailbox>> boxes_;
  std::atomic<bool> down_{false};
};

}  // namespace sjoin
