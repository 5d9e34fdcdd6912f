#include "net/fault_transport.h"

#include <algorithm>

namespace sjoin {

namespace {

/// Control messages the protocol is required to handle idempotently; only
/// these are eligible for duplicate injection. Duplicating kTupleBatch would
/// demand application-level batch dedup the paper's protocol does not carry,
/// and duplicating kResultStats would double-count collector aggregates.
bool DupEligible(MsgType type) {
  return type == MsgType::kAck || type == MsgType::kLoadReport ||
         type == MsgType::kStateTransfer || type == MsgType::kCheckpoint ||
         type == MsgType::kCheckpointAck;
}

/// The slice granularity of the pump loop: long enough to stay off the CPU,
/// short enough to notice held-message releases promptly.
constexpr Duration kMaxSliceUs = 20 * kUsPerMs;

}  // namespace

FaultEndpoint::FaultEndpoint(std::unique_ptr<Transport> inner,
                             const FaultConfig& cfg)
    : inner_(std::move(inner)), cfg_(cfg) {}

FaultEndpoint::Channel& FaultEndpoint::ChannelOf(Rank from) {
  auto it = channels_.find(from);
  if (it == channels_.end()) {
    // One deterministic PCG stream per (receiver, sender) channel.
    const std::uint64_t s =
        Mix64(cfg_.seed ^ (static_cast<std::uint64_t>(Self()) << 32) ^ from);
    it = channels_.emplace(from, Channel(Pcg32(s, from + 1))).first;
  }
  return it->second;
}

void FaultEndpoint::Ingest(Message msg) {
  if (Self() == cfg_.crash_rank && msg.type == MsgType::kTupleBatch) {
    if (++batches_seen_ >= cfg_.crash_after_batches) {
      // Death: everything undelivered is lost with the process.
      dead_.store(true);
      channels_.clear();
      ready_.clear();
      return;
    }
  }

  if (msg.type == MsgType::kMetrics) {
    // Telemetry is out-of-band: it must not perturb the fault schedule.
    // Consuming PCG draws for kMetrics would make an instrumented run
    // inject different faults than a bare one, and the sender's join thread
    // races against its comm thread on the same channel, so the draws would
    // also differ between same-seed runs. Deliver in FIFO position (behind
    // any held messages on the channel) without touching the RNG or the
    // fault counters.
    Channel& ch = ChannelOf(msg.from);
    if (ch.holding.empty()) {
      ready_.push_back(std::move(msg));
    } else {
      ch.holding.push_back(Held{std::move(msg), clock_.Now()});
    }
    return;
  }

  Channel& ch = ChannelOf(msg.from);
  Duration hold = 0;
  if (cfg_.drop_prob > 0 && ch.rng.NextDouble() < cfg_.drop_prob) {
    hold = cfg_.retransmit_delay_us;
    ++stats_.retransmitted;
  } else if (cfg_.delay_prob > 0 && ch.rng.NextDouble() < cfg_.delay_prob) {
    const Duration spread = cfg_.delay_max_us - cfg_.delay_min_us;
    hold = cfg_.delay_min_us +
           (spread > 0 ? static_cast<Duration>(ch.rng.NextBounded(
                             static_cast<std::uint32_t>(spread + 1)))
                       : 0);
    ++stats_.delayed;
  }
  const bool dup = cfg_.duplicate_prob > 0 && DupEligible(msg.type) &&
                   ch.rng.NextDouble() < cfg_.duplicate_prob;
  if (dup) ++stats_.duplicated;

  Message copy;
  if (dup) copy = msg;
  if (hold == 0 && ch.holding.empty()) {
    ready_.push_back(std::move(msg));
    if (dup) ready_.push_back(std::move(copy));  // copy follows the original
    return;
  }
  const Time release = clock_.Now() + hold;
  ch.holding.push_back(Held{std::move(msg), release});
  if (dup) ch.holding.push_back(Held{std::move(copy), release});
}

void FaultEndpoint::ReleaseDue() {
  const Time now = clock_.Now();
  for (auto& kv : channels_) {
    Channel& ch = kv.second;
    while (!ch.holding.empty() && ch.holding.front().release_at <= now) {
      ready_.push_back(std::move(ch.holding.front().msg));
      ch.holding.pop_front();
    }
  }
}

Duration FaultEndpoint::NextReleaseDelay() const {
  Time earliest = -1;
  for (const auto& kv : channels_) {
    const Channel& ch = kv.second;
    if (ch.holding.empty()) continue;
    const Time t = ch.holding.front().release_at;
    if (earliest < 0 || t < earliest) earliest = t;
  }
  if (earliest < 0) return -1;
  return std::max<Duration>(0, earliest - clock_.Now());
}

RecvResult FaultEndpoint::TakeReady(bool any, Rank from) {
  for (auto it = ready_.begin(); it != ready_.end(); ++it) {
    if (!any && it->from != from) continue;
    RecvResult res{RecvStatus::kOk, std::move(*it)};
    ready_.erase(it);
    // kMetrics stays out of the legacy fault counters (see Ingest); it is
    // still visible to the registry-backed NetInstrument below. Checkpoint
    // acks are counted separately: whether a late ack beats the shutdown
    // barrier is a wall race, so folding them into `delivered` would make
    // same-seed summaries diverge.
    if (res.msg.type == MsgType::kCheckpointAck) {
      ++stats_.delivered_acks;
    } else if (res.msg.type != MsgType::kMetrics) {
      ++stats_.delivered;
    }
    instr_.OnRecv(res.msg.from, res.msg);
    return res;
  }
  return RecvResult{RecvStatus::kTimeout, {}};
}

RecvResult FaultEndpoint::Pump(bool any, Rank from, Duration timeout_us) {
  const Time deadline = timeout_us < 0 ? -1 : clock_.Now() + timeout_us;
  while (true) {
    if (dead_.load()) {
      if (!cfg_.crash_hang) return RecvResult{RecvStatus::kClosed, {}};
      // Hang: swallow everything until the inner transport is torn down.
      while (true) {
        RecvResult res = inner_->RecvTimed(kMaxSliceUs);
        if (res.status == RecvStatus::kClosed) return res;
      }
    }

    ReleaseDue();
    if (RecvResult hit = TakeReady(any, from); hit.Ok()) return hit;

    Duration left = -1;
    if (timeout_us == 0) {
      // Zero timeout: non-blocking poll -- drain whatever the inner
      // transport already holds (plus holds already due), never wait.
      left = 0;
    } else if (deadline >= 0) {
      left = deadline - clock_.Now();
      if (left < 0) return RecvResult{RecvStatus::kTimeout, {}};
    }
    Duration slice = kMaxSliceUs;
    if (left == 0) {
      slice = 0;
    } else {
      if (left > 0) slice = std::min(slice, left + 1);
      const Duration next_release = NextReleaseDelay();
      if (next_release >= 0) slice = std::min(slice, next_release + 1);
    }

    RecvResult res = inner_->RecvTimed(slice);
    if (res.status == RecvStatus::kClosed) return res;
    if (res.Ok()) {
      Ingest(std::move(res.msg));
      continue;
    }
    // Inner slice expired. An exhausted poll (left == 0) must not loop: the
    // clock need not advance between non-blocking polls, so looping could
    // never terminate. Release anything due right now, scan once more, and
    // report the timeout.
    if (left == 0) {
      ReleaseDue();
      if (RecvResult hit = TakeReady(any, from); hit.Ok()) return hit;
      return RecvResult{RecvStatus::kTimeout, {}};
    }
    // On slice timeout: loop to release due messages / re-check deadline.
  }
}

void FaultEndpoint::Send(Rank to, Message msg) {
  if (dead_.load()) {
    swallowed_sends_.fetch_add(1);
    return;
  }
  if (Self() == cfg_.crash_rank && cfg_.crash_after_checkpoint_sends > 0 &&
      msg.type == MsgType::kCheckpoint &&
      ckpt_sends_.fetch_add(1) + 1 >= cfg_.crash_after_checkpoint_sends) {
    // Mid-sweep death: the triggering segment goes down with the node. Only
    // the dead_ flag is touched here -- Send races with the receive thread,
    // which drops its queues on its own once it observes the flag.
    dead_.store(true);
    swallowed_sends_.fetch_add(1);
    return;
  }
  instr_.OnSend(to, msg);
  inner_->Send(to, std::move(msg));
}

RecvResult FaultEndpoint::RecvTimed(Duration timeout_us) {
  return Pump(/*any=*/true, 0, timeout_us);
}

RecvResult FaultEndpoint::RecvFromTimed(Rank from, Duration timeout_us) {
  return Pump(/*any=*/false, from, timeout_us);
}

}  // namespace sjoin
