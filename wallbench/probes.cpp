#include "probes.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "common/serialize.h"
#include "net/codec.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace wallbench {

using sjoin::Message;
using sjoin::MsgType;
using sjoin::Rank;

namespace {

std::uint32_t Tid() { return static_cast<std::uint32_t>(syscall(SYS_gettid)); }

std::uint8_t Kind(MsgType t) {
  const auto k = static_cast<std::uint8_t>(t);
  return k < kMaxKinds ? k : 0;
}

/// Tuples in a kTupleBatch payload: its leading little-endian u64 count.
std::uint32_t BatchTuples(const Message& m) {
  if (m.payload.size() < 8) return 0;
  sjoin::Reader r(m.payload);
  return static_cast<std::uint32_t>(r.GetU64());
}

}  // namespace

MeasuredTransport::MeasuredTransport(sjoin::Transport& inner, ClusterShm& shm,
                                     std::uint32_t slaves,
                                     sjoin::obs::MetricsRegistry* registry)
    : inner_(inner),
      shm_(shm),
      me_(shm.rank[inner.Self()]),
      slaves_(slaves),
      traced_(shm.traced != 0),
      registry_(registry) {
  if (registry_ != nullptr) {
    comparisons_ = &registry_->GetCounter("slave_comparisons");
    splits_ = &registry_->GetCounter("group_splits");
  }
}

void MeasuredTransport::Send(Rank to, Message msg) {
  const std::int64_t t0 = NowNs();
  const std::uint8_t kind = Kind(msg.type);
  const std::uint64_t bytes = msg.WireBytes();
  const std::uint64_t flow = msg.parent_span;
  me_.sent_bytes[kind].fetch_add(bytes, std::memory_order_relaxed);

  std::int64_t* sent_slot = nullptr;
  if (Self() == 0) {
    if (msg.type == MsgType::kClockSync && me_.origin_ns == 0) {
      sjoin::Reader r(msg.payload);
      const sjoin::ClockSyncMsg cs = sjoin::DecodeClockSync(r);
      me_.origin_ns = t0 - cs.master_now * 1000;
      shm_.origin_ns.store(me_.origin_ns, std::memory_order_release);
    } else if (msg.type == MsgType::kTupleBatch && slaves_ > 0 && to <= slaves_) {
      const std::uint32_t e = me_.batches_out++ / slaves_;
      if (e < kMaxBatches) {
        me_.epoch_send_ns[e][to] = t0;
        me_.epoch_flow[e][to] = flow;
        sent_slot = &me_.epoch_sent_ns[e][to];
      }
    }
  } else if (Self() <= slaves_) {
    if (msg.type == MsgType::kLoadReport) {
      const std::uint32_t k = me_.batches_in.load(std::memory_order_relaxed);
      if (k > 0 && k <= kMaxBatches) me_.decoded_ns[k - 1] = t0;
    } else if (msg.type == MsgType::kResultStats) {
      // The join thread sends it as soon as its pass over the batch returns.
      const std::uint32_t d = me_.batches_done;
      if (d < kMaxBatches) me_.pass_end_ns[d] = t0;
    } else if (msg.type == MsgType::kMetrics) {
      const std::uint32_t d = me_.batches_done;
      if (d < kMaxBatches) me_.metrics_ns[d] = t0;
      me_.batches_done = d + 1;
      PublishRegistry();
    }
  }

  inner_.Send(to, std::move(msg));
  const std::int64_t t1 = NowNs();
  if (sent_slot != nullptr) *sent_slot = t1;
  me_.send_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
  if (traced_) {
    me_.AddSpan(SpanRec{t0, t1, Tid(), to, bytes, flow, SpanName::kSend, kind});
  }
}

void MeasuredTransport::PublishRegistry() {
  me_.comparisons = comparisons_ != nullptr ? comparisons_->Value() : 0;
  me_.splits = splits_ != nullptr ? splits_->Value() : 0;
  if (!traced_ || registry_ == nullptr) return;
  const auto stages = sjoin::obs::SummarizeWallStages(*registry_);
  std::uint32_t n = 0;
  for (const auto& s : stages) {
    if (n == kMaxStages) break;
    StageRow& row = me_.stages[n++];
    std::snprintf(row.stage, sizeof row.stage, "%s", s.stage.c_str());
    row.count = s.count;
    row.p50_us = s.p50_us;
  }
  me_.stage_count = n;
}

void MeasuredTransport::OnReceived(const Message* msg, Rank peer,
                                   std::int64_t t0, std::int64_t t1) {
  if (Self() == 0) {
    // Every master receive between two epochs' sends waits on that epoch's
    // load reports (other frames are consumed on the way).
    if (me_.batches_out > 0 && slaves_ > 0) {
      const std::uint32_t e = (me_.batches_out - 1) / slaves_;
      if (e < kMaxBatches) me_.report_wait_ns[e] += t1 - t0;
    }
  } else if (Self() <= slaves_ && msg != nullptr &&
             msg->type == MsgType::kTupleBatch) {
    const std::uint32_t k = me_.batches_in.load(std::memory_order_relaxed);
    if (k < kMaxBatches) {
      me_.batch_tuples[k] = BatchTuples(*msg);
      me_.recv_ns[k] = t1;
      me_.batch_flow[k] = msg->parent_span;
    }
    me_.batches_in.store(k + 1, std::memory_order_release);
  }
  if (traced_) {
    me_.AddSpan(SpanRec{t0, t1, Tid(), msg != nullptr ? msg->from : peer,
                        msg != nullptr ? msg->WireBytes() : 0,
                        msg != nullptr ? msg->parent_span : 0,
                        msg != nullptr ? SpanName::kRecv : SpanName::kRecvTimeout,
                        msg != nullptr ? Kind(msg->type) : std::uint8_t{0}});
  }
}

std::optional<Message> MeasuredTransport::Recv() {
  const std::int64_t t0 = NowNs();
  auto m = inner_.Recv();
  OnReceived(m ? &*m : nullptr, 0, t0, NowNs());
  return m;
}

std::optional<Message> MeasuredTransport::RecvFrom(Rank from) {
  const std::int64_t t0 = NowNs();
  auto m = inner_.RecvFrom(from);
  OnReceived(m ? &*m : nullptr, from, t0, NowNs());
  return m;
}

sjoin::RecvResult MeasuredTransport::RecvTimed(sjoin::Duration timeout_us) {
  const std::int64_t t0 = NowNs();
  auto r = inner_.RecvTimed(timeout_us);
  OnReceived(r.Ok() ? &r.msg : nullptr, 0, t0, NowNs());
  return r;
}

sjoin::RecvResult MeasuredTransport::RecvFromTimed(Rank from,
                                                   sjoin::Duration timeout_us) {
  const std::int64_t t0 = NowNs();
  auto r = inner_.RecvFromTimed(from, timeout_us);
  OnReceived(r.Ok() ? &r.msg : nullptr, from, t0, NowNs());
  return r;
}

void BenchSink::OnMatches(const sjoin::Rec& probe,
                          std::span<const sjoin::Time> partner_ts,
                          sjoin::Time produced_at) {
  const std::int64_t now = NowNs();
  const std::uint32_t d = me_.batches_done;
  if (d < kMaxBatches) {
    if (me_.first_out_ns[d] == 0) me_.first_out_ns[d] = now;
    me_.last_out_ns[d] = now;
  }
  const std::uint64_t kh = KeyHash(probe.key);
  sjoin::Time newest_partner = 0;
  std::uint64_t sum = 0;
  for (sjoin::Time pts : partner_ts) {
    sum += probe.stream == 0 ? PairHash(kh, probe.ts, pts)
                             : PairHash(kh, pts, probe.ts);
    newest_partner = std::max(newest_partner, pts);
  }
  me_.digest += sum;
  const std::uint64_t n = partner_ts.size();
  me_.outputs += n;

  if (origin_ns_ == 0) origin_ns_ = shm_.origin_ns.load(std::memory_order_acquire);
  const std::int64_t now_us_ns = now - origin_ns_;  // master clock, in ns
  auto delay = [&](sjoin::Time newer_ts) {
    return static_cast<std::uint64_t>(std::max<std::int64_t>(0, now_us_ns - newer_ts * 1000));
  };
  auto record = [&](sjoin::Time newer, std::uint64_t weight) {
    if (newer >= shm_.fill_us && newer < shm_.delay_end_us) {
      me_.delay_ns.Add(delay(newer), weight);
    }
  };
  if (newest_partner <= probe.ts) {
    // The sink contract: the probe is the newer tuple of every pair.
    record(probe.ts, n);
  } else {
    for (sjoin::Time pts : partner_ts) record(std::max(probe.ts, pts), 1);
  }
  me_.stamp_gap_ns.Add(delay(produced_at), n);
}

}  // namespace wallbench
