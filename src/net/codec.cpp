#include "net/codec.h"

namespace sjoin {

void Encode(Writer& w, const TupleBatchMsg& m, std::size_t tuple_bytes) {
  const std::span<const Rec> run = m.recs;
  EncodeTupleBatch(w, {&run, 1}, tuple_bytes);
}

void EncodeTupleBatch(Writer& w, std::span<const std::span<const Rec>> runs,
                      std::size_t tuple_bytes) {
  std::uint64_t n = 0;
  for (std::span<const Rec> run : runs) n += run.size();
  w.PutU64(n);
  for (std::span<const Rec> run : runs) {
    for (const Rec& rec : run) EncodeRec(w, rec, tuple_bytes);
  }
}

TupleBatchMsg DecodeTupleBatch(Reader& r, std::size_t tuple_bytes) {
  TupleBatchMsg m;
  std::uint64_t n = r.GetU64();
  if (n > r.Remaining() / tuple_bytes) {
    throw DecodeError("tuple batch count exceeds payload");
  }
  m.recs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    m.recs.push_back(DecodeRec(r, tuple_bytes));
  }
  return m;
}

void Encode(Writer& w, const LoadReportMsg& m) {
  w.PutDouble(m.avg_buffer_occupancy);
  w.PutU64(m.buffered_tuples);
  w.PutU64(m.window_tuples);
  w.PutU64(m.seq);
}

LoadReportMsg DecodeLoadReport(Reader& r) {
  LoadReportMsg m;
  m.avg_buffer_occupancy = r.GetDouble();
  m.buffered_tuples = r.GetU64();
  m.window_tuples = r.GetU64();
  m.seq = r.GetU64();
  return m;
}

void Encode(Writer& w, const MoveCmdMsg& m) {
  w.PutU32(m.partition_id);
  w.PutU32(m.peer);
  w.PutU64(m.move_seq);
}

MoveCmdMsg DecodeMoveCmd(Reader& r) {
  MoveCmdMsg m;
  m.partition_id = r.GetU32();
  m.peer = r.GetU32();
  m.move_seq = r.GetU64();
  return m;
}

void Encode(Writer& w, const StateTransferMsg& m, std::size_t tuple_bytes) {
  w.PutU32(m.partition_id);
  w.PutU64(m.group_state.size());
  w.PutBytes(m.group_state);
  w.PutU64(m.pending.size());
  for (const Rec& rec : m.pending) EncodeRec(w, rec, tuple_bytes);
  w.PutU64(m.move_seq);
}

StateTransferMsg DecodeStateTransfer(Reader& r, std::size_t tuple_bytes) {
  StateTransferMsg m;
  m.partition_id = r.GetU32();
  std::uint64_t state_len = r.GetU64();
  m.group_state = r.GetBytes(state_len);
  std::uint64_t n = r.GetU64();
  if (n > r.Remaining() / tuple_bytes) {
    throw DecodeError("pending tuple count exceeds payload");
  }
  m.pending.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    m.pending.push_back(DecodeRec(r, tuple_bytes));
  }
  m.move_seq = r.GetU64();
  return m;
}

void Encode(Writer& w, const AckMsg& m) {
  w.PutU32(m.partition_id);
  w.PutU64(m.move_seq);
}

AckMsg DecodeAck(Reader& r) {
  AckMsg m;
  m.partition_id = r.GetU32();
  m.move_seq = r.GetU64();
  return m;
}

void Encode(Writer& w, const ClockSyncMsg& m) {
  w.PutI64(m.master_now);
  w.PutI64(m.next_epoch_start);
}

ClockSyncMsg DecodeClockSync(Reader& r) {
  ClockSyncMsg m;
  m.master_now = r.GetI64();
  m.next_epoch_start = r.GetI64();
  return m;
}

void EncodeStateDelta(Writer& w, const std::vector<Rec>& recs,
                      std::size_t tuple_bytes) {
  w.PutU64(recs.size());
  for (const Rec& rec : recs) EncodeRec(w, rec, tuple_bytes);
}

std::vector<Rec> DecodeStateDelta(Reader& r, std::size_t tuple_bytes) {
  std::uint64_t n = r.GetU64();
  if (n > r.Remaining() / tuple_bytes) {
    throw DecodeError("state delta record count exceeds payload");
  }
  std::vector<Rec> recs;
  recs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    recs.push_back(DecodeRec(r, tuple_bytes));
  }
  return recs;
}

void Encode(Writer& w, const CkptCmdMsg& m) {
  w.PutU64(m.covered_epoch);
  w.PutU64(m.entries.size());
  for (const CkptCmdMsg::Entry& e : m.entries) {
    w.PutU32(e.partition_id);
    w.PutU32(e.buddy);
    w.PutU8(e.full ? 1 : 0);
    w.PutU64(e.committed_epoch);
  }
}

CkptCmdMsg DecodeCkptCmd(Reader& r) {
  CkptCmdMsg m;
  m.covered_epoch = r.GetU64();
  std::uint64_t n = r.GetU64();
  if (n > r.Remaining() / 17) {  // 17 bytes per encoded entry
    throw DecodeError("ckpt cmd entry count exceeds payload");
  }
  m.entries.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    CkptCmdMsg::Entry e;
    e.partition_id = r.GetU32();
    e.buddy = r.GetU32();
    e.full = r.GetU8() != 0;
    e.committed_epoch = r.GetU64();
    m.entries.push_back(e);
  }
  return m;
}

void Encode(Writer& w, const CheckpointMsg& m, std::size_t tuple_bytes) {
  w.PutU32(m.partition_id);
  w.PutU64(m.from_epoch);
  w.PutU64(m.to_epoch);
  w.PutU8(m.full ? 1 : 0);
  w.PutI64(m.expire_before);
  w.PutU64(m.committed_epoch);
  EncodeStateDelta(w, m.recs, tuple_bytes);
}

CheckpointMsg DecodeCheckpoint(Reader& r, std::size_t tuple_bytes) {
  CheckpointMsg m;
  m.partition_id = r.GetU32();
  m.from_epoch = r.GetU64();
  m.to_epoch = r.GetU64();
  m.full = r.GetU8() != 0;
  m.expire_before = r.GetI64();
  m.committed_epoch = r.GetU64();
  if (m.full ? m.from_epoch != 0 : m.from_epoch >= m.to_epoch) {
    throw DecodeError("checkpoint epoch range is inconsistent");
  }
  m.recs = DecodeStateDelta(r, tuple_bytes);
  return m;
}

void Encode(Writer& w, const CheckpointAckMsg& m) {
  w.PutU32(m.partition_id);
  w.PutU64(m.covered_epoch);
  w.PutU64(m.bytes);
}

CheckpointAckMsg DecodeCheckpointAck(Reader& r) {
  CheckpointAckMsg m;
  m.partition_id = r.GetU32();
  m.covered_epoch = r.GetU64();
  m.bytes = r.GetU64();
  return m;
}

void Encode(Writer& w, const FailoverCmdMsg& m) {
  w.PutU32(m.dead);
  w.PutU64(m.entries.size());
  for (const FailoverCmdMsg::Entry& e : m.entries) {
    w.PutU32(e.partition_id);
    w.PutU64(e.replay_from);
  }
}

FailoverCmdMsg DecodeFailoverCmd(Reader& r) {
  FailoverCmdMsg m;
  m.dead = r.GetU32();
  std::uint64_t n = r.GetU64();
  if (n > r.Remaining() / 12) {  // 12 bytes per encoded entry
    throw DecodeError("failover cmd entry count exceeds payload");
  }
  m.entries.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    FailoverCmdMsg::Entry e;
    e.partition_id = r.GetU32();
    e.replay_from = r.GetU64();
    m.entries.push_back(e);
  }
  return m;
}

void Encode(Writer& w, const ReplayBatchMsg& m, std::size_t tuple_bytes) {
  w.PutU64(m.epoch);
  w.PutU64(m.recs.size());
  for (const Rec& rec : m.recs) EncodeRec(w, rec, tuple_bytes);
}

ReplayBatchMsg DecodeReplayBatch(Reader& r, std::size_t tuple_bytes) {
  ReplayBatchMsg m;
  m.epoch = r.GetU64();
  std::uint64_t n = r.GetU64();
  if (n > r.Remaining() / tuple_bytes) {
    throw DecodeError("replay batch count exceeds payload");
  }
  m.recs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    m.recs.push_back(DecodeRec(r, tuple_bytes));
  }
  return m;
}

void Encode(Writer& w, const MetricsMsg& m) {
  w.PutU64(m.epoch);
  w.PutU64(m.samples.size());
  for (const obs::MetricSample& s : m.samples) {
    w.PutString(s.name);
    w.PutString(s.labels);
    w.PutU8(static_cast<std::uint8_t>(s.kind));
    w.PutU64(s.counter);
    w.PutDouble(s.gauge);
    if (s.kind == obs::MetricKind::kHistogram) {
      // Histogram tail: bound count, upper edges, bounds+1 bucket counts,
      // total. Only present for histogram samples so counter/gauge frames
      // keep their original 25-byte floor.
      w.PutU64(s.hist_bounds.size());
      for (double b : s.hist_bounds) w.PutDouble(b);
      for (std::uint64_t c : s.hist_counts) w.PutU64(c);
      w.PutU64(s.hist_total);
    }
  }
}

MetricsMsg DecodeMetrics(Reader& r) {
  MetricsMsg m;
  m.epoch = r.GetU64();
  std::uint64_t n = r.GetU64();
  // Each sample is at least 25 bytes (two empty strings + kind + values).
  if (n > r.Remaining() / 25) {
    throw DecodeError("metrics sample count exceeds payload");
  }
  m.samples.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    obs::MetricSample s;
    s.name = r.GetString();
    s.labels = r.GetString();
    std::uint8_t kind = r.GetU8();
    if (kind > static_cast<std::uint8_t>(obs::MetricKind::kHistogram)) {
      throw DecodeError("metrics sample kind is not wire-able");
    }
    s.kind = static_cast<obs::MetricKind>(kind);
    s.counter = r.GetU64();
    s.gauge = r.GetDouble();
    if (s.kind == obs::MetricKind::kHistogram) {
      std::uint64_t nb = r.GetU64();
      // nb upper edges (8B each) + nb+1 counts (8B) + total (8B) remain.
      if (nb > r.Remaining() / 16) {
        throw DecodeError("metrics histogram bound count exceeds payload");
      }
      s.hist_bounds.reserve(nb);
      for (std::uint64_t b = 0; b < nb; ++b) {
        s.hist_bounds.push_back(r.GetDouble());
      }
      s.hist_counts.reserve(nb + 1);
      for (std::uint64_t b = 0; b < nb + 1; ++b) {
        s.hist_counts.push_back(r.GetU64());
      }
      s.hist_total = r.GetU64();
    }
    m.samples.push_back(std::move(s));
  }
  return m;
}

void Encode(Writer& w, const ResultStatsMsg& m) {
  w.PutU64(m.outputs);
  w.PutDouble(m.delay_sum_us);
  w.PutDouble(m.delay_max_us);
}

ResultStatsMsg DecodeResultStats(Reader& r) {
  ResultStatsMsg m;
  m.outputs = r.GetU64();
  m.delay_sum_us = r.GetDouble();
  m.delay_max_us = r.GetDouble();
  return m;
}

void Encode(Writer& w, const JoinCmdMsg& m) {
  w.PutU64(m.admit_epoch);
  w.PutU32(m.num_partitions);
}

JoinCmdMsg DecodeJoinCmd(Reader& r) {
  JoinCmdMsg m;
  m.admit_epoch = r.GetU64();
  m.num_partitions = r.GetU32();
  return m;
}

void Encode(Writer& w, const JoinAckMsg& m) { w.PutU64(m.admit_epoch); }

JoinAckMsg DecodeJoinAck(Reader& r) {
  JoinAckMsg m;
  m.admit_epoch = r.GetU64();
  return m;
}

void Encode(Writer& w, const LeaveCmdMsg& m) { w.PutU64(m.epoch); }

LeaveCmdMsg DecodeLeaveCmd(Reader& r) {
  LeaveCmdMsg m;
  m.epoch = r.GetU64();
  return m;
}

void Encode(Writer& w, const LeaveAckMsg& m) { w.PutU64(m.epoch); }

LeaveAckMsg DecodeLeaveAck(Reader& r) {
  LeaveAckMsg m;
  m.epoch = r.GetU64();
  return m;
}

}  // namespace sjoin
