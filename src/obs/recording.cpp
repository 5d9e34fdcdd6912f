#include "obs/recording.h"

#include <cstring>
#include <filesystem>
#include <iterator>

namespace sjoin::obs {

namespace {

/// Throws unless `count` items of `item_bytes` each fit in what `r` has
/// left, so a corrupt count cannot drive a huge reserve.
void RequireItems(const Reader& r, std::uint64_t count,
                  std::size_t item_bytes) {
  if (count > r.Remaining() / item_bytes) {
    throw DecodeError("count " + std::to_string(count) +
                      " exceeds the remaining bytes");
  }
}

}  // namespace

// -- SystemConfig codec -----------------------------------------------------
//
// Fixed field order, governed by the bundle schema version. Every knob is
// encoded -- a replay with a config that differs in any cost or protocol
// parameter is not a replay.

void EncodeSystemConfig(Writer& w, const SystemConfig& cfg) {
  w.PutI64(cfg.join.window);
  w.PutU32(cfg.join.num_partitions);
  w.PutU64(cfg.join.theta_bytes);
  w.PutU64(cfg.join.block_bytes);
  w.PutU8(cfg.join.fine_tuning ? 1 : 0);

  w.PutDouble(cfg.balance.th_sup);
  w.PutDouble(cfg.balance.th_con);
  w.PutDouble(cfg.balance.beta);
  w.PutU8(cfg.balance.adaptive_declustering ? 1 : 0);
  w.PutU64(cfg.balance.slave_buffer_bytes);

  w.PutI64(cfg.epoch.t_dist);
  w.PutI64(cfg.epoch.t_rep);
  w.PutU32(cfg.epoch.num_subgroups);
  // The byte of the deleted punctuation-encoding flag, always 0 now; the
  // next schema bump drops it.
  w.PutU8(0);

  w.PutU8(cfg.epoch_tuner.enabled ? 1 : 0);

  w.PutU8(cfg.replication.enabled ? 1 : 0);
  w.PutU32(cfg.replication.ckpt_interval_epochs);

  w.PutU32(cfg.slave.workers);

  const ElasticConfig& el = cfg.cluster.elastic;
  w.PutU8(el.enabled ? 1 : 0);
  w.PutU32(el.drain_groups_per_epoch);
  w.PutU8(el.policy ? 1 : 0);
  w.PutDouble(el.surge_occupancy);
  w.PutU32(el.surge_epochs);
  w.PutDouble(el.idle_occupancy);
  w.PutU32(el.idle_epochs);
  w.PutU32(el.cooldown_epochs);
  w.PutDouble(el.skew_scale_in_veto);

  w.PutU8(cfg.net.use_inet ? 1 : 0);

  w.PutU32(cfg.obs.delay_sample_rate);

  w.PutDouble(cfg.workload.lambda);
  w.PutU32(static_cast<std::uint32_t>(cfg.workload.rate_schedule.size()));
  for (const RatePhase& p : cfg.workload.rate_schedule) {
    w.PutI64(p.duration);
    w.PutDouble(p.rate_per_sec);
  }
  w.PutDouble(cfg.workload.b_skew);
  w.PutU64(cfg.workload.key_domain);
  w.PutU64(cfg.workload.tuple_bytes);
  w.PutU64(cfg.workload.seed);

  w.PutDouble(cfg.cost.cmp_ns);
  w.PutDouble(cfg.cost.tuple_fixed_ns);
  w.PutDouble(cfg.cost.cpu_byte_ns);
  w.PutDouble(cfg.cost.move_ns);
  w.PutDouble(cfg.cost.merge_ns);
  w.PutDouble(cfg.cost.wire_byte_ns);
  w.PutI64(cfg.cost.msg_fixed_us);
  w.PutDouble(cfg.cost.serial_wait_fraction);

  w.PutU32(cfg.num_slaves);
  w.PutU32(cfg.initial_active_slaves);
}

SystemConfig DecodeSystemConfig(Reader& r) {
  SystemConfig cfg;
  cfg.join.window = r.GetI64();
  cfg.join.num_partitions = r.GetU32();
  cfg.join.theta_bytes = static_cast<std::size_t>(r.GetU64());
  cfg.join.block_bytes = static_cast<std::size_t>(r.GetU64());
  cfg.join.fine_tuning = r.GetU8() != 0;

  cfg.balance.th_sup = r.GetDouble();
  cfg.balance.th_con = r.GetDouble();
  cfg.balance.beta = r.GetDouble();
  cfg.balance.adaptive_declustering = r.GetU8() != 0;
  cfg.balance.slave_buffer_bytes = static_cast<std::size_t>(r.GetU64());

  cfg.epoch.t_dist = r.GetI64();
  cfg.epoch.t_rep = r.GetI64();
  cfg.epoch.num_subgroups = r.GetU32();
  (void)r.GetU8();  // the deleted punctuation flag (see EncodeSystemConfig)

  cfg.epoch_tuner.enabled = r.GetU8() != 0;

  cfg.replication.enabled = r.GetU8() != 0;
  cfg.replication.ckpt_interval_epochs = r.GetU32();

  cfg.slave.workers = r.GetU32();

  ElasticConfig& el = cfg.cluster.elastic;
  el.enabled = r.GetU8() != 0;
  el.drain_groups_per_epoch = r.GetU32();
  el.policy = r.GetU8() != 0;
  el.surge_occupancy = r.GetDouble();
  el.surge_epochs = r.GetU32();
  el.idle_occupancy = r.GetDouble();
  el.idle_epochs = r.GetU32();
  el.cooldown_epochs = r.GetU32();
  el.skew_scale_in_veto = r.GetDouble();

  cfg.net.use_inet = r.GetU8() != 0;

  cfg.obs.delay_sample_rate = r.GetU32();

  cfg.workload.lambda = r.GetDouble();
  const std::uint32_t phases = r.GetU32();
  RequireItems(r, phases, 16);  // duration + rate
  cfg.workload.rate_schedule.clear();
  cfg.workload.rate_schedule.reserve(phases);
  for (std::uint32_t i = 0; i < phases; ++i) {
    RatePhase p;
    p.duration = r.GetI64();
    p.rate_per_sec = r.GetDouble();
    cfg.workload.rate_schedule.push_back(p);
  }
  cfg.workload.b_skew = r.GetDouble();
  cfg.workload.key_domain = r.GetU64();
  cfg.workload.tuple_bytes = static_cast<std::size_t>(r.GetU64());
  cfg.workload.seed = r.GetU64();

  cfg.cost.cmp_ns = r.GetDouble();
  cfg.cost.tuple_fixed_ns = r.GetDouble();
  cfg.cost.cpu_byte_ns = r.GetDouble();
  cfg.cost.move_ns = r.GetDouble();
  cfg.cost.merge_ns = r.GetDouble();
  cfg.cost.wire_byte_ns = r.GetDouble();
  cfg.cost.msg_fixed_us = r.GetI64();
  cfg.cost.serial_wait_fraction = r.GetDouble();

  cfg.num_slaves = r.GetU32();
  cfg.initial_active_slaves = r.GetU32();
  return cfg;
}

// -- Manifest codec ---------------------------------------------------------

void EncodeManifest(Writer& w, const RecordingManifest& m) {
  w.PutU32(m.schema);
  w.PutString(m.build_version);
  w.PutU32(m.rank);
  w.PutU64(m.membership_epoch);
  EncodeSystemConfig(w, m.cfg);
  w.PutString(m.config_summary);
  w.PutU8(m.has_input_trace ? 1 : 0);
  if (m.has_input_trace) {
    w.PutU64(m.input_trace.size());
    for (const Rec& rec : m.input_trace) {
      w.PutI64(rec.ts);
      w.PutU64(rec.key);
      w.PutU8(rec.stream);
    }
  }
  w.PutU32(static_cast<std::uint32_t>(m.membership.size()));
  for (const MembershipEvent& ev : m.membership) {
    w.PutU64(ev.epoch);
    w.PutU8(ev.join ? 1 : 0);
    w.PutU32(ev.slave);
  }
  w.PutI64(m.wall_run_for);
  w.PutI64(m.wall_recv_timeout_us);
  w.PutU32(m.wall_recv_max_retries);
}

RecordingManifest DecodeManifest(Reader& r) {
  RecordingManifest m;
  m.schema = r.GetU32();
  if (m.schema != kRecordingSchemaVersion) {
    throw DecodeError("unsupported .sjrec manifest schema " +
                      std::to_string(m.schema));
  }
  m.build_version = r.GetString();
  m.rank = r.GetU32();
  m.membership_epoch = r.GetU64();
  m.cfg = DecodeSystemConfig(r);
  m.config_summary = r.GetString();
  m.has_input_trace = r.GetU8() != 0;
  if (m.has_input_trace) {
    const std::uint64_t n = r.GetU64();
    RequireItems(r, n, 17);  // ts + key + stream
    m.input_trace.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      Rec rec;
      rec.ts = r.GetI64();
      rec.key = r.GetU64();
      rec.stream = r.GetU8();
      m.input_trace.push_back(rec);
    }
  }
  const std::uint32_t events = r.GetU32();
  RequireItems(r, events, 13);  // epoch + join + slave
  m.membership.resize(events);
  for (MembershipEvent& ev : m.membership) {
    ev.epoch = r.GetU64();
    ev.join = r.GetU8() != 0;
    ev.slave = r.GetU32();
  }
  m.wall_run_for = r.GetI64();
  m.wall_recv_timeout_us = r.GetI64();
  m.wall_recv_max_retries = r.GetU32();
  return m;
}

// -- Record codec -----------------------------------------------------------

namespace {

/// A frame record's body without its payload: kind, peer, type, trace id,
/// parent span, send time, payload length.
constexpr std::size_t kRecordBodyBytes = 1 + 4 + 1 + 8 + 8 + 8 + 4;

void EncodeRecordBody(Writer& w, const RecordedEvent& ev) {
  w.PutU8(static_cast<std::uint8_t>(ev.kind));
  switch (ev.kind) {
    case RecordKind::kFrameIn:
    case RecordKind::kFrameOut:
      w.PutU32(ev.frame.peer);
      w.PutU8(ev.frame.type);
      w.PutU64(ev.frame.trace_id);
      w.PutU64(ev.frame.parent_span);
      w.PutI64(ev.frame.send_vt);
      w.PutU32(static_cast<std::uint32_t>(ev.frame.payload.size()));
      w.PutBytes(ev.frame.payload);
      break;
    case RecordKind::kTimeout:
    case RecordKind::kClosed:
      w.PutU32(ev.frame.peer);
      break;
  }
}

RecordedEvent DecodeRecordBody(Reader& r) {
  RecordedEvent ev;
  const std::uint8_t kind = r.GetU8();
  if (kind < 1 || kind > 4) {
    throw DecodeError("unknown .sjrec record kind " + std::to_string(kind));
  }
  ev.kind = static_cast<RecordKind>(kind);
  switch (ev.kind) {
    case RecordKind::kFrameIn:
    case RecordKind::kFrameOut: {
      ev.frame.peer = r.GetU32();
      ev.frame.type = r.GetU8();
      ev.frame.trace_id = r.GetU64();
      ev.frame.parent_span = r.GetU64();
      ev.frame.send_vt = r.GetI64();
      const std::uint32_t len = r.GetU32();
      ev.frame.payload = r.GetBytes(len);
      break;
    }
    case RecordKind::kTimeout:
    case RecordKind::kClosed:
      ev.frame.peer = r.GetU32();
      break;
  }
  if (!r.AtEnd()) {
    throw DecodeError(".sjrec record has trailing bytes");
  }
  return ev;
}

}  // namespace

void EncodeRecord(Writer& w, const RecordedEvent& ev) {
  Writer body(kRecordBodyBytes + ev.frame.payload.size());
  EncodeRecordBody(body, ev);
  w.PutU32(static_cast<std::uint32_t>(body.Size()));
  w.PutBytes(body.Bytes());
}

// -- RecordingWriter --------------------------------------------------------

bool RecordingWriter::Open(const std::string& path,
                           const RecordingManifest& manifest) {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_.is_open()) return false;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) return false;
  scratch_.Clear();
  scratch_.PutBytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kRecordingMagic),
      sizeof(kRecordingMagic)));
  scratch_.PutU32(kRecordingSchemaVersion);
  Writer blob;
  EncodeManifest(blob, manifest);
  scratch_.PutU32(static_cast<std::uint32_t>(blob.Size()));
  scratch_.PutBytes(blob.Bytes());
  out_.write(reinterpret_cast<const char*>(scratch_.Bytes().data()),
             static_cast<std::streamsize>(scratch_.Size()));
  return static_cast<bool>(out_);
}

bool RecordingWriter::IsOpen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return out_.is_open();
}

void RecordingWriter::Append(const RecordedEvent& ev) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!out_.is_open()) return;
  scratch_.Clear();
  EncodeRecord(scratch_, ev);
  out_.write(reinterpret_cast<const char*>(scratch_.Bytes().data()),
             static_cast<std::streamsize>(scratch_.Size()));
}

void RecordingWriter::FrameIn(const RecordedFrame& frame) {
  Append(RecordedEvent{RecordKind::kFrameIn, frame});
}

void RecordingWriter::FrameOut(const RecordedFrame& frame) {
  Append(RecordedEvent{RecordKind::kFrameOut, frame});
}

void RecordingWriter::Timeout(std::uint32_t peer) {
  RecordedEvent ev;
  ev.kind = RecordKind::kTimeout;
  ev.frame.peer = peer;
  Append(ev);
}

void RecordingWriter::Closed(std::uint32_t peer) {
  RecordedEvent ev;
  ev.kind = RecordKind::kClosed;
  ev.frame.peer = peer;
  Append(ev);
}

void RecordingWriter::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_.is_open()) {
    out_.flush();
    out_.close();
  }
}

// -- Loader -----------------------------------------------------------------

LoadRecordingResult LoadRecording(const std::string& path) {
  LoadRecordingResult res;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    res.error = "cannot open " + path;
    return res;
  }
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  if (bytes.size() < sizeof(kRecordingMagic) + 8 ||
      std::memcmp(bytes.data(), kRecordingMagic, sizeof(kRecordingMagic)) !=
          0) {
    res.error = path + " is not a .sjrec bundle (bad magic)";
    return res;
  }
  Reader r(bytes);
  try {
    r.Skip(sizeof(kRecordingMagic));
    const std::uint32_t schema = r.GetU32();
    if (schema != kRecordingSchemaVersion) {
      res.error = path + ": unsupported .sjrec schema " +
                  std::to_string(schema) + " (expected " +
                  std::to_string(kRecordingSchemaVersion) + ")";
      return res;
    }
    const std::uint32_t manifest_len = r.GetU32();
    std::vector<std::uint8_t> blob = r.GetBytes(manifest_len);
    Reader mr(blob);
    res.recording.manifest = DecodeManifest(mr);
    if (!mr.AtEnd()) {
      res.error = path + ": manifest has trailing bytes";
      return res;
    }
  } catch (const DecodeError& e) {
    res.error = path + ": bad manifest: " + e.what();
    return res;
  }
  // Record stream: a torn final record (the recorder died mid-write) is
  // dropped, not fatal; anything structurally wrong inside a complete
  // record is.
  while (!r.AtEnd()) {
    if (r.Remaining() < 4) {
      res.recording.truncated_tail = true;
      break;
    }
    const std::uint32_t len = r.GetU32();
    if (r.Remaining() < len) {
      res.recording.truncated_tail = true;
      break;
    }
    std::vector<std::uint8_t> body = r.GetBytes(len);
    Reader br(body);
    try {
      res.recording.events.push_back(DecodeRecordBody(br));
    } catch (const DecodeError& e) {
      res.error = path + ": bad record " +
                  std::to_string(res.recording.events.size()) + ": " +
                  e.what();
      return res;
    }
  }
  res.ok = true;
  return res;
}

const char* SourceStamp() { return SJOIN_SOURCE_STAMP; }

std::string RecordingBundlePath(const std::string& dir, std::uint32_t rank) {
  return dir + "/rank" + std::to_string(rank) + ".sjrec";
}

}  // namespace sjoin::obs
