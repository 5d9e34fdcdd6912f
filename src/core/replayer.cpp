#include "core/replayer.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "core/runner.h"
#include "net/recording_tap.h"
#include "obs/obs.h"

namespace sjoin {

namespace {

constexpr std::uint8_t kTupleBatchRaw =
    static_cast<std::uint8_t>(MsgType::kTupleBatch);

/// Send classes whose bytes are deterministic under replay AND whose
/// emission order within the bundle is single-threaded. Excluded: the
/// comm-thread replies (kLoadReport's occupancy races the join thread,
/// kJoinAck interleaves with join-thread sends nondeterministically),
/// kClockSync (carries wall time), and the wall-sampled telemetry payloads
/// (kResultStats delay sums, kMetrics stage histograms).
bool DeterministicSendType(std::uint8_t type) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kLoadReport:
    case MsgType::kClockSync:
    case MsgType::kResultStats:
    case MsgType::kMetrics:
    case MsgType::kJoinAck:
      return false;
    default:
      return true;
  }
}

std::string HexDigest(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string BuildStateJson(std::uint32_t rank,
                           std::optional<std::uint64_t> epochs_done,
                           std::span<const JoinModule::GroupDigest> groups) {
  std::ostringstream os;
  os << "{\"schema\":1,\"rank\":" << rank << ",\"epochs_done\":";
  if (epochs_done) {
    os << *epochs_done;
  } else {
    os << "null";
  }
  os << ",\"groups\":[";
  bool first = true;
  for (const JoinModule::GroupDigest& g : groups) {
    if (!first) os << ',';
    first = false;
    os << "{\"pid\":" << g.pid << ",\"digest\":\"" << HexDigest(g.digest)
       << "\",\"records\":" << g.records << ",\"bytes\":" << g.bytes
       << ",\"mini_groups\":" << g.mini_groups
       << ",\"journal\":" << g.journal << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace

// -- ReplayTransport --------------------------------------------------------

ReplayTransport::ReplayTransport(const obs::Recording& recording,
                                 std::uint64_t max_batches)
    : self_(recording.manifest.rank), max_batches_(max_batches) {
  stimulus_.reserve(recording.events.size());
  for (std::size_t i = 0; i < recording.events.size(); ++i) {
    const obs::RecordedEvent& ev = recording.events[i];
    if (ev.kind != obs::RecordKind::kFrameOut) {
      stimulus_.push_back(Stimulus{&ev, i});
    }
  }
}

void ReplayTransport::NoteDivergence(const std::string& note) {
  if (!diverged_) {
    diverged_ = true;
    divergence_note_ = note;
  }
}

std::optional<ReplayTransport::Stimulus> ReplayTransport::Next(
    std::optional<Rank> want_peer) {
  std::lock_guard<std::mutex> lock(mu_);
  while (true) {
    if (ended_ || pos_ >= stimulus_.size()) {
      ended_ = true;
      return std::nullopt;
    }
    const Stimulus& s = stimulus_[pos_];
    if (max_batches_ > 0 && s.ev->kind == obs::RecordKind::kFrameIn &&
        s.ev->frame.type == kTupleBatchRaw &&
        batches_delivered_ >= max_batches_) {
      // Breakpoint: the next batch is never delivered; the node sees a
      // shutdown instead and drains what it already has.
      ended_ = true;
      return std::nullopt;
    }
    ++pos_;
    if (s.ev->kind == obs::RecordKind::kFrameIn) {
      ++frames_delivered_;
      if (s.ev->frame.type == kTupleBatchRaw) ++batches_delivered_;
      if (want_peer.has_value() && s.ev->frame.peer != *want_peer) {
        NoteDivergence("recv-from rank " + std::to_string(*want_peer) +
                       " at stimulus " + std::to_string(s.seq) +
                       " but the recording delivered a frame from rank " +
                       std::to_string(s.ev->frame.peer));
      }
    } else if (want_peer.has_value() &&
               s.ev->frame.peer != obs::kRecordAnyPeer &&
               s.ev->frame.peer != *want_peer) {
      NoteDivergence("recv-from rank " + std::to_string(*want_peer) +
                     " at stimulus " + std::to_string(s.seq) +
                     " but the recording's outcome targeted rank " +
                     std::to_string(s.ev->frame.peer));
    }
    return s;
  }
}

void ReplayTransport::Send(Rank to, Message msg) {
  msg.from = self_;
  obs::RecordedFrame f = ToRecordedFrame(to, msg);
  std::lock_guard<std::mutex> lock(mu_);
  sends_.push_back(std::move(f));
}

RecvResult ReplayTransport::Deliver(std::optional<Rank> want_peer,
                                    Duration timeout_us) {
  while (true) {
    std::optional<Stimulus> s = Next(want_peer);
    if (!s.has_value()) return RecvResult{};  // kClosed
    switch (s->ev->kind) {
      case obs::RecordKind::kFrameIn:
        return RecvResult{RecvStatus::kOk, FromRecordedFrame(s->ev->frame)};
      case obs::RecordKind::kTimeout:
        if (timeout_us >= 0) return RecvResult{RecvStatus::kTimeout, {}};
        // An untimed recv cannot time out: the live call at this position
        // was a timed one, so the control flow has already diverged. Skip
        // the stimulus and keep the replay moving.
        NoteDivergence("timeout stimulus " + std::to_string(s->seq) +
                       " reached an untimed " +
                       (want_peer.has_value() ? "recv-from" : "recv"));
        continue;
      case obs::RecordKind::kClosed:
      case obs::RecordKind::kFrameOut:  // filtered out at construction
        return RecvResult{};
    }
  }
}

RecvResult ReplayTransport::RecvTimed(Duration timeout_us) {
  return Deliver(std::nullopt, timeout_us);
}

RecvResult ReplayTransport::RecvFromTimed(Rank from, Duration timeout_us) {
  return Deliver(from, timeout_us);
}

std::uint64_t ReplayTransport::FramesDelivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_delivered_;
}

std::uint64_t ReplayTransport::BatchesDelivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_delivered_;
}

std::vector<obs::RecordedFrame> ReplayTransport::Sends() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sends_;
}

bool ReplayTransport::ControlDivergence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return diverged_;
}

std::string ReplayTransport::DivergenceNote() const {
  std::lock_guard<std::mutex> lock(mu_);
  return divergence_note_;
}

// -- Output helpers ---------------------------------------------------------

std::string FormatTaggedOutputs(std::span<const TaggedOutput> outputs) {
  // produced_at is wall-clock derived (the slave stamps real time) and is
  // deliberately absent: only the deterministic fields are rendered.
  std::string s = "epoch,pid,left_ts,left_key,right_ts,right_key\n";
  for (const TaggedOutput& t : outputs) {
    s += std::to_string(t.epoch);
    s += ',';
    s += std::to_string(t.pid);
    s += ',';
    s += std::to_string(t.out.left.ts);
    s += ',';
    s += std::to_string(t.out.left.key);
    s += ',';
    s += std::to_string(t.out.right.ts);
    s += ',';
    s += std::to_string(t.out.right.key);
    s += '\n';
  }
  return s;
}

std::uint64_t HashTaggedOutputs(std::span<const TaggedOutput> outputs) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  mix(outputs.size());
  for (const TaggedOutput& t : outputs) {
    mix(t.epoch);
    mix(t.pid);
    mix(static_cast<std::uint64_t>(t.out.left.ts));
    mix(t.out.left.key);
    mix(static_cast<std::uint64_t>(t.out.right.ts));
    mix(t.out.right.key);
  }
  return h;
}

// -- ReplayNode -------------------------------------------------------------

namespace {

std::uint64_t ResolveBatchBreakpoint(const obs::RecordingManifest& m,
                                     const ReplayOptions& opts) {
  std::uint64_t until = opts.until_epoch;
  if (until == 0 && opts.until_vt > 0 && m.cfg.epoch.t_dist > 0) {
    until = static_cast<std::uint64_t>(opts.until_vt / m.cfg.epoch.t_dist);
  }
  if (until == 0) return 0;
  // Nodes admitted mid-run (elastic join) count epochs from their admission:
  // `membership_epoch` epochs were already done when the first batch landed.
  if (until <= m.membership_epoch) return 0;
  return until - m.membership_epoch;
}

void VerifySends(const obs::Recording& recording,
                 const std::vector<obs::RecordedFrame>& replay_sends,
                 ReplayResult& res) {
  std::vector<const obs::RecordedFrame*> live;
  for (const obs::RecordedEvent& ev : recording.events) {
    if (ev.kind == obs::RecordKind::kFrameOut &&
        DeterministicSendType(ev.frame.type)) {
      live.push_back(&ev.frame);
    }
  }
  std::vector<const obs::RecordedFrame*> replay;
  for (const obs::RecordedFrame& f : replay_sends) {
    if (DeterministicSendType(f.type)) replay.push_back(&f);
  }
  const std::size_t n = std::min(live.size(), replay.size());
  res.sends_checked = std::max(live.size(), replay.size());
  res.send_mismatches = std::max(live.size(), replay.size()) - n;
  for (std::size_t i = 0; i < n; ++i) {
    // Trace context (trace_id/parent_span/send_vt) depends on whether the
    // live run had tracing enabled, which the manifest does not pin; the
    // protocol bytes are the contract.
    if (live[i]->peer != replay[i]->peer ||
        live[i]->type != replay[i]->type ||
        live[i]->payload != replay[i]->payload) {
      ++res.send_mismatches;
    }
  }
}

}  // namespace

ReplayResult ReplayNode(const obs::Recording& recording,
                        const ReplayOptions& opts) {
  ReplayResult res;
  const obs::RecordingManifest& m = recording.manifest;
  res.rank = m.rank;

  const SystemConfig& cfg = m.cfg;

  const std::uint64_t max_batches = ResolveBatchBreakpoint(m, opts);
  ReplayTransport rt(recording, max_batches);
  obs::NodeObs ob;
  ob.trace.SetEnabled(opts.trace);

  WallOptions wall;
  wall.run_for = m.wall_run_for > 0 ? m.wall_run_for : 3600 * kUsPerSec;
  wall.recv_timeout_us =
      m.wall_recv_timeout_us > 0 ? m.wall_recv_timeout_us : 1 * kUsPerSec;
  if (m.wall_recv_max_retries > 0) {
    wall.recv_max_retries = m.wall_recv_max_retries;
  }

  const Rank collector = cfg.num_slaves + 1;
  if (m.rank == 0) {
    if (!m.has_input_trace) {
      res.error =
          "master bundle has no embedded input trace; a wall-clock Poisson "
          "master is not replayable (record trace-driven runs)";
      return res;
    }
    wall.input_trace = &m.input_trace;
    wall.membership = m.membership;
    wall.master_obs = &ob;
    res.epochs_done = RunMasterNode(rt, cfg, wall).epochs;
  } else if (m.rank >= 1 && m.rank <= cfg.num_slaves) {
    EpochTagSink tag(cfg.join.num_partitions);
    wall.slave_obs.assign(cfg.num_slaves, nullptr);
    wall.slave_obs[m.rank - 1] = &ob;
    wall.slave_epoch_sinks.assign(cfg.num_slaves, nullptr);
    wall.slave_epoch_sinks[m.rank - 1] = &tag;
    wall.slave_inspect = [&res](Rank, JoinModule& join,
                                std::uint64_t epochs_done) {
      res.epochs_done = epochs_done;
      res.groups = join.DigestGroups();
    };
    (void)RunSlaveNode(rt, cfg, wall);
    res.outputs = tag.Outputs();
    res.output_hash = HashTaggedOutputs(res.outputs);
  } else if (m.rank == collector) {
    (void)RunCollectorNode(rt, cfg, &ob);
  } else {
    res.error = "bundle rank " + std::to_string(m.rank) +
                " is outside the cluster (num_slaves=" +
                std::to_string(cfg.num_slaves) + ")";
    return res;
  }

  res.ok = true;
  res.frames_delivered = rt.FramesDelivered();
  res.hit_breakpoint =
      max_batches > 0 && rt.BatchesDelivered() >= max_batches;
  res.control_divergence = rt.ControlDivergence();
  res.divergence_note = rt.DivergenceNote();
  res.epoch_csv = ob.recorder.ExportCsv();
  res.epoch_jsonl = ob.recorder.ExportJsonl();
  // Exported the way a live run writes a rank's trace file: through
  // MergeTraces, which orders by timestamp (the master's post-loop instants
  // carry the last epoch's start, so emission order differs).
  const obs::TraceSink* one[] = {&ob.trace};
  res.trace_json = obs::ExportChromeJson(obs::MergeTraces(one));
  res.state_json = BuildStateJson(res.rank, res.epochs_done, res.groups);
  if (max_batches == 0) {
    VerifySends(recording, rt.Sends(), res);
  }
  return res;
}

// -- Divergence pinpointing -------------------------------------------------

namespace {

std::uint64_t CountBatches(const obs::Recording& rec) {
  std::uint64_t n = 0;
  for (const obs::RecordedEvent& ev : rec.events) {
    if (ev.kind == obs::RecordKind::kFrameIn &&
        ev.frame.type == kTupleBatchRaw) {
      ++n;
    }
  }
  return n;
}

/// Bundle-record ordinal of the k-th (1-based) delivered tuple batch.
std::uint64_t FrameSeqOfBatch(const obs::Recording& rec, std::uint64_t k) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < rec.events.size(); ++i) {
    const obs::RecordedEvent& ev = rec.events[i];
    if (ev.kind == obs::RecordKind::kFrameIn &&
        ev.frame.type == kTupleBatchRaw) {
      if (++n == k) return i;
    }
  }
  return 0;
}

struct Probe {
  std::map<std::uint32_t, std::uint64_t> digests;  // pid -> state digest
  std::uint64_t output_hash = 0;
  bool ok = false;
};

Probe ProbeAt(const obs::Recording& rec, std::uint64_t epoch) {
  ReplayOptions o;
  o.until_epoch = epoch;
  ReplayResult r = ReplayNode(rec, o);
  Probe p;
  p.ok = r.ok;
  p.output_hash = r.output_hash;
  for (const JoinModule::GroupDigest& g : r.groups) {
    p.digests[g.pid] = g.digest;
  }
  return p;
}

}  // namespace

DivergenceReport PinpointDivergence(const obs::Recording& a,
                                    const obs::Recording& b) {
  DivergenceReport rep;
  if (a.manifest.rank != b.manifest.rank) {
    rep.note = "bundles record different ranks (" +
               std::to_string(a.manifest.rank) + " vs " +
               std::to_string(b.manifest.rank) + ")";
    return rep;
  }
  if (a.manifest.rank == 0 ||
      a.manifest.rank > a.manifest.cfg.num_slaves) {
    rep.note = "divergence pinpointing compares slave bundles (state digests "
               "live on slaves); rank " +
               std::to_string(a.manifest.rank) + " is not a slave";
    return rep;
  }
  const std::uint64_t batches_a = CountBatches(a);
  const std::uint64_t batches_b = CountBatches(b);
  const std::uint64_t common = std::min(batches_a, batches_b);
  if (common == 0) {
    rep.note = "no common epoch prefix to compare";
    return rep;
  }
  rep.comparable = true;

  auto differs = [&](std::uint64_t e, Probe& pa, Probe& pb) {
    pa = ProbeAt(a, e);
    pb = ProbeAt(b, e);
    rep.probes += 2;
    return !(pa.digests == pb.digests && pa.output_hash == pb.output_hash);
  };

  Probe pa;
  Probe pb;
  if (!differs(common, pa, pb)) {
    rep.note = "no divergence within the " + std::to_string(common) +
               " common epochs";
    if (batches_a != batches_b) {
      rep.note += " (bundle epoch counts differ: " +
                  std::to_string(batches_a) + " vs " +
                  std::to_string(batches_b) + ")";
    }
    return rep;
  }

  // Deterministic artifacts are cumulative, so "differs at e" is monotone in
  // e: bisect for the smallest divergent epoch.
  std::uint64_t lo = 1;
  std::uint64_t hi = common;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    Probe qa;
    Probe qb;
    if (differs(mid, qa, qb)) {
      hi = mid;
      pa = qa;
      pb = qb;
    } else {
      lo = mid + 1;
    }
  }

  rep.diverged = true;
  rep.epoch = lo + a.manifest.membership_epoch;
  rep.outputs_differ = pa.output_hash != pb.output_hash;
  for (const auto& [pid, digest] : pa.digests) {
    auto it = pb.digests.find(pid);
    if (it == pb.digests.end() || it->second != digest) {
      rep.pids.push_back(pid);
    }
  }
  for (const auto& [pid, digest] : pb.digests) {
    if (pa.digests.find(pid) == pa.digests.end()) rep.pids.push_back(pid);
  }
  std::sort(rep.pids.begin(), rep.pids.end());
  rep.frame_seq_a = FrameSeqOfBatch(a, lo);
  rep.frame_seq_b = FrameSeqOfBatch(b, lo);
  rep.note = "first divergent epoch " + std::to_string(rep.epoch) +
             (rep.outputs_differ ? " (state + outputs)" : " (state only)");
  return rep;
}

}  // namespace sjoin
