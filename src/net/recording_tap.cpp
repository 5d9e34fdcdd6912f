#include "net/recording_tap.h"

namespace sjoin {

obs::RecordedFrame ToRecordedFrame(std::uint32_t peer, const Message& msg) {
  obs::RecordedFrame f;
  f.peer = peer;
  f.type = static_cast<std::uint8_t>(msg.type);
  f.trace_id = msg.trace_id;
  f.parent_span = msg.parent_span;
  f.send_vt = msg.send_vt;
  f.payload = msg.payload;
  return f;
}

Message FromRecordedFrame(const obs::RecordedFrame& frame) {
  Message msg;
  msg.type = static_cast<MsgType>(frame.type);
  msg.from = frame.peer;
  msg.trace_id = frame.trace_id;
  msg.parent_span = frame.parent_span;
  msg.send_vt = frame.send_vt;
  msg.payload = frame.payload;
  return msg;
}

bool RecordingTap::Open(const std::string& record_dir, const SystemConfig& cfg,
                        const Info& info) {
  obs::RecordingManifest m;
  m.build_version = obs::SourceStamp();
  m.rank = inner_.Self();
  m.membership_epoch = info.membership_epoch;
  m.cfg = cfg;
  m.config_summary = Summarize(cfg);
  if (info.input_trace != nullptr) {
    m.has_input_trace = true;
    m.input_trace = *info.input_trace;
  }
  if (info.membership != nullptr) m.membership = *info.membership;
  m.wall_run_for = info.wall_run_for;
  m.wall_recv_timeout_us = info.wall_recv_timeout_us;
  m.wall_recv_max_retries = info.wall_recv_max_retries;
  return writer_.Open(obs::RecordingBundlePath(record_dir, inner_.Self()), m);
}

void RecordingTap::Send(Rank to, Message msg) {
  if (writer_.IsOpen()) {
    // Record with from = Self(): the inner transport stamps it on the wire,
    // so the bundle mirrors what the peer will decode.
    Message stamped = msg;
    stamped.from = inner_.Self();
    writer_.FrameOut(ToRecordedFrame(to, stamped));
  }
  inner_.Send(to, std::move(msg));
}

void RecordingTap::RecordOutcome(std::uint32_t peer, const RecvResult& res) {
  if (!writer_.IsOpen()) return;
  switch (res.status) {
    case RecvStatus::kOk:
      writer_.FrameIn(ToRecordedFrame(res.msg.from, res.msg));
      break;
    case RecvStatus::kTimeout:
      writer_.Timeout(peer);
      break;
    case RecvStatus::kClosed:
      writer_.Closed(peer);
      break;
  }
}

RecvResult RecordingTap::RecvTimed(Duration timeout_us) {
  RecvResult res = inner_.RecvTimed(timeout_us);
  RecordOutcome(obs::kRecordAnyPeer, res);
  return res;
}

RecvResult RecordingTap::RecvFromTimed(Rank from, Duration timeout_us) {
  RecvResult res = inner_.RecvFromTimed(from, timeout_us);
  RecordOutcome(from, res);
  return res;
}

}  // namespace sjoin
