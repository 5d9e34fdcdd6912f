// RecordingTap: a Transport decorator that black-box-records everything the
// wrapped endpoint observes -- every delivered frame, every recv timeout,
// every closure, and every outbound frame -- into a `.sjrec` bundle
// (obs/recording.h). Wraps InProcTransport, SocketTransport, and
// FaultEndpoint uniformly; place it *outermost* so it records frames exactly
// as the node saw them, after any fault injection.
//
// Recording recv *outcomes*, not just frames, is what makes the master
// replayable: its dead-slave verdicts and handshake retries branch on
// timeout sequences, so the bundle must reproduce those too
// (core/replayer.h ReplayTransport feeds them back 1:1).
//
// AttachMetrics forwards to the inner transport, so the per-peer transport
// counters are byte-identical whether or not a run is being recorded.
#pragma once

#include <memory>
#include <string>

#include "common/config.h"
#include "net/transport.h"
#include "obs/recording.h"

namespace sjoin {

class RecordingTap : public Transport {
 public:
  /// Decorates `inner` (not owned); recording starts once Open succeeds.
  explicit RecordingTap(Transport& inner) : inner_(inner) {}

  /// Manifest context beyond the config: `membership_epoch` is the epoch the
  /// node entered the cluster (0 for initial members); `input_trace` (master
  /// only) embeds the driving trace and `membership` (master only) the
  /// scheduled transitions, so rank 0 bundles are self-contained; the
  /// wall_* fields mirror the live run's WallOptions knobs that shape
  /// control flow (the master's dead-slave verdict branches on the retry
  /// budget, so the replay must use the same values).
  struct Info {
    std::uint64_t membership_epoch = 0;
    const std::vector<Rec>* input_trace = nullptr;
    const std::vector<MembershipEvent>* membership = nullptr;
    std::int64_t wall_run_for = 0;
    std::int64_t wall_recv_timeout_us = 0;
    std::uint32_t wall_recv_max_retries = 0;
  };

  /// Opens `<record_dir>/rank<Self()>.sjrec` with a manifest built from
  /// `cfg` and `info`. Returns false (and stays a transparent pass-through)
  /// on IO failure.
  bool Open(const std::string& record_dir, const SystemConfig& cfg,
            const Info& info);

  /// Flushes and closes the bundle (also done on destruction).
  void Finish() { writer_.Close(); }

  // -- Transport ------------------------------------------------------------
  Rank Self() const override { return inner_.Self(); }
  void Send(Rank to, Message msg) override;
  RecvResult RecvTimed(Duration timeout_us) override;
  RecvResult RecvFromTimed(Rank from, Duration timeout_us) override;
  void AttachMetrics(obs::MetricsRegistry* registry) override {
    inner_.AttachMetrics(registry);
  }

 private:
  void RecordOutcome(std::uint32_t peer, const RecvResult& res);

  Transport& inner_;
  obs::RecordingWriter writer_;
};

/// Converts between wire messages and the obs-layer record representation.
obs::RecordedFrame ToRecordedFrame(std::uint32_t peer, const Message& msg);
Message FromRecordedFrame(const obs::RecordedFrame& frame);

}  // namespace sjoin
