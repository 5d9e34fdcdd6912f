// The benchmark's measuring points inside the node processes. Both sit on
// public seams of the program -- a Transport decorator around each endpoint
// and an extra JoinSink on each slave -- so the program runs unmodified.
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.h"
#include "join/sink.h"
#include "net/transport.h"
#include "shm.h"

namespace sjoin::obs {
class Counter;
class MetricsRegistry;
}  // namespace sjoin::obs

namespace wallbench {

/// Order-independent identity of one output pair (ts0, ts1, key); the run's
/// digest is the wrapping sum over all pairs, so a multiset compares equal
/// however the cluster ordered and split its outputs.
inline std::uint64_t KeyHash(std::uint64_t key) {
  return sjoin::Mix64(key ^ 0x6a09e667f3bcc909ull);
}
inline std::uint64_t PairHash(std::uint64_t key_hash, sjoin::Time ts0,
                              sjoin::Time ts1) {
  return sjoin::Mix64(key_hash ^
                      (static_cast<std::uint64_t>(ts0) * 0x9e3779b97f4a7c15ull) ^
                      (static_cast<std::uint64_t>(ts1) * 0xc2b2ae3d27d4eb4full));
}

/// Transport decorator: counts and times every call of its rank, stamps the
/// protocol events the metrics need (clock sync, batch send/receive, load
/// report, kResultStats, kMetrics) and, in a traced run, records one span per
/// call. `registry` is the slave's NodeObs registry (nullptr elsewhere); the
/// decorator copies its join counters and wall stages out at every kMetrics.
class MeasuredTransport final : public sjoin::Transport {
 public:
  MeasuredTransport(sjoin::Transport& inner, ClusterShm& shm,
                    std::uint32_t slaves, sjoin::obs::MetricsRegistry* registry);
  MeasuredTransport(const MeasuredTransport&) = delete;
  MeasuredTransport& operator=(const MeasuredTransport&) = delete;

  sjoin::Rank Self() const override { return inner_.Self(); }
  void Send(sjoin::Rank to, sjoin::Message msg) override;
  std::optional<sjoin::Message> Recv() override;
  std::optional<sjoin::Message> RecvFrom(sjoin::Rank from) override;
  sjoin::RecvResult RecvTimed(sjoin::Duration timeout_us) override;
  sjoin::RecvResult RecvFromTimed(sjoin::Rank from,
                                  sjoin::Duration timeout_us) override;
  void AttachMetrics(sjoin::obs::MetricsRegistry* registry) override {
    inner_.AttachMetrics(registry);
  }

 private:
  void OnReceived(const sjoin::Message* msg, sjoin::Rank peer,
                  std::int64_t t0, std::int64_t t1);
  void PublishRegistry();

  sjoin::Transport& inner_;
  ClusterShm& shm_;
  RankShm& me_;
  std::uint32_t slaves_;
  bool traced_;
  sjoin::obs::MetricsRegistry* registry_;
  sjoin::obs::Counter* comparisons_ = nullptr;
  sjoin::obs::Counter* splits_ = nullptr;
};

/// Extra slave sink: digests every output pair, stamps each batch's first and
/// last emission, and records per output the delay from the newer input's
/// scheduled arrival to this call, plus the gap to the program's own
/// produced_at stamp. Called on the slave's join thread only.
class BenchSink final : public sjoin::JoinSink {
 public:
  BenchSink(ClusterShm& shm, RankShm& me) : shm_(shm), me_(me) {}
  BenchSink(const BenchSink&) = delete;
  BenchSink& operator=(const BenchSink&) = delete;
  void OnMatches(const sjoin::Rec& probe, std::span<const sjoin::Time> partner_ts,
                 sjoin::Time produced_at) override;

 private:
  ClusterShm& shm_;
  RankShm& me_;
  std::int64_t origin_ns_ = 0;
};

}  // namespace wallbench
