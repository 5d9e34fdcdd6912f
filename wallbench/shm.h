// Shared-memory record of one cluster run.
//
// The launcher maps one anonymous MAP_SHARED region per cluster run before it
// forks the nodes; every process writes its own RankShm and the launcher reads
// all of them after the processes are gone -- also after it had to kill one,
// which is why nothing here lives on a node's heap. Every timestamp is a raw
// CLOCK_MONOTONIC reading in nanoseconds, which all processes of the host
// share, so events of different ranks compare directly.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>

namespace wallbench {

inline constexpr std::uint32_t kMaxRanks = 8;      // master + slaves + collector
inline constexpr std::uint32_t kMaxBatches = 2048; // epochs per run
inline constexpr std::uint32_t kMaxKinds = 32;     // MsgType values
inline constexpr std::uint32_t kMaxStages = 24;
inline constexpr std::uint32_t kMaxSpans = 1u << 16;

std::int64_t NowNs();

/// Log-linear histogram of non-negative values: 2^kSubBits linear buckets per
/// power of two, so a quantile is exact to 1/2^kSubBits of its value. One
/// writer thread; the launcher reads it after the writer has exited.
class LogHist {
 public:
  static constexpr int kSubBits = 7;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;

  void Add(std::uint64_t v, std::uint64_t weight = 1) {
    counts_[Index(v)] += weight;
    total_ += weight;
  }
  std::uint64_t Total() const { return total_; }
  /// Value below which a share `q` of the weight lies (linear within its
  /// bucket).
  double Quantile(double q) const;
  void Merge(const LogHist& other);

 private:
  // Values below 2*kSub index themselves; above, bucket width is
  // 2^shift for the power of two [2^(shift+kSubBits), 2^(shift+kSubBits+1)).
  static int Index(std::uint64_t v) {
    if (v < 2 * static_cast<std::uint64_t>(kSub)) return static_cast<int>(v);
    const int shift = 63 - std::countl_zero(v) - kSubBits;
    return shift * kSub + static_cast<int>(v >> shift);
  }
  static double Lower(int idx);

  std::uint64_t counts_[kBuckets];
  std::uint64_t total_;
};

/// One wall-stage row of the program's profiler, copied out of a node's
/// registry (obs::SummarizeWallStages) so it survives the node.
struct StageRow {
  char stage[40];
  std::uint64_t count;
  double p50_us;
};

enum class SpanName : std::uint8_t {
  kSend,
  kRecv,
  kRecvTimeout,
};

/// One span in a rank's in-memory trace; `kind` is the MsgType of the frame.
struct SpanRec {
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t tid;
  std::uint32_t peer;
  std::uint64_t bytes;
  std::uint64_t flow;  ///< frame trace context (parent_span), 0 = none
  SpanName name;
  std::uint8_t kind;
};

struct RankShm {
  // Every frame this rank handed to its transport, by MsgType; both slave
  // threads send, hence atomics.
  std::atomic<std::uint64_t> sent_bytes[kMaxKinds];
  std::atomic<std::int64_t> send_ns;  ///< time spent inside Send

  // Slave, per received tuple batch k (arrival order).
  std::atomic<std::uint32_t> batches_in;
  std::uint32_t batches_done;  ///< kMetrics frames sent (join thread)
  std::uint32_t batch_tuples[kMaxBatches];
  std::int64_t recv_ns[kMaxBatches];       ///< comm thread: Recv returned
  /// comm thread: the load report that follows decoding the batch
  std::int64_t decoded_ns[kMaxBatches];
  std::int64_t first_out_ns[kMaxBatches];  ///< join thread: first sink call
  std::int64_t last_out_ns[kMaxBatches];
  /// join thread: the pass over the batch returned (its kResultStats send;
  /// none for a batch without outputs)
  std::int64_t pass_end_ns[kMaxBatches];
  std::int64_t metrics_ns[kMaxBatches];  ///< join thread: kMetrics sent
  std::uint64_t batch_flow[kMaxBatches];

  // Slave sink: every output pair and its delays.
  std::uint64_t outputs;
  std::uint64_t digest;
  /// Sink call - newer input's schedule, for newer inputs scheduled in
  /// [fill_us, delay_end_us).
  LogHist delay_ns;
  LogHist stamp_gap_ns;  ///< sink call - the program's produced_at

  // Slave registry and window state.
  std::uint64_t comparisons;
  std::uint64_t splits;
  std::uint32_t stage_count;
  StageRow stages[kMaxStages];
  std::uint32_t inspected;
  std::uint64_t window_tuples;
  std::uint64_t window_bytes;

  // Master, per epoch e (0-based).
  std::int64_t origin_ns;  ///< the master WallClock's zero
  std::uint32_t batches_out;
  std::int64_t epoch_send_ns[kMaxBatches][kMaxRanks];  ///< Send entry
  std::int64_t epoch_sent_ns[kMaxBatches][kMaxRanks];  ///< Send return
  std::uint64_t epoch_flow[kMaxBatches][kMaxRanks];
  std::int64_t report_wait_ns[kMaxBatches];

  std::int64_t start_ns;  ///< node call entered
  std::int64_t exit_ns;   ///< node call returned (or the process was killed)

  std::atomic<std::uint32_t> span_count;
  SpanRec spans[kMaxSpans];

  void AddSpan(const SpanRec& s) {
    const std::uint32_t i = span_count.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSpans) spans[i] = s;
  }
};

/// The whole region: one RankShm per rank plus run-wide settings.
struct ClusterShm {
  std::uint32_t ranks;
  std::uint32_t traced;
  std::int64_t fill_us;       ///< delays count from this newer-input schedule
  std::int64_t delay_end_us;  ///< up to this one
  std::atomic<std::int64_t> origin_ns;  ///< master clock zero, for slaves
  RankShm rank[kMaxRanks];
};

/// Owns the mapping; zero-filled by the kernel, so nothing is touched until
/// a process writes it.
class ShmRegion {
 public:
  ShmRegion();
  ~ShmRegion();
  ShmRegion(const ShmRegion&) = delete;
  ShmRegion& operator=(const ShmRegion&) = delete;
  ClusterShm* get() const { return shm_; }

 private:
  ClusterShm* shm_;
};

}  // namespace wallbench
