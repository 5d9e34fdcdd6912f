// sjoin_wallbench: the wall-clock cluster benchmark (see README.md).
//
//   sjoin_wallbench --workload paced|saturate|replicated|all --seed N
//                   --seconds S --trace 0|1 [--out DIR]
//
// Per workload it generates the seeded input, joins it with the reference
// join, times kBringUps cluster bring-ups, runs the cluster over the input with
// tracing off (the workload's number of times, pooling the figures) and checks
// every run's output. With --trace 1 it then runs the same
// input once more with spans on, prints the per-layer metrics and the
// tracing overhead, and writes the spans as a Perfetto-loadable JSON file.
// The last stdout line is one JSON object with the run's verdict and metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster.h"
#include "common/log.h"
#include "net/message.h"
#include "obs/trace.h"
#include "probes.h"
#include "workload.h"

namespace wallbench {
namespace {

using sjoin::MsgType;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  ///< what the value is a statistic of
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out = ".bench_build";
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

const sjoin::obs::WallStageSummary* FindStage(
    const std::vector<sjoin::obs::WallStageSummary>& stages, const char* name) {
  for (const auto& s : stages) {
    if (s.stage == name) return &s;
  }
  return nullptr;
}

const StageRow* FindStage(const RankShm& r, const std::string& name) {
  for (std::uint32_t i = 0; i < r.stage_count; ++i) {
    if (name == r.stages[i].stage) return &r.stages[i];
  }
  return nullptr;
}

/// Everything one workload invocation shares across its cluster runs.
struct Context {
  Workload w;
  sjoin::SystemConfig cfg;
  std::vector<sjoin::Rec> trace;
  ReferenceResult ref;
  double ktuples() const { return static_cast<double>(trace.size()) / 1000.0; }
};

/// Batches [first, end) of a span: batch k holds epoch k+1's input, so batch
/// first-1 is the one whose end fills the window.
struct BatchRange {
  std::uint32_t first;
  std::uint32_t end;
};
BatchRange Batches(const Span& span) {
  return {static_cast<std::uint32_t>(span.start_us / kEpochUs),
          static_cast<std::uint32_t>(span.end_us / kEpochUs)};
}

std::uint32_t Slaves(const ClusterRun& run) { return run.shm->get()->ranks - 2; }

/// Set-up is the median of this many bring-ups.
constexpr int kBringUps = 30;

/// One bring-up: mesh creation to the last slave's kMetrics for its first
/// batch, in a run whose epochs are 1 us long, so the master sends that
/// batch as soon as it is up and the batch carries at most a few tuples.
/// It covers forking every process, setting up every node -- both slave
/// threads and their worker pool included -- and one protocol round, and
/// does not grow with the workload's rate. Every process of a bring-up runs
/// on CPU 0, so a hand-off between them is a local context switch rather
/// than the wake-up of an idle vCPU, whose latency on a shared host swings
/// about 2x between phases of minutes.
double SetupSeconds(const ClusterRun& run) {
  std::int64_t last = 0;
  for (std::uint32_t s = 1; s <= Slaves(run); ++s) {
    const RankShm& r = run.Rank(s);
    if (r.batches_done == 0) throw std::runtime_error("a bring-up slave processed no batch");
    last = std::max(last, r.metrics_ns[0]);
  }
  return static_cast<double>(last - run.mesh_ns) / 1e9;
}

double SetupMedian(const ClusterSpec& spec) {
  ClusterSpec up = spec;
  up.cfg.epoch.t_dist = 1;
  up.run_for_us = 1;
  up.grace_us = 10 * sjoin::kUsPerSec;
  up.one_cpu = true;
  std::vector<double> setups;
  for (int i = 0; i < kBringUps; ++i) setups.push_back(SetupSeconds(RunCluster(up)));
  return Quantile(setups, 0.5);
}

// --- End-to-end ---------------------------------------------------------------

/// Tuples joined per second once the window is full: per slave, the tuples
/// of its batches in the workload's capacity span over the wall time from
/// the batch before the span to the span's last batch (kMetrics to
/// kMetrics), both summed over the runs; summed over slaves. Saturated, that
/// is the join's rate; paced, it is the offered rate.
Metric Capacity(const Context& c, std::span<const ClusterRun> runs) {
  double rate = 0;
  std::uint64_t batches = 0;
  const BatchRange b = Batches(c.w.capacity);
  for (std::uint32_t s = 1; s <= c.w.slaves; ++s) {
    std::uint64_t tuples = 0;
    std::int64_t dt = 0;
    for (const ClusterRun& run : runs) {
      const RankShm& r = run.Rank(s);
      const std::uint32_t end = std::min({b.end, r.batches_done, kMaxBatches});
      if (b.first == 0 || end <= b.first) continue;
      for (std::uint32_t k = b.first; k < end; ++k) tuples += r.batch_tuples[k];
      dt += r.metrics_ns[end - 1] - r.metrics_ns[b.first - 1];
      batches += end - b.first;
    }
    if (dt > 0) rate += static_cast<double>(tuples) * 1e9 / static_cast<double>(dt);
  }
  return {"capacity_tps", rate, "1/s", batches};
}

std::uint64_t SentBytes(const ClusterRun& run, std::initializer_list<MsgType> kinds,
                        bool exclude) {
  std::uint64_t total = 0;
  for (std::uint32_t r = 0; r < run.shm->get()->ranks; ++r) {
    for (std::uint32_t k = 0; k < kMaxKinds; ++k) {
      const bool listed = std::any_of(kinds.begin(), kinds.end(), [&](MsgType t) {
        return static_cast<std::uint32_t>(t) == k;
      });
      if (listed != exclude) total += run.Rank(r).sent_bytes[k].load();
    }
  }
  return total;
}

/// Delay quantiles over every output of the workload's delay span.
std::vector<Metric> Delays(std::span<const ClusterRun> runs) {
  auto h = std::make_unique<LogHist>();
  for (const ClusterRun& run : runs) {
    for (std::uint32_t s = 1; s <= Slaves(run); ++s) h->Merge(run.Rank(s).delay_ns);
  }
  return {{"delay_p50_ms", h->Quantile(0.50) / 1e6, "ms", h->Total()},
          {"delay_p99_ms", h->Quantile(0.99) / 1e6, "ms", h->Total()}};
}

/// Whole-run user + system CPU of the master and of every other cluster
/// process, per 1000 input tuples, over all runs; in the traced run the
/// per-layer master, slave and sink CPU figures add up to it.
double CollectorCpuS(const ClusterRun& run) { return run.nodes.back().cpu_s; }
double SlaveCpuS(const ClusterRun& run) {
  double cpu = 0;
  for (std::uint32_t s = 1; s <= Slaves(run); ++s) cpu += run.nodes[s - 1].cpu_s;
  return cpu;
}
Metric Cpu(const Context& c, std::span<const ClusterRun> runs) {
  double cpu = 0;
  std::uint64_t procs = 0;
  for (const ClusterRun& run : runs) {
    cpu += run.master_cpu_s + SlaveCpuS(run) + CollectorCpuS(run);
    procs += run.nodes.size() + 1;
  }
  return {"cpu_ms_per_ktuple", cpu * 1000 / c.ktuples() / static_cast<double>(runs.size()),
          "ms", procs};
}

/// Pooled over the runs: rates from their summed tuples and wall times,
/// delays from all their outputs, CPU and bytes per tuple from their sums,
/// memory as the mean of their peaks.
std::vector<Metric> EndToEnd(const Context& c, std::span<const ClusterRun> runs,
                             double setup_s, std::uint64_t setup_n) {
  std::vector<Metric> m;
  m.push_back(Capacity(c, runs));
  for (Metric& d : Delays(runs)) m.push_back(std::move(d));
  m.push_back(Cpu(c, runs));
  double mem = 0;
  std::uint64_t procs = 0, bytes = 0;
  for (const ClusterRun& run : runs) {
    mem += run.master_rss_mb;
    for (const ProcessResult& p : run.nodes) mem += p.maxrss_mb;
    procs += run.nodes.size() + 1;
    bytes += SentBytes(run, {}, true);
  }
  const auto n = static_cast<double>(runs.size());
  m.push_back({"mem_peak_mb", mem / n, "MB", procs});
  m.push_back({"net_bytes_per_tuple",
               static_cast<double>(bytes) / static_cast<double>(c.trace.size()) / n, "B",
               c.trace.size() * runs.size()});
  m.push_back({"setup_s", setup_s, "s", setup_n});
  return m;
}

// --- Correctness --------------------------------------------------------------

struct Verdict {
  std::uint64_t outputs = 0;
  std::uint64_t digest = 0;
  bool outputs_match = false;
  bool failed = false;  ///< wrong output, or a node killed or failed
};

Verdict Check(const Context& c, const ClusterRun& run) {
  Verdict v;
  for (std::uint32_t s = 1; s <= Slaves(run); ++s) {
    v.outputs += run.Rank(s).outputs;
    v.digest += run.Rank(s).digest;
  }
  v.outputs_match = v.outputs == c.ref.outputs && v.digest == c.ref.digest;
  v.failed = !v.outputs_match ||
             std::any_of(run.nodes.begin(), run.nodes.end(),
                         [](const ProcessResult& p) { return !p.exited_ok; });
  return v;
}

// --- Per-layer (traced run) -----------------------------------------------------

struct EpochBudget {
  std::vector<double> late, distribute, transfer, queue, pass, close;
  double unattributed_ms = 0;  ///< summed over the pairs
  std::uint64_t pairs = 0;
};

/// Epoch-close latency of each (epoch, slave): the epoch's schedule to the
/// slave's kMetrics for that batch. The five named spans follow the batch:
/// master lateness (schedule -> the epoch's first batch send), distribute
/// (-> this slave's send returns), transfer (-> the slave's receive
/// returns), queue wait (-> first sink call) and pass (-> the pass returns,
/// stamped at the slave's kResultStats send). What the slave does between
/// the pass and its kMetrics (result stats, the recorder snapshot, the
/// metrics encode) is none of them: it stays unattributed, and the spans
/// account for the close latency when that residual is within
/// kBudgetTolerancePct of it. Pairs count when the master's send and the
/// slave's receive carry the same trace-context id and the batch had
/// outputs (a pass without outputs sends no kResultStats).
constexpr double kBudgetTolerancePct = 5.0;

EpochBudget Budget(const ClusterRun& run) {
  EpochBudget b;
  const RankShm& m = run.Rank(0);
  const std::uint32_t n = Slaves(run);
  const std::uint32_t epochs = std::min(m.batches_out / std::max(n, 1u), kMaxBatches);
  for (std::uint32_t e = 0; e < epochs; ++e) {
    const std::int64_t sched = m.origin_ns + static_cast<std::int64_t>(e + 1) * kEpochUs * 1000;
    const std::int64_t first = m.epoch_send_ns[e][1];
    for (std::uint32_t s = 1; s <= n; ++s) {
      const RankShm& r = run.Rank(s);
      if (e >= std::min(r.batches_done, kMaxBatches)) continue;
      if (m.epoch_flow[e][s] != r.batch_flow[e] || r.first_out_ns[e] == 0 ||
          r.pass_end_ns[e] == 0) {
        continue;
      }
      ++b.pairs;
      const std::int64_t sent = m.epoch_sent_ns[e][s];
      b.late.push_back(Ms(first - sched));
      b.distribute.push_back(Ms(sent - first));
      b.transfer.push_back(Ms(r.recv_ns[e] - sent));
      b.queue.push_back(Ms(r.first_out_ns[e] - r.recv_ns[e]));
      b.pass.push_back(Ms(r.pass_end_ns[e] - r.first_out_ns[e]));
      b.close.push_back(Ms(r.metrics_ns[e] - sched));
      b.unattributed_ms += Ms(r.metrics_ns[e] - r.pass_end_ns[e]);
    }
  }
  return b;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

std::vector<Metric> PerLayer(const Context& c, const ClusterRun& run,
                             const std::vector<Metric>& plain,
                             const std::vector<Metric>& traced, double offered_tps) {
  std::vector<Metric> m;
  const double kt = c.ktuples();
  const double n_tuples = static_cast<double>(c.trace.size());
  const RankShm& master = run.Rank(0);
  const std::uint32_t n = Slaves(run);
  const std::uint32_t epochs = std::min(master.batches_out / std::max(n, 1u), kMaxBatches);

  // master
  std::vector<double> late, wait;
  for (std::uint32_t e = 0; e < epochs; ++e) {
    late.push_back(Ms(master.epoch_send_ns[e][1] - master.origin_ns) -
                   static_cast<double>((e + 1) * kEpochUs) / 1000.0);
    wait.push_back(Ms(master.report_wait_ns[e]));
  }
  m.push_back({"master.epoch_late_p99_ms", Quantile(late, 0.99), "ms", late.size()});
  const auto* dist = FindStage(run.master.wall_stages, "distribute");
  m.push_back({"master.distribute_ms_p50", dist ? dist->p50_us / 1000 : 0, "ms",
               dist ? dist->count : 0});
  m.push_back({"master.report_wait_ms_p50", Quantile(wait, 0.5), "ms", wait.size()});
  m.push_back({"master.cpu_ms_per_ktuple", run.master_cpu_s * 1000 / kt, "ms", 1});
  m.push_back({"master.rss_peak_mb", run.master_rss_mb, "MB", 1});

  // net
  const auto per_tuple = [&](std::uint64_t bytes) {
    return static_cast<double>(bytes) / n_tuples;
  };
  m.push_back({"net.bytes_per_tuple.tuple_batch",
               per_tuple(SentBytes(run, {MsgType::kTupleBatch, MsgType::kReplayBatch}, false)),
               "B", c.trace.size()});
  m.push_back({"net.bytes_per_tuple.checkpoint",
               per_tuple(SentBytes(run, {MsgType::kCheckpoint}, false)), "B", c.trace.size()});
  m.push_back({"net.bytes_per_tuple.metrics",
               per_tuple(SentBytes(run, {MsgType::kMetrics}, false)), "B", c.trace.size()});
  m.push_back({"net.bytes_per_tuple.control",
               per_tuple(SentBytes(run,
                                   {MsgType::kTupleBatch, MsgType::kReplayBatch,
                                    MsgType::kCheckpoint, MsgType::kMetrics},
                                   true)),
               "B", c.trace.size()});
  // The profiler's histograms keep no sums: a stage's total is estimated as
  // calls x median call.
  const auto* enc = FindStage(run.master.wall_stages, "codec_encode");
  m.push_back({"net.encode_us_per_ktuple",
               enc ? static_cast<double>(enc->count) * enc->p50_us / kt : 0, "us",
               enc ? enc->count : 0});
  // Decode from outside: batch receipt to the load report the comm thread
  // sends right after decoding it (decode plus the inbox push).
  double decode_ns = 0, send_ns = 0;
  std::uint64_t decodes = 0;
  for (std::uint32_t s = 1; s <= n; ++s) {
    const RankShm& r = run.Rank(s);
    for (std::uint32_t k = 0; k < std::min(r.batches_in.load(), kMaxBatches); ++k) {
      if (r.decoded_ns[k] == 0) continue;
      decode_ns += static_cast<double>(r.decoded_ns[k] - r.recv_ns[k]);
      ++decodes;
    }
  }
  for (std::uint32_t r = 0; r < n + 2; ++r) {
    send_ns += static_cast<double>(run.Rank(r).send_ns.load());
  }
  m.push_back({"net.decode_us_per_ktuple", decode_ns / 1000 / kt, "us", decodes});
  m.push_back({"net.send_ms_per_ktuple", send_ns / 1e6 / kt, "ms", 1});

  // slave
  std::vector<double> queue, turn;
  double slave_rss = 0;
  for (std::uint32_t s = 1; s <= n; ++s) {
    const RankShm& r = run.Rank(s);
    for (std::uint32_t k = 0; k < std::min(r.batches_done, kMaxBatches); ++k) {
      if (r.first_out_ns[k] != 0) queue.push_back(Ms(r.first_out_ns[k] - r.recv_ns[k]));
      turn.push_back(Ms(r.metrics_ns[k] - r.recv_ns[k]));
    }
    slave_rss += run.nodes[s - 1].maxrss_mb;
  }
  m.push_back({"slave.queue_wait_ms_p50", Quantile(queue, 0.5), "ms", queue.size()});
  m.push_back({"slave.batch_turnaround_ms_p50", Quantile(turn, 0.5), "ms", turn.size()});
  m.push_back({"slave.batch_turnaround_ms_p90", Quantile(turn, 0.9), "ms", turn.size()});
  m.push_back({"slave.cpu_ms_per_ktuple", SlaveCpuS(run) * 1000 / kt, "ms", n});
  m.push_back({"slave.rss_peak_mb", slave_rss, "MB", n});

  // join: a batch keeps the join thread busy from when its pass can start
  // (the batch decoded and the previous batch's kMetrics sent) to the pass's
  // end; on replicated that includes checkpoint work queued before it.
  double pass_p50 = 0, busy_s = 0, lane_max = 0;
  std::uint64_t busy_tuples = 0;
  std::uint64_t passes = 0, comparisons = 0, outputs = 0, splits = 0;
  std::uint64_t win_tuples = 0, win_bytes = 0, inspected = 0;
  double journal = 0, snapshot = 0;
  for (std::uint32_t s = 1; s <= n; ++s) {
    const RankShm& r = run.Rank(s);
    if (const StageRow* p = FindStage(r, "probe_insert")) {
      pass_p50 += p->p50_us / 1000 / n;
      passes += p->count;
    }
    for (std::uint32_t k = 0; k < std::min(r.batches_done, kMaxBatches); ++k) {
      if (r.pass_end_ns[k] == 0 || r.decoded_ns[k] == 0) continue;
      const std::int64_t start =
          k > 0 ? std::max(r.decoded_ns[k], r.metrics_ns[k - 1]) : r.decoded_ns[k];
      busy_s += static_cast<double>(r.pass_end_ns[k] - start) / 1e9;
      busy_tuples += r.batch_tuples[k];
    }
    for (std::uint32_t i = 0; i < r.stage_count; ++i) {
      if (std::strncmp(r.stages[i].stage, "probe_insert[w", 14) == 0) {
        lane_max = std::max(lane_max, r.stages[i].p50_us / 1000);
      }
    }
    if (const StageRow* j = FindStage(r, "ckpt_journal")) journal = std::max(journal, j->p50_us / 1000);
    if (const StageRow* j = FindStage(r, "ckpt_snapshot")) snapshot = std::max(snapshot, j->p50_us / 1000);
    comparisons += r.comparisons;
    outputs += r.outputs;
    splits += r.splits;
    win_tuples += r.window_tuples;
    win_bytes += r.window_bytes;
    inspected += r.inspected;
  }
  m.push_back({"join.pass_ms_p50", pass_p50, "ms", passes});
  m.push_back({"join.tuples_per_busy_s",
               busy_s > 0 ? static_cast<double>(busy_tuples) / busy_s : 0, "1/s", busy_tuples});
  m.push_back({"join.lane_ms_max_p50", lane_max, "ms", passes});
  m.push_back({"join.serial_ms_p50", lane_max > 0 ? pass_p50 - lane_max : 0, "ms", passes});
  m.push_back({"join.comparisons_per_tuple", static_cast<double>(comparisons) / n_tuples,
               "count", c.trace.size()});
  m.push_back({"join.outputs_per_tuple", static_cast<double>(outputs) / n_tuples, "count",
               c.trace.size()});

  // window (the end state is read by slave_inspect, which a killed slave
  // never reaches: `samples` says how many slaves reported)
  m.push_back({"window.tuples_end", static_cast<double>(win_tuples), "count", inspected});
  m.push_back({"window.mb_end", static_cast<double>(win_bytes) / 1e6, "MB", inspected});
  m.push_back({"window.splits", static_cast<double>(splits), "count", n});

  // repl
  m.push_back({"repl.ckpt_bytes_per_tuple",
               static_cast<double>(run.master.ckpt_bytes) / n_tuples, "B", run.master.ckpt_acks});
  m.push_back({"repl.ckpt_journal_ms_p50", journal, "ms", n});
  m.push_back({"repl.ckpt_snapshot_ms_p50", snapshot, "ms", n});
  m.push_back({"repl.shutdown_s",
               static_cast<double>(std::min(run.last_exit_ns, run.deadline_ns) - run.input_end_ns) / 1e9,
               "s", n + 2});

  // sink
  auto gap = std::make_unique<LogHist>();
  for (std::uint32_t s = 1; s <= n; ++s) gap->Merge(run.Rank(s).stamp_gap_ns);
  m.push_back({"sink.stamp_gap_p50_ms", gap->Quantile(0.50) / 1e6, "ms", gap->Total()});
  m.push_back({"sink.stamp_gap_p99_ms", gap->Quantile(0.99) / 1e6, "ms", gap->Total()});
  m.push_back({"sink.cpu_ms_per_ktuple", CollectorCpuS(run) * 1000 / kt, "ms", 1});

  // input and the single-threaded baseline
  m.push_back({"offered_tps", offered_tps, "1/s", c.trace.size()});
  m.push_back({"baseline.single_thread_tps", n_tuples / c.ref.seconds, "1/s", c.trace.size()});

  // epoch-close budget
  const EpochBudget b = Budget(run);
  const double close_mean = Mean(b.close);
  const double unattributed = b.pairs > 0 ? b.unattributed_ms / static_cast<double>(b.pairs) : 0;
  const double unattributed_pct = close_mean > 0 ? 100.0 * unattributed / close_mean : 0;
  m.push_back({"budget.close_ms_p50", Quantile(b.close, 0.5), "ms", b.pairs});
  m.push_back({"budget.close_ms_mean", close_mean, "ms", b.pairs});
  m.push_back({"budget.late_ms_mean", Mean(b.late), "ms", b.pairs});
  m.push_back({"budget.distribute_ms_mean", Mean(b.distribute), "ms", b.pairs});
  m.push_back({"budget.transfer_ms_mean", Mean(b.transfer), "ms", b.pairs});
  m.push_back({"budget.queue_ms_mean", Mean(b.queue), "ms", b.pairs});
  m.push_back({"budget.pass_ms_mean", Mean(b.pass), "ms", b.pairs});
  m.push_back({"budget.unattributed_ms_mean", unattributed, "ms", b.pairs});
  m.push_back({"budget.unattributed_pct", unattributed_pct, "%", b.pairs});
  std::printf("[%s] budget: the five spans leave %.2f %% of the mean epoch-close latency "
              "(%.2f ms) unattributed over %llu (epoch, slave) pairs; tolerance %.0f %%: %s\n",
              c.w.name.c_str(), unattributed_pct, close_mean,
              static_cast<unsigned long long>(b.pairs), kBudgetTolerancePct,
              b.pairs > 0 && unattributed_pct <= kBudgetTolerancePct ? "accounted" : "NOT accounted");

  // Tracing overhead: how much worse (in %) each end-to-end metric reads in
  // the traced run than in the untraced run of the same seed.
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const double base = plain[i].value;
    const double worse = plain[i].name == "capacity_tps" ? -1.0 : 1.0;
    m.push_back({"trace_overhead." + plain[i].name,
                 base != 0 ? worse * 100.0 * (traced[i].value - base) / base : 0, "%", 2});
  }
  return m;
}

// --- Spans ----------------------------------------------------------------------

void WriteSpans(const ClusterRun& run, const std::string& path) {
  using sjoin::obs::TraceEvent;
  std::vector<TraceEvent> ev;
  const std::int64_t t0 = run.mesh_ns;
  auto us = [&](std::int64_t ns) { return static_cast<sjoin::Time>((ns - t0) / 1000); };
  auto span = [&](std::string name, std::string cat, sjoin::Rank pid, std::uint32_t tid,
                  std::int64_t a, std::int64_t b, sjoin::obs::TraceArgs args = {}) {
    TraceEvent e;
    e.name = std::move(name);
    e.cat = std::move(cat);
    e.ph = 'X';
    e.ts = us(a);
    e.dur = std::max<sjoin::Duration>(0, us(b) - us(a));
    e.pid = pid;
    e.tid = tid;
    e.args = std::move(args);
    ev.push_back(std::move(e));
  };
  constexpr std::uint32_t kBatchTrack = 1;
  const ClusterShm& shm = *run.shm->get();
  for (sjoin::Rank r = 0; r < shm.ranks; ++r) {
    const RankShm& rs = shm.rank[r];
    span(r == 0 ? "RunMasterNode" : r <= Slaves(run) ? "RunSlaveNode" : "RunCollectorNode",
         "node", r, 0, rs.start_ns, rs.exit_ns);
    const std::uint32_t count = std::min(rs.span_count.load(), kMaxSpans);
    for (std::uint32_t i = 0; i < count; ++i) {
      const SpanRec& s = rs.spans[i];
      const std::string kind = sjoin::MsgTypeName(static_cast<MsgType>(s.kind));
      const char* verb = s.name == SpanName::kSend ? "send " : "recv ";
      span(s.name == SpanName::kRecvTimeout ? "recv timeout" : verb + kind, "transport", r,
           s.tid, s.start_ns, s.end_ns,
           {{"peer", s.peer}, {"bytes", static_cast<std::int64_t>(s.bytes)}});
      if (s.flow == 0 || s.kind != static_cast<std::uint8_t>(MsgType::kTupleBatch)) continue;
      TraceEvent f;
      f.name = "batch";
      f.cat = "flow";
      f.ph = s.name == SpanName::kSend ? 's' : 'f';
      f.ts = us(s.name == SpanName::kSend ? s.start_ns : s.end_ns - 1000);
      f.pid = r;
      f.tid = s.tid;
      f.id = s.flow;
      ev.push_back(std::move(f));
    }
  }
  // Derived per-epoch and per-batch tracks, on a track of their own.
  const RankShm& m = shm.rank[0];
  const std::uint32_t n = Slaves(run);
  for (std::uint32_t e = 0; e < std::min(m.batches_out / std::max(n, 1u), kMaxBatches); ++e) {
    const std::int64_t sched = m.origin_ns + static_cast<std::int64_t>(e + 1) * kEpochUs * 1000;
    const std::int64_t last = m.epoch_sent_ns[e][n];
    const sjoin::obs::TraceArgs a{{"epoch", e + 1}};
    span("epoch", "master", 0, kBatchTrack, sched, last, a);
    span("late", "master", 0, kBatchTrack, sched, m.epoch_send_ns[e][1], a);
    span("distribute", "master", 0, kBatchTrack, m.epoch_send_ns[e][1], last, a);
  }
  for (std::uint32_t s = 1; s <= n; ++s) {
    const RankShm& r = shm.rank[s];
    for (std::uint32_t k = 0; k < std::min(r.batches_done, kMaxBatches); ++k) {
      const sjoin::obs::TraceArgs a{{"epoch", k + 1}, {"tuples", r.batch_tuples[k]}};
      const std::int64_t out = r.first_out_ns[k] != 0 ? r.first_out_ns[k] : r.metrics_ns[k];
      span("batch", "slave", s, kBatchTrack, r.recv_ns[k], r.metrics_ns[k], a);
      span("queue_wait", "slave", s, kBatchTrack, r.recv_ns[k], out, a);
      if (r.first_out_ns[k] != 0 && r.pass_end_ns[k] != 0) {
        span("pass", "slave", s, kBatchTrack, r.first_out_ns[k], r.pass_end_ns[k], a);
        span("unattributed", "slave", s, kBatchTrack, r.pass_end_ns[k], r.metrics_ns[k], a);
      }
      if (r.first_out_ns[k] != 0) {
        span("emission", "sink", s, kBatchTrack, r.first_out_ns[k], r.last_out_ns[k], a);
      }
    }
    sjoin::obs::TraceArgs stages;
    for (std::uint32_t i = 0; i < r.stage_count; ++i) {
      stages.emplace_back(std::string(r.stages[i].stage) + ".p50_us",
                          static_cast<std::int64_t>(r.stages[i].p50_us));
      stages.emplace_back(std::string(r.stages[i].stage) + ".count",
                          static_cast<std::int64_t>(r.stages[i].count));
    }
    TraceEvent st;
    st.name = "wall_stages";
    st.cat = "profiler";
    st.ph = 'i';
    st.ts = us(r.exit_ns);
    st.pid = s;
    st.args = std::move(stages);
    ev.push_back(std::move(st));
  }
  std::stable_sort(ev.begin(), ev.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts < b.ts; });
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream(path) << sjoin::obs::ExportChromeJson(ev);
}

// --- Workload runs --------------------------------------------------------------

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

void PrintMetrics(const std::string& workload, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-10s %-38s %16.6g %-6s n=%llu\n", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
}

Outcome RunWorkload(const std::string& name, const Args& a) {
  Context c;
  c.w = MakeWorkload(name, a.seconds);
  c.cfg = MakeConfig(c.w, a.seed);
  c.trace = GenerateTrace(c.w, a.seed);
  c.ref = ReferenceJoin(c.trace, c.w.window_us);
  // Offered load as generated, over the last phase of the input (the one
  // capacity_tps is measured in).
  sjoin::Time last_phase = 0;
  for (std::size_t i = 0; i + 1 < c.w.phases.size(); ++i) last_phase += c.w.phases[i].duration_us;
  const auto from = std::lower_bound(
      c.trace.begin(), c.trace.end(), last_phase,
      [](const sjoin::Rec& r, sjoin::Time t) { return r.ts < t; });
  const double span_s = static_cast<double>(c.trace.back().ts - from->ts) / 1e6;
  const double offered =
      span_s > 0 ? static_cast<double>(c.trace.end() - from - 1) / span_s : 0;
  std::printf("[%s] seed=%llu tuples=%zu offered_tps=%.0f window_s=%.1f slaves=%u "
              "workers=%u replication=%d reference: outputs=%llu in %.2fs\n",
              name.c_str(), static_cast<unsigned long long>(a.seed), c.trace.size(),
              offered, static_cast<double>(c.w.window_us) / 1e6, c.w.slaves, c.w.workers,
              c.w.replication ? 1 : 0, static_cast<unsigned long long>(c.ref.outputs),
              c.ref.seconds);
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "wallbench: cannot reset the peak-RSS mark; master memory "
                         "includes the reference join\n");
  }

  ClusterSpec spec;
  spec.cfg = c.cfg;
  spec.trace = &c.trace;
  spec.fill_us = c.w.delay.start_us;
  spec.delay_end_us = c.w.delay.end_us;

  const double setup_s = SetupMedian(spec);
  spec.grace_us = c.w.grace_us;
  Outcome out;
  out.attempted = c.trace.size() * static_cast<std::uint64_t>(c.w.runs);
  auto verdict = [&](const ClusterRun& run, const std::string& label) {
    const Verdict v = Check(c, run);
    out.correct = out.correct && v.outputs_match;
    if (v.failed) out.failed = out.attempted;
    std::printf("[%s] %s run: outputs=%llu (reference %llu) digest %s, %s, "
                "migrations=%llu dead_slaves=%u, capacity_tps=%.0f; attempted=%zu failed=%zu\n",
                name.c_str(), label.c_str(), static_cast<unsigned long long>(v.outputs),
                static_cast<unsigned long long>(c.ref.outputs),
                v.digest == c.ref.digest ? "matches" : "DIFFERS",
                run.deadline_hit ? "KILLED at the deadline"
                : v.failed       ? "a node FAILED"
                                 : "exited in time",
                static_cast<unsigned long long>(run.master.migrations),
                run.master.dead_slaves, Capacity(c, {&run, 1}).value, c.trace.size(),
                v.failed ? c.trace.size() : 0);
  };

  std::vector<ClusterRun> plain;
  for (int i = 1; i <= c.w.runs; ++i) {
    plain.push_back(RunCluster(spec));
    verdict(plain.back(), "untraced " + std::to_string(i) + "/" + std::to_string(c.w.runs));
  }
  const std::vector<Metric> e2e = EndToEnd(c, plain, setup_s, kBringUps);
  if (!a.trace) {
    out.metrics = e2e;
    PrintMetrics(name, out.metrics);
    return out;
  }

  spec.traced = true;
  const ClusterRun traced = RunCluster(spec);
  verdict(traced, "traced");
  const std::vector<Metric> e2e_traced =
      EndToEnd(c, {&traced, 1}, SetupMedian(spec), kBringUps);
  out.metrics = PerLayer(c, traced, e2e, e2e_traced, offered);
  const std::string path = a.out + "/spans/" + name + "-seed" + std::to_string(a.seed) + ".json";
  WriteSpans(traced, path);
  std::printf("[%s] spans: %s\n", name.c_str(), path.c_str());
  PrintMetrics(name, out.metrics);
  return out;
}

void PrintJson(const Outcome& o) {
  std::string s = "{\"correct\": ";
  s += o.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(o.attempted);
  s += ", \"failed\": " + std::to_string(o.failed);
  s += ", \"metrics\": {";
  char buf[256];  // a name (<= 64 + a workload prefix), a unit (<= 16), a number
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                  m.unit.c_str());
    s += buf;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stoi(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.seconds < 1 || a.seconds > 60) throw std::invalid_argument("--seconds out of range");
  return a;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) {
  using namespace wallbench;
  try {
    sjoin::SetLogLevel(sjoin::LogLevel::kWarn);
    const Args a = Parse(argc, argv);
    std::vector<std::string> names{a.workload};
    if (a.workload == "all") names = {"paced", "saturate", "replicated"};
    Outcome total;
    for (const std::string& name : names) {
      Outcome o = RunWorkload(name, a);
      total.correct = total.correct && o.correct;
      total.attempted += o.attempted;
      total.failed += o.failed;
      for (Metric& m : o.metrics) {
        if (names.size() > 1) m.name = name + "." + m.name;
        total.metrics.push_back(std::move(m));
      }
    }
    PrintJson(total);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: %s\n", e.what());
    return 1;
  }
}
