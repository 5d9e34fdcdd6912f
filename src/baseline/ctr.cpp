#include "baseline/ctr.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "gen/stream_source.h"
#include "join/sink.h"
#include "net/codec.h"
#include "window/mini_partition.h"

namespace sjoin {

namespace {

struct CtrNode {
  std::unique_ptr<MiniPartition> window[kStreamCount];
  std::deque<Rec> pending;
  Time free_at = 0;
  StatsSink sink;
  SlaveStats stats;
  Time latest_ts = 0;
};

}  // namespace

RunMetrics RunCtr(const SystemConfig& cfg, const CtrOptions& opts) {
  const Duration td = cfg.epoch.t_dist;
  const Time t_end = opts.warmup + opts.measure;
  const CostModel& cm = cfg.cost;
  const std::size_t tb = cfg.workload.tuple_bytes;
  const std::uint32_t n = cfg.num_slaves;
  const std::size_t block_cap = cfg.BlockCapacity();
  const Duration window = cfg.join.window;

  MergedSource source(cfg.workload.lambda, cfg.workload.b_skew,
                      cfg.workload.key_domain, cfg.workload.seed);
  std::vector<CtrNode> nodes(n);
  for (CtrNode& node : nodes) {
    for (StreamId s = 0; s < kStreamCount; ++s) {
      node.window[s] = std::make_unique<MiniPartition>(block_cap, s);
    }
  }

  RunMetrics rm;
  rm.measured = opts.measure;
  bool measuring = opts.warmup == 0;
  std::uint64_t generated = 0;

  // Storage owner of a tuple: round-robin by time segment (the "stream
  // segments distributed across the participating nodes").
  auto owner_of = [&](Time ts) {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(ts) /
         static_cast<std::uint64_t>(opts.segment)) %
        n);
  };

  std::vector<Rec> batch;
  std::vector<Time> scratch;  // one probe's partner timestamps
  for (Time t = 0; t < t_end; t += td) {
    const Time t_next = std::min<Time>(t + td, t_end);

    if (!measuring && t >= opts.warmup) {
      measuring = true;
      generated = 0;
      for (CtrNode& node : nodes) {
        node.sink.Reset();
        node.stats = SlaveStats{};
      }
    }

    batch.clear();
    source.DrainUntil(t, batch);
    if (measuring) generated += batch.size();

    // Cascade: EVERY node receives the full batch (each holds a share of
    // both windows, so each must probe every tuple).
    const std::size_t bytes = TupleBatchMsg::WireSize(batch.size(), tb) + 9;
    const Duration hop = cm.MessageCost(bytes);
    for (std::uint32_t i = 0; i < n; ++i) {
      CtrNode& node = nodes[i];
      node.stats.comm_xfer += hop;
      node.free_at = std::max(node.free_at, t) + hop;
      node.pending.insert(node.pending.end(), batch.begin(), batch.end());
    }

    // Processing, bounded by this epoch's budget (backlog carries over).
    for (std::uint32_t i = 0; i < n; ++i) {
      CtrNode& node = nodes[i];
      Time busy = std::max(node.free_at, t);
      while (!node.pending.empty() && busy < t_next) {
        Rec rec = node.pending.front();
        node.pending.pop_front();
        node.latest_ts = std::max(node.latest_ts, rec.ts);

        Duration c = cm.TupleFixedCost(1);
        const MiniPartition& opp = *node.window[Opposite(rec.stream)];
        const std::size_t cmp = opp.SealedCount();
        node.stats.comparisons += cmp;
        c += cm.CmpCost(cmp);
        busy += c;
        node.stats.cpu_busy += c;

        auto partners = opp.ProbeSealed(rec.key, rec.ts - window,
                                        rec.ts + window, scratch);
        if (!partners.empty()) {
          node.stats.outputs += partners.size();
          node.sink.OnMatches(rec, partners, busy);
        }
        if (owner_of(rec.ts) == i) {
          node.window[rec.stream]->InstallSealed(rec);
        }
        ++node.stats.processed;
      }
      if (node.pending.empty() && busy < t_next) {
        node.stats.idle += t_next - busy;
      }
      node.free_at = busy;

      // Expiry at epoch granularity.
      for (StreamId s = 0; s < kStreamCount; ++s) {
        (void)node.window[s]->ExpireBlocks(node.latest_ts - window);
      }
      node.stats.window_tuples_max = std::max(
          node.stats.window_tuples_max,
          node.window[0]->TotalCount() + node.window[1]->TotalCount());
    }
  }

  rm.tuples_generated = generated;
  rm.active_slaves_end = n;
  rm.avg_active_slaves = n;
  for (CtrNode& node : nodes) {
    node.stats.delay_us = node.sink.DelayUs();
    node.stats.active_at_end = true;
    node.stats.buffered_end = node.pending.size();
    rm.delay_us.Merge(node.stats.delay_us);
    rm.slaves.push_back(node.stats);
  }
  return rm;
}

}  // namespace sjoin
