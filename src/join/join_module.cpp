#include "join/join_module.h"

#include <algorithm>
#include <cassert>

#include "core/worker_pool.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace sjoin {

JoinModule::JoinModule(const SystemConfig& cfg, JoinSink* sink)
    : join_cfg_(cfg.join),
      cost_(cfg.cost),
      tuple_bytes_(cfg.workload.tuple_bytes),
      num_partitions_(cfg.join.num_partitions),
      window_(cfg.join.window),
      sink_(sink),
      store_(cfg.join, cfg.workload.tuple_bytes) {
  assert(sink != nullptr);
}

void JoinModule::AttachMetrics(obs::MetricsRegistry* reg) {
  if (reg == nullptr) return;
  reg_ = reg;
  obs_tuning_ = &reg->GetCounter("join_tuning_moves");
  wall_probe_insert_ = &obs::WallStage(*reg, obs::kStageProbeInsert);
  store_.SetGroupCounters(&reg->GetCounter("group_splits"),
                          &reg->GetCounter("group_merges"));
  EnsureWorkerObs();
}

void JoinModule::SetWorkerPool(WorkerPool* pool) {
  pool_ = pool;
  const std::uint32_t k = pool_ != nullptr ? pool_->WorkerCount() : 1;
  if (k > 1 && lanes_.size() != k) {
    // Built once: RunOnAll takes the job by reference, and a fresh lambda
    // per batch would re-allocate its capture block on every pass. The
    // per-pass parameters travel through pass_* members instead.
    pass_job_ = [this](std::uint32_t w) { RunLane(w); };
    lanes_.clear();
    lanes_.resize(k);
    for (WorkerLane& lane : lanes_) lane.staging.Resize(num_partitions_);
    lane_of_.resize(num_partitions_);
    for (PartitionId pid = 0; pid < num_partitions_; ++pid) {
      lane_of_[pid] = WorkerOf(pid, k);
      lanes_[lane_of_[pid]].pids.push_back(pid);
    }
  }
  EnsureWorkerObs();
}

void JoinModule::EnsureWorkerObs() {
  if (reg_ == nullptr || pool_ == nullptr || pool_->WorkerCount() <= 1) return;
  if (c_worker_busy_ != nullptr) return;
  c_worker_busy_ = &reg_->GetCounter("worker_busy_cost");
  wall_workers_.resize(pool_->WorkerCount());
  for (std::uint32_t k = 0; k < pool_->WorkerCount(); ++k) {
    wall_workers_[k] = &obs::WallStageWorker(*reg_, obs::kStageProbeInsert, k);
  }
}

void JoinModule::EnqueueBatch(std::span<const Rec> recs) {
  buffer_.insert(buffer_.end(), recs.begin(), recs.end());
}

Duration JoinModule::ProcessFor(Time from, Duration budget) {
  // Wall-time the probe/insert batch only when there is work: the drivers
  // poll ProcessFor every slot, and empty polls would flood the histogram
  // with meaningless sub-microsecond samples.
  obs::ScopedTimer wall(buffer_.empty() ? nullptr : wall_probe_insert_);
  if (pool_ != nullptr && pool_->WorkerCount() > 1) {
    return ProcessParallel(from, budget);
  }
  return ProcessSerial(from, budget);
}

Duration JoinModule::ProcessSerial(Time from, Duration budget) {
  PassCtx ctx;
  ctx.sink = sink_;
  ctx.scratch = &serial_scratch_;
  Duration used = 0;
  while (!buffer_.empty() && used < budget) {
    Rec rec = buffer_.front();
    buffer_.pop_front();
    used += cost_.TupleFixedCost(1);
    const PartitionId pid = PartitionOf(rec.key, num_partitions_);
    PartitionGroup& group = store_.Ensure(pid);
    MiniGroup& mg = group.GroupFor(rec.key);
    mg.Part(rec.stream).Insert(rec);
    group.AddCount(1);
    ++ctx.processed;
    if (mg.Part(rec.stream).HeadFull()) {
      used += FlushMiniGroup(group, mg, from + used, ctx);
    }
  }
  if (buffer_.empty()) {
    used += FlushAllPartials(from + used, ctx);
  }
  FoldStats(ctx);
  return used;
}

Duration JoinModule::ProcessParallel(Time from, Duration budget) {
  // Fan out through the pre-built pass job (no per-batch allocation). The
  // lanes only read buffer_ and touch their own pids' store slots.
  pass_from_ = from;
  pass_budget_ = budget;
  pool_->RunOnAll(pass_job_);

  // Re-queue the leftovers in arrival order: a lane whose budget ran out
  // left every own tuple from its stop index on, exactly the tail the
  // serial pass would have left for those groups.
  std::size_t first_stop = buffer_.size();
  for (const WorkerLane& lane : lanes_) {
    first_stop = std::min(first_stop, lane.stop);
  }
  std::size_t kept = first_stop;
  for (std::size_t i = first_stop; i < buffer_.size(); ++i) {
    const Rec rec = buffer_[i];
    if (i >= lanes_[lane_of_[PartitionOf(rec.key, num_partitions_)]].stop) {
      buffer_[kept++] = rec;
    }
  }
  buffer_.erase(buffer_.begin() + static_cast<std::ptrdiff_t>(kept),
                buffer_.end());
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(first_stop));

  // Deterministic merge: emissions ordered by (group-id, seq). Each pid's
  // entries sit in its owning lane, already in seq order.
  std::uint64_t merged_outputs = 0;
  for (PartitionId pid = 0; pid < num_partitions_; ++pid) {
    merged_outputs += lanes_[lane_of_[pid]].staging.Drain(pid, *sink_);
  }

  // Fold tallies and account the epoch: the slave's clock advances by the
  // critical path over workers plus the merge, while worker_busy_cost
  // records the summed (parallel) work for utilization analysis.
  Duration critical = 0;
  std::uint64_t busy = 0;
  for (WorkerLane& lane : lanes_) {
    lane.staging.ClearArena();
    FoldStats(lane.stats);
    critical = std::max(critical, lane.used);
    busy += static_cast<std::uint64_t>(lane.used);
  }
  worker_busy_us_ += busy;
  if (c_worker_busy_ != nullptr) c_worker_busy_->Add(busy);
  return critical + cost_.MergeCost(merged_outputs);
}

void JoinModule::RunLane(std::uint32_t w) {
  WorkerLane& lane = lanes_[w];
  obs::ScopedTimer wall(w < wall_workers_.size() ? wall_workers_[w] : nullptr);
  PassCtx& ctx = lane.stats;
  ctx = PassCtx{};
  ctx.sink = &lane.staging;
  ctx.scratch = &lane.scratch;
  const Time from = pass_from_;
  Duration used = 0;
  // Route in place: every lane scans the whole buffer and takes its own
  // pids' tuples, so each group's tuple subsequence is exactly the one the
  // serial pass would process. Ensure() only writes this pid's slot.
  const std::deque<Rec>& input = buffer_;
  std::size_t i = 0;
  for (auto it = input.begin(); it != input.end(); ++it, ++i) {
    const Rec& rec = *it;
    const PartitionId pid = PartitionOf(rec.key, num_partitions_);
    if (lane_of_[pid] != w) continue;
    if (used >= pass_budget_) break;
    used += cost_.TupleFixedCost(1);
    PartitionGroup& group = store_.Ensure(pid);
    MiniGroup& mg = group.GroupFor(rec.key);
    mg.Part(rec.stream).Insert(rec);
    group.AddCount(1);
    ++ctx.processed;
    if (mg.Part(rec.stream).HeadFull()) {
      lane.staging.SetPartition(pid);
      used += FlushMiniGroup(group, mg, from + used, ctx);
    }
  }
  lane.stop = i;
  if (i == input.size()) {
    // This lane drained: flush partial head blocks of its own groups (the
    // serial buffer-drain rule, restricted to this lane's pids -- other
    // lanes may be creating groups in their slots right now).
    for (PartitionId pid : lane.pids) {
      PartitionGroup* group = store_.Find(pid);
      if (group == nullptr) continue;
      lane.staging.SetPartition(pid);
      used += FlushGroupPartials(*group, from + used, ctx);
    }
  }
  lane.used = used;
  if (ctx.processed == 0) wall.Cancel();
}

Duration JoinModule::FlushMiniGroup(PartitionGroup& group, MiniGroup& mg,
                                    Time work_start, PassCtx& ctx) {
  Duration c = 0;
  std::uint64_t tune_key = 0;
  bool have_key = false;
  ProbeScratch& scratch = *ctx.scratch;

  // Probe each stream's fresh batch against the opposite *sealed* records,
  // sealing stream 0 before stream 1 probes so cross-fresh pairs are emitted
  // exactly once (the paper's duplicate-elimination rule). The whole batch
  // probes in one interleaved walk, which emits in fresh order.
  for (StreamId s = 0; s < kStreamCount; ++s) {
    MiniPartition& part = mg.Part(s);
    const std::size_t fresh = part.FreshCount();
    if (fresh == 0) continue;
    tune_key = part.FreshRecord(0).key;
    have_key = true;
    const MiniPartition& opp = mg.Part(Opposite(s));
    const std::size_t cmp = fresh * opp.SealedCount();
    ctx.comparisons += cmp;
    c += cost_.CmpCost(cmp);
    const Time produced_at = work_start + c;
    scratch.probes.clear();
    for (std::size_t i = 0; i < fresh; ++i) {
      const Rec r = part.FreshRecord(i);
      scratch.probes.push_back({r.key, r.ts - window_, r.ts + window_});
      if (journal_enabled_) group.AppendJournal(r);
    }
    opp.ProbeSealedBatch(
        scratch.probes, scratch.batch,
        [&](std::size_t i, std::span<const Time> partners) {
          if (partners.empty()) return;
          ctx.outputs += partners.size();
          ctx.sink->OnMatches(part.FreshRecord(i), partners, produced_at);
        });
    part.Seal();
  }

  // Both streams have probed and sealed, so no fresh tuple is left for an
  // expiring block to join: the paper's completeness rule holds here by
  // construction, and expiry only drops records.
  const Time low_ts = mg.MaxSeenTs() - window_;
  for (StreamId s = 0; s < kStreamCount; ++s) {
    const std::size_t expired = mg.Part(s).ExpireBlocks(low_ts);
    group.AddCount(-static_cast<std::ptrdiff_t>(expired));
  }

  if (have_key) {
    // NOTE: a split/merge invalidates `mg`; nothing touches it afterwards.
    const std::size_t moved = group.MaybeTune(tune_key);
    ctx.tuning_moves += moved;
    // obs::Counter is a relaxed atomic: safe from concurrent workers.
    if (obs_tuning_ != nullptr && moved > 0) obs_tuning_->Add(moved);
    c += cost_.MoveCost(moved);
  }
  return c;
}

Duration JoinModule::FlushGroupPartials(PartitionGroup& group, Time from,
                                        PassCtx& ctx) {
  // Flushing may split/merge mini-groups (invalidating any directory
  // iteration), so locate one fresh mini-group at a time.
  Duration c = 0;
  while (true) {
    MiniGroup* target = nullptr;
    group.ForEachMiniGroup([&](MiniGroup& mg) {
      if (target == nullptr &&
          (mg.Part(0).FreshCount() > 0 || mg.Part(1).FreshCount() > 0)) {
        target = &mg;
      }
    });
    if (target == nullptr) break;
    c += FlushMiniGroup(group, *target, from + c, ctx);
  }
  return c;
}

Duration JoinModule::FlushAllPartials(Time from, PassCtx& ctx) {
  Duration c = 0;
  store_.ForEachGroup([&](PartitionId /*pid*/, PartitionGroup& group) {
    c += FlushGroupPartials(group, from + c, ctx);
  });
  return c;
}

void JoinModule::FoldStats(const PassCtx& ctx) {
  comparisons_ += ctx.comparisons;
  outputs_ += ctx.outputs;
  processed_ += ctx.processed;
  tuning_moves_ += ctx.tuning_moves;
}

std::unique_ptr<PartitionGroup> JoinModule::ExtractGroup(
    PartitionId pid, Time from, Duration& cost, std::vector<Rec>& pending_out) {
  PartitionGroup* g = store_.Find(pid);
  assert(g != nullptr && "cannot extract a partition this slave does not own");

  // Seal everything: migrated state must carry no fresh tuples (they probe
  // here, before the move, so no result is lost or duplicated).
  PassCtx ctx;
  ctx.sink = sink_;
  ctx.scratch = &serial_scratch_;
  cost = FlushGroupPartials(*g, from, ctx);
  FoldStats(ctx);

  // Buffered tuples of this partition travel with the state.
  std::deque<Rec> rest;
  for (const Rec& rec : buffer_) {
    if (PartitionOf(rec.key, num_partitions_) == pid) {
      pending_out.push_back(rec);
    } else {
      rest.push_back(rec);
    }
  }
  buffer_.swap(rest);

  // The group leaves this slave; its journal is meaningless here. The master
  // forces the new owner's first checkpoint to be a full snapshot, which
  // covers everything a discarded journal would have.
  g->ClearJournal();

  auto group = store_.Take(pid);
  cost += cost_.MoveCost(group->TotalCount());
  return group;
}

void JoinModule::InstallGroup(PartitionId pid,
                              std::unique_ptr<PartitionGroup> group) {
  store_.Install(pid, std::move(group));
}

std::vector<Rec> JoinModule::TakeJournal(PartitionId pid) {
  PartitionGroup* g = store_.Find(pid);
  if (g == nullptr) return {};
  return g->TakeJournal();
}

std::uint64_t JoinModule::Splits() const {
  std::uint64_t n = 0;
  store_.ForEachGroup(
      [&](PartitionId, const PartitionGroup& g) { n += g.Splits(); });
  return n;
}

std::uint64_t JoinModule::Merges() const {
  std::uint64_t n = 0;
  store_.ForEachGroup(
      [&](PartitionId, const PartitionGroup& g) { n += g.Merges(); });
  return n;
}

std::vector<JoinModule::GroupDigest> JoinModule::DigestGroups() const {
  std::vector<GroupDigest> out;
  out.reserve(store_.GroupCount());
  store_.ForEachGroup([&](PartitionId pid, const PartitionGroup& g) {
    GroupDigest d;
    d.pid = pid;
    d.digest = DigestGroupRecords(g);
    d.records = g.TotalCount();
    d.bytes = g.TotalBytes();
    d.mini_groups = static_cast<std::uint32_t>(g.MiniGroupCount());
    d.journal = g.JournalSize();
    out.push_back(d);
  });
  std::sort(out.begin(), out.end(),
            [](const GroupDigest& a, const GroupDigest& b) {
              return a.pid < b.pid;
            });
  return out;
}

}  // namespace sjoin
