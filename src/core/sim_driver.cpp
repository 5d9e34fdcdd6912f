#include "core/sim_driver.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "net/codec.h"
#include "obs/profiler.h"
#include "window/state_codec.h"

namespace sjoin {

namespace {
// Constant lambda by default; a cyclic schedule when one is configured.
MergedSource MakeSource(const WorkloadConfig& wl) {
  if (!wl.rate_schedule.empty()) {
    return MergedSource(RateSchedule(wl.rate_schedule), wl.b_skew,
                        wl.key_domain, wl.seed);
  }
  return MergedSource(wl.lambda, wl.b_skew, wl.key_domain, wl.seed);
}
}  // namespace

SimDriver::SimDriver(const SystemConfig& cfg, SimOptions opts)
    : cfg_(cfg),
      opts_(opts),
      source_(MakeSource(cfg.workload)),
      master_buffer_(cfg.join.num_partitions, cfg.workload.tuple_bytes),
      pmap_(cfg.join.num_partitions, cfg.ActiveSlavesAtStart()),
      rng_(Mix64(cfg.workload.seed ^ 0xD1E5EEDULL), 99),
      pool_(cfg.slave.workers),
      td_(cfg.epoch.t_dist),
      rep_ratio_(static_cast<double>(cfg.epoch.t_rep) /
                 static_cast<double>(cfg.epoch.t_dist)),
      tuner_(cfg.epoch_tuner, cfg.epoch.t_dist),
      ob_(opts.obs != nullptr ? *opts.obs : local_obs_),
      c_generated_(ob_.registry.GetCounter("sim_tuples_generated")),
      c_migrations_(ob_.registry.GetCounter("sim_migrations")),
      c_state_moved_(ob_.registry.GetCounter("sim_state_moved_tuples")),
      wall_distribute_(obs::WallStage(ob_.registry, obs::kStageDistribute)),
      wall_codec_encode_(obs::WallStage(ob_.registry, obs::kStageCodecEncode)),
      wall_codec_decode_(obs::WallStage(ob_.registry, obs::kStageCodecDecode)) {
  assert(cfg.num_slaves >= 1);
  assert(cfg.ActiveSlavesAtStart() <= cfg.num_slaves);
  assert(cfg.epoch.num_subgroups >= 1);
  // A tuned run starts at the tuner's epoch, which is clamped to its range,
  // not at a t_d outside it until the first decision.
  if (cfg.epoch_tuner.enabled) td_ = tuner_.CurrentEpoch();
  slaves_.resize(cfg.num_slaves);
  for (std::uint32_t i = 0; i < cfg.num_slaves; ++i) {
    Slave& s = slaves_[i];
    s.sink = std::make_unique<StatsSink>();
    JoinSink* sink = s.sink.get();
    if (opts_.output_tee != nullptr) {
      s.tee = std::make_unique<TeeSink>(
          std::vector<JoinSink*>{s.sink.get(), opts_.output_tee});
      sink = s.tee.get();
    }
    s.join = std::make_unique<JoinModule>(cfg_, sink);
    s.join->AttachMetrics(&ob_.registry);
    s.join->SetWorkerPool(&pool_);
    s.active = i < cfg.ActiveSlavesAtStart();
  }
}

std::vector<SlaveIdx> SimDriver::ActiveList() const {
  std::vector<SlaveIdx> out;
  for (SlaveIdx i = 0; i < slaves_.size(); ++i) {
    if (slaves_[i].active) out.push_back(i);
  }
  return out;
}

std::uint32_t SimDriver::ActiveSlaveCount() const {
  return static_cast<std::uint32_t>(ActiveList().size());
}

Duration SimDriver::RepInterval() const {
  auto interval = static_cast<Duration>(rep_ratio_ * static_cast<double>(td_));
  return std::max(interval, td_);
}

void SimDriver::GenerateArrivalsUntil(Time t) {
  while (source_.PeekTs() < t) {
    Rec rec = source_.Next();
    master_buffer_.Add(rec, PartitionOf(rec.key, cfg_.join.num_partitions));
    if (measuring_) {
      ++tuples_generated_;
      c_generated_.Inc();
    }
  }
}

void SimDriver::ServeSlave(SlaveIdx si, Time t, Duration& serial_accum) {
  obs::ScopedTimer wall(&wall_distribute_);
  Slave& s = slaves_[si];
  const CostModel& cm = cfg_.cost;

  // Load sample: buffer occupancy at the end of this slave's epoch, before
  // the new batch lands (paper section IV-C).
  double occ = std::min(
      1.0, static_cast<double>(s.join->BufferedBytes()) /
               static_cast<double>(cfg_.balance.slave_buffer_bytes));
  s.occ_samples.push_back(occ);
  if (measuring_) s.occ_stat.Add(occ);
  s.stats.buffer_peak_tuples =
      std::max(s.stats.buffer_peak_tuples, s.join->BufferedTuples());

  // Drain this slave's partitions and ship the batch.
  std::vector<Rec> batch;
  for (PartitionId pid : pmap_.PartitionsOf(si)) {
    const std::span<const Rec> run = master_buffer_.Pending(pid);
    batch.insert(batch.end(), run.begin(), run.end());
    master_buffer_.ClearPartition(pid);
  }
  const std::size_t bytes =
      TupleBatchMsg::WireSize(batch.size(), cfg_.workload.tuple_bytes) + 9;

  master_cpu_ += cm.SerializeCost(bytes);

  // The slave blocks waiting its turn behind its predecessors in the serial
  // distribution order, then transfers + deserializes its own batch.
  const Duration xfer = cm.MessageCost(bytes);
  const Duration wait = static_cast<Duration>(
      cm.serial_wait_fraction * static_cast<double>(serial_accum));
  serial_accum += xfer;

  s.stats.comm_wait += wait;
  s.stats.comm_xfer += xfer;
  interval_comm_ += wait + xfer;
  const Time recv_start = std::max({s.free_at, t, s.blocked_until});
  s.free_at = recv_start + wait + xfer;
  ob_.trace.Complete("serve", "comm", recv_start, wait + xfer,
                     {{"slave", static_cast<std::int64_t>(si) + 1},
                      {"tuples", static_cast<std::int64_t>(batch.size())},
                      {"bytes", static_cast<std::int64_t>(bytes)}});

  s.join->EnqueueBatch(batch);
}

void SimDriver::AdvanceProcessing(SlaveIdx si, Time t, Time t_next) {
  Slave& s = slaves_[si];
  const Time busy_start = std::max(s.free_at, t);
  if (busy_start < t_next) {
    const Duration cost = s.join->ProcessFor(busy_start, t_next - busy_start);
    s.free_at = busy_start + cost;
    s.stats.cpu_busy += cost;
    if (cost > 0) {
      ob_.trace.Complete("join", "join", busy_start, cost,
                         {{"slave", static_cast<std::int64_t>(si) + 1}});
    }
    if (s.join->BufferedTuples() == 0 && s.free_at < t_next) {
      s.stats.idle += t_next - s.free_at;
    }
  }
  s.stats.window_tuples_max =
      std::max(s.stats.window_tuples_max, s.join->Store().TotalCount());
}

void SimDriver::MigrateGroup(PartitionId pid, SlaveIdx from, SlaveIdx to,
                             Time t) {
  Slave& sup = slaves_[from];
  Slave& con = slaves_[to];
  const CostModel& cm = cfg_.cost;

  // Supplier: flush + detach the group and its pending buffer tuples.
  Duration extract_cost = 0;
  std::vector<Rec> pending;
  std::unique_ptr<PartitionGroup> group = sup.join->ExtractGroup(
      pid, std::max(sup.free_at, t), extract_cost, pending);

  // Serialize through the real state codec so the transferred byte count is
  // exact and the consumer rebuilds through the real decode path.
  Writer wire;
  {
    obs::ScopedTimer wall(&wall_codec_encode_);
    Writer w;
    EncodeGroupState(w, *group);
    StateTransferMsg msg;
    msg.partition_id = pid;
    msg.group_state = std::move(w).TakeBuffer();
    msg.pending = std::move(pending);
    Encode(wire, msg, cfg_.workload.tuple_bytes);
  }
  const std::size_t bytes = wire.Size() + 9;

  const std::uint64_t moved = group->TotalCount();
  const Duration hop = cm.MessageCost(bytes);

  sup.stats.cpu_busy += extract_cost;
  sup.stats.comm_xfer += hop;
  sup.free_at = std::max(sup.free_at, t) + extract_cost + hop;

  Reader r(wire.Bytes());
  StateTransferMsg decoded;
  std::unique_ptr<PartitionGroup> rebuilt;
  {
    obs::ScopedTimer wall(&wall_codec_decode_);
    decoded = DecodeStateTransfer(r, cfg_.workload.tuple_bytes);
    Reader gr(decoded.group_state);
    rebuilt = DecodeGroupState(gr, cfg_.join, cfg_.workload.tuple_bytes);
  }

  const Duration install_cost = cm.MoveCost(rebuilt->TotalCount());
  con.stats.comm_xfer += hop;
  con.stats.cpu_busy += install_cost;
  con.free_at = std::max(con.free_at, t) + hop + install_cost;

  con.join->InstallGroup(pid, std::move(rebuilt));
  con.join->EnqueueBatch(decoded.pending);

  // The master holds the movers' next distribution until both acknowledge
  // the completed move.
  const Time ack = std::max(sup.free_at, con.free_at);
  sup.blocked_until = std::max(sup.blocked_until, ack);
  con.blocked_until = std::max(con.blocked_until, ack);

  pmap_.SetOwner(pid, to);
  if (measuring_) {
    ++migrations_;
    state_moved_tuples_ += moved;
    c_migrations_.Inc();
    c_state_moved_.Add(moved);
  }
  ob_.trace.Instant("migrate", "reorg", t,
                    {{"pid", static_cast<std::int64_t>(pid)},
                     {"from", static_cast<std::int64_t>(from) + 1},
                     {"to", static_cast<std::int64_t>(to) + 1},
                     {"tuples", static_cast<std::int64_t>(moved)},
                     {"bytes", static_cast<std::int64_t>(bytes)}});
  SJOIN_DEBUG("migrate pid=" << pid << " " << from << "->" << to << " tuples="
                             << moved << " bytes=" << bytes);
}

void SimDriver::ActivateOne() {
  for (Slave& s : slaves_) {
    if (!s.active) {
      s.active = true;
      SJOIN_INFO("decluster: grow to " << ActiveSlaveCount());
      return;
    }
  }
}

void SimDriver::SnapshotEpoch(std::int64_t epoch, Time t) {
  ob_.recorder.Snapshot(epoch, t, ob_.registry);
  std::uint64_t outputs = 0;
  std::uint64_t comparisons = 0;
  std::uint64_t processed = 0;
  for (const Slave& s : slaves_) {
    outputs += s.join->Outputs() - s.snap_outputs;
    comparisons += s.join->Comparisons() - s.snap_cmp;
    processed += s.join->TuplesProcessed() - s.snap_proc;
  }
  ob_.recorder.SetInt(epoch, t, "sim_outputs",
                      static_cast<std::int64_t>(outputs));
  ob_.recorder.SetInt(epoch, t, "sim_comparisons",
                      static_cast<std::int64_t>(comparisons));
  ob_.recorder.SetInt(epoch, t, "sim_processed",
                      static_cast<std::int64_t>(processed));
  ob_.recorder.SetInt(epoch, t, "sim_active_slaves",
                      static_cast<std::int64_t>(ActiveSlaveCount()));
  ob_.recorder.SetInt(epoch, t, "sim_master_buffer_tuples",
                      static_cast<std::int64_t>(master_buffer_.TotalTuples()));
  ob_.recorder.SetInt(epoch, t, "sim_master_cpu_us",
                      static_cast<std::int64_t>(master_cpu_));
}

void SimDriver::DeactivateOne(const std::vector<double>& occupancy, Time t) {
  std::vector<SlaveIdx> active = ActiveList();
  if (active.size() <= 1) return;

  // Retire the least-loaded active slave; its partition-groups move to the
  // remaining actives round-robin.
  std::size_t victim_pos = 0;
  for (std::size_t i = 1; i < active.size(); ++i) {
    if (occupancy[i] < occupancy[victim_pos]) victim_pos = i;
  }
  const SlaveIdx victim = active[victim_pos];

  std::vector<SlaveIdx> rest;
  for (SlaveIdx s : active) {
    if (s != victim) rest.push_back(s);
  }
  std::vector<PartitionId> pids = pmap_.PartitionsOf(victim);
  for (std::size_t i = 0; i < pids.size(); ++i) {
    MigrateGroup(pids[i], victim, rest[i % rest.size()], t);
  }
  slaves_[victim].active = false;
  SJOIN_INFO("decluster: shrink to " << ActiveSlaveCount());
}

void SimDriver::DoReorg(Time t, Duration interval) {
  std::vector<SlaveIdx> active = ActiveList();
  std::vector<double> occupancy;
  occupancy.reserve(active.size());
  for (SlaveIdx si : active) {
    Slave& s = slaves_[si];
    double avg = 0.0;
    if (!s.occ_samples.empty()) {
      for (double v : s.occ_samples) avg += v;
      avg /= static_cast<double>(s.occ_samples.size());
    }
    s.occ_samples.clear();
    occupancy.push_back(avg);
  }

  const std::vector<Role> roles =
      ClassifySlaves(occupancy, cfg_.balance, &ob_.registry);
  ob_.trace.Instant("reorg", "reorg", t,
                    {{"active", static_cast<std::int64_t>(active.size())}});
  for (const RebalanceMove& mv : PlanReorganization(
           pmap_, active, roles, rng_, /*respect_buddies=*/false)) {
    MigrateGroup(mv.pid, mv.from, mv.to, t);
  }

  if (cfg_.balance.adaptive_declustering) {
    switch (DecideDecluster(roles, cfg_.balance.beta,
                            static_cast<std::uint32_t>(active.size()),
                            cfg_.num_slaves)) {
      case DeclusterAction::kGrow:
        ActivateOne();
        ob_.trace.Instant(
            "decluster_grow", "reorg", t,
            {{"active", static_cast<std::int64_t>(ActiveSlaveCount())}});
        break;
      case DeclusterAction::kShrink:
        DeactivateOne(occupancy, t);
        ob_.trace.Instant(
            "decluster_shrink", "reorg", t,
            {{"active", static_cast<std::int64_t>(ActiveSlaveCount())}});
        break;
      case DeclusterAction::kNone:
        break;
    }
  }

  // Adaptive-epoch extension: retune t_d from this interval's observed
  // communication fraction and load.
  if (cfg_.epoch_tuner.enabled && interval > 0 && !active.empty()) {
    const double comm_fraction =
        static_cast<double>(interval_comm_) /
        (static_cast<double>(interval) * static_cast<double>(active.size()));
    double mean_occ = 0.0;
    for (double f : occupancy) mean_occ += f;
    mean_occ /= static_cast<double>(occupancy.size());
    const Duration new_td = tuner_.Update(comm_fraction, mean_occ);
    if (new_td != td_) {
      SJOIN_INFO("epoch tuner: t_d " << UsToSeconds(td_) << "s -> "
                                     << UsToSeconds(new_td) << "s (comm "
                                     << comm_fraction << ")");
      td_ = new_td;
    }
  }
  interval_comm_ = 0;
}

void SimDriver::ResetMetricsAtWarmup(Time t) {
  (void)t;
  measuring_ = true;
  master_cpu_ = 0;
  master_buffer_.ResetPeak();
  migrations_ = 0;
  state_moved_tuples_ = 0;
  tuples_generated_ = 0;
  active_weighted_us_ = 0.0;
  for (Slave& s : slaves_) {
    s.sink->Reset();
    s.stats = SlaveStats{};
    s.stats.window_tuples_max = s.join->Store().TotalCount();
    s.occ_stat.Reset();
    s.snap_outputs = s.join->Outputs();
    s.snap_cmp = s.join->Comparisons();
    s.snap_proc = s.join->TuplesProcessed();
    s.snap_busy = s.join->WorkerBusyUs();
  }
}

RunMetrics SimDriver::Run() {
  const std::uint32_t ng = cfg_.epoch.num_subgroups;
  const Time t_end = opts_.warmup + opts_.measure;

  Time t = 0;
  Time last_reorg = 0;
  Time next_reorg = RepInterval();
  std::uint64_t slot = 0;
  bool warmed = opts_.warmup == 0;
  if (warmed) ResetMetricsAtWarmup(0);

  SetLogRank(0);
  while (t < t_end) {
    SetLogVt(t);
    // Slot length follows the (possibly retuned) distribution epoch.
    const Duration slot_len = std::max<Duration>(1, td_ / ng);
    const Time t_next = t + slot_len;

    if (!warmed && t >= opts_.warmup) {
      ResetMetricsAtWarmup(t);
      warmed = true;
    }

    GenerateArrivalsUntil(t);

    if (t >= next_reorg) {
      DoReorg(t, t - last_reorg);
      last_reorg = t;
      next_reorg = t + RepInterval();
    }

    // Serve this slot's sub-group, serially in slave order.
    std::vector<SlaveIdx> active = ActiveList();
    Duration serial_accum = 0;
    for (std::size_t pos = 0; pos < active.size(); ++pos) {
      if (pos % ng == slot % ng) {
        ServeSlave(active[pos], t, serial_accum);
      }
    }

    // Every active slave processes up to the next slot boundary.
    for (SlaveIdx si : active) {
      AdvanceProcessing(si, t, t_next);
    }
    if (measuring_) {
      active_weighted_us_ +=
          static_cast<double>(active.size()) * static_cast<double>(t_next - t);
    }
    t = t_next;
    ++slot;
    // Every ng slots one full distribution epoch has elapsed: record the
    // per-epoch observability row at the epoch boundary.
    if (slot % ng == 0) {
      SnapshotEpoch(static_cast<std::int64_t>(slot / ng), t);
    }
  }

  return Collect();
}

RunMetrics SimDriver::Collect() const {
  RunMetrics rm;
  rm.measured = opts_.measure;
  rm.master_cpu = master_cpu_;
  rm.master_buffer_peak_bytes = master_buffer_.PeakBytes();
  rm.master_buffer_end_tuples = master_buffer_.TotalTuples();
  rm.migrations = migrations_;
  rm.state_moved_tuples = state_moved_tuples_;
  rm.tuples_generated = tuples_generated_;
  rm.active_slaves_end = ActiveSlaveCount();
  rm.avg_active_slaves =
      active_weighted_us_ / static_cast<double>(opts_.measure);
  rm.final_t_dist = td_;
  rm.epoch_grows = tuner_.Grows();
  rm.epoch_shrinks = tuner_.Shrinks();

  for (const Slave& s : slaves_) {
    SlaveStats st = s.stats;
    st.outputs = s.join->Outputs() - s.snap_outputs;
    st.comparisons = s.join->Comparisons() - s.snap_cmp;
    st.processed = s.join->TuplesProcessed() - s.snap_proc;
    st.avg_occupancy = s.occ_stat.Mean();
    st.buffered_end = s.join->BufferedTuples();
    st.delay_us = s.sink->DelayUs();
    st.active_at_end = s.active;
    rm.delay_us.Merge(st.delay_us);
    rm.delay_hist.Merge(s.sink->DelayHistogram());
    rm.splits += s.join->Splits();
    rm.merges += s.join->Merges();
    rm.worker_busy_cost_us += s.join->WorkerBusyUs() - s.snap_busy;
    rm.slaves.push_back(st);
  }
  return rm;
}

}  // namespace sjoin
