#include "core/runner.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <tuple>

#include "common/clock.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/balancer.h"
#include "core/master_buffer.h"
#include "core/membership.h"
#include "core/migration_table.h"
#include "core/partition_map.h"
#include "core/replica_chain.h"
#include "core/replication_ledger.h"
#include "core/worker_pool.h"
#include "gen/stream_source.h"
#include "join/epoch_tag_sink.h"
#include "join/join_module.h"
#include "net/codec.h"
#include "net/inproc_transport.h"
#include "obs/artifact.h"
#include "obs/delay_sampler.h"
#include "window/state_codec.h"

namespace sjoin {

namespace {

Message Make(MsgType type, Writer&& w) {
  Message m;
  m.type = type;
  m.payload = std::move(w).TakeBuffer();
  return m;
}

void SleepUntil(const WallClock& clock, Time t) {
  Time now = clock.Now();
  if (t > now) {
    std::this_thread::sleep_for(std::chrono::microseconds(t - now));
  }
}

/// Effectively-unbounded ProcessFor budget: drain the whole buffer.
constexpr Duration kDrainBudget = 365LL * 24 * 3600 * kUsPerSec;

/// One in-progress membership transition (at most one at a time; scheduled
/// events and policy proposals queue behind it). A join is handshaken first
/// and then rebalanced toward its share; a leave is drained group-by-group,
/// hands its replicas over, and is dismissed by the farewell handshake.
struct MembershipTransition {
  bool join = false;
  SlaveIdx slave = 0;
  Time started_wall = 0;  ///< for MasterSummary::membership_us
};

}  // namespace

MasterSummary RunMasterNode(Transport& transport, const SystemConfig& cfg,
                            const WallOptions& opts) {
  assert(transport.Self() == 0);
  SetLogRank(0);
  const Rank n = cfg.num_slaves;
  const Rank collector = n + 1;
  const std::size_t tb = cfg.workload.tuple_bytes;

  WallClock clock;
  MergedSource source(cfg.workload.lambda, cfg.workload.b_skew,
                      cfg.workload.key_domain, cfg.workload.seed);
  MasterBuffer buffer(cfg.join.num_partitions, tb);
  // Elastic membership (DESIGN.md "Elastic membership"): the cluster starts
  // with ActiveSlavesAtStart() members, the remaining ranks idle as
  // standbys until admitted. With elastic off every slave is a member and
  // the protocol below degenerates to the fixed-set behavior.
  const ElasticConfig& ecfg = cfg.cluster.elastic;
  const bool elastic = ecfg.enabled;
  const std::uint32_t init_members =
      elastic ? std::min<std::uint32_t>(n, std::max<std::uint32_t>(
                                               1, cfg.ActiveSlavesAtStart()))
              : n;
  MembershipTable members(n, init_members);
  PartitionMap pmap(cfg.join.num_partitions, init_members);
  Pcg32 rng(Mix64(cfg.workload.seed ^ 0xABCDEFULL), 41);

  MasterSummary sum;

  // Observability: counters mirror the MasterSummary fields one-for-one (a
  // cross-validation test holds them equal), the recorder snapshots the
  // registry at every epoch boundary, and the trace gets one B/E "epoch"
  // span per epoch plus instants for every protocol verdict. All trace
  // timestamps are logical (epoch ordinal * t_dist) -- see WallOptions.
  obs::NodeObs local_obs;
  obs::NodeObs& ob = opts.master_obs != nullptr ? *opts.master_obs : local_obs;
  ob.trace.SetRank(0);
  // Every process of a run derives the same 48-bit trace id from the seed
  // (48 so it survives a round trip through a JSON double); it stamps each
  // causal wire frame so per-rank trace files stitch into one distributed
  // trace (tools/trace_check --stitch).
  const std::uint64_t run_trace_id =
      Mix64(cfg.workload.seed ^ 0x7472616365ull) & 0xFFFF'FFFF'FFFFull;
  obs::MetricsRegistry& reg = ob.registry;
  obs::Counter& c_tuples = reg.GetCounter("master_tuples_sent");
  obs::Counter& c_epochs = reg.GetCounter("master_epochs");
  obs::Counter& c_migrations = reg.GetCounter("master_migrations");
  obs::Counter& c_dead = reg.GetCounter("master_dead_slaves");
  obs::Counter& c_rehosted = reg.GetCounter("master_groups_rehosted");
  obs::Counter& c_sweeps = reg.GetCounter("master_ckpt_sweeps");
  obs::Counter& c_acks = reg.GetCounter("master_ckpt_acks");
  obs::Counter& c_ack_bytes = reg.GetCounter("master_ckpt_bytes");
  obs::Counter& c_failed_over = reg.GetCounter("master_groups_failed_over");
  obs::Counter& c_degraded = reg.GetCounter("master_degraded_failovers");
  obs::Counter& c_replay_batches = reg.GetCounter("master_replayed_batches");
  obs::Counter& c_replay_tuples = reg.GetCounter("master_replayed_tuples");
  // Elastic membership counters (stable: scheduled transitions resolve at
  // deterministic epoch boundaries, so same-seed runs agree on them).
  obs::Counter& c_joins = reg.GetCounter("master_joins");
  obs::Counter& c_leaves = reg.GetCounter("master_leaves");
  obs::Counter& c_drain_moves = reg.GetCounter("master_drain_moves");
  obs::Counter& c_handovers = reg.GetCounter("master_buddy_handovers");
  obs::Counter& c_hs_retries = reg.GetCounter("master_handshake_retries");
  obs::Counter& c_stale_acks = reg.GetCounter("master_stale_ckpt_acks");
  obs::Counter& c_scale_outs = reg.GetCounter("master_policy_scale_outs");
  obs::Counter& c_scale_ins = reg.GetCounter("master_policy_scale_ins");
  obs::Counter& c_memb_skipped = reg.GetCounter("master_membership_skipped");
  // Counts into a MasterSummary field and the counter mirroring it.
  auto count = [](std::uint64_t& field, obs::Counter& c, std::uint64_t by = 1) {
    field += by;
    c.Add(by);
  };
  // Wall-clock stage histograms (kWall: real elapsed time, excluded from
  // every deterministic export -- recorder snapshots and kMetrics frames).
  obs::HistogramMetric& wall_distribute =
      obs::WallStage(reg, obs::kStageDistribute);
  obs::HistogramMetric& wall_encode =
      obs::WallStage(reg, obs::kStageCodecEncode);
  obs::HistogramMetric& wall_send = obs::WallStage(reg, obs::kStageNetSend);
  obs::HistogramMetric& wall_recv = obs::WallStage(reg, obs::kStageNetRecv);
  // Health telemetry (stable: derived from deterministic protocol state, not
  // from racy kMetrics arrival). watermark_vt_us is the logical frontier the
  // master has distributed through; epoch_lag{slave=S} is how many epochs
  // rank S trails the distribution frontier (standbys accumulate lag, active
  // members sit at 0); group_skew_ratio is this epoch's max/median tuples
  // routed per partition-group -- the straggler signal ElasticPolicy reads.
  obs::Gauge& g_watermark = reg.GetGauge("watermark_vt_us");
  obs::Gauge& g_skew = reg.GetGauge("group_skew_ratio");
  std::vector<obs::Gauge*> g_lag;
  for (Rank s = 1; s <= n; ++s) {
    g_lag.push_back(
        &reg.GetGauge("epoch_lag", {{"slave", std::to_string(s)}}));
  }
  // Logical timestamp of the trace events being emitted: the current epoch's
  // start. Events emitted after the epoch loop (drain-phase evictions) reuse
  // the last epoch's stamp.
  Time vt_now = 0;

  std::vector<double> occupancy(n, 0.0);
  std::vector<std::uint64_t> batches_sent(n, 0);
  // The newest batch each slave's load report answered, and the last
  // join/leave reply each sent (see dispatch).
  std::vector<std::uint64_t> reported(n, 0);
  std::vector<std::optional<MsgType>> replies(n);
  // In-flight migrations; their groups are withheld from batches.
  MigrationTable migrations;

  // Membership transitions waiting to start, and the (single) one in
  // progress.
  MembershipQueue queue(opts.membership);
  std::optional<MembershipTransition> trans;
  ElasticPolicy policy(ecfg);

  // Replication bookkeeping (see runner.h "Replication and failover"):
  // retention, ack watermarks, full-snapshot flags, buddy handovers and the
  // last sweep's debts, one record per group (core/replication_ledger.h).
  const bool repl = cfg.replication.enabled && n >= 2;
  const std::uint32_t ckpt_every =
      std::max<std::uint32_t>(1, cfg.replication.ckpt_interval_epochs);
  const std::uint32_t npart = cfg.join.num_partitions;
  ReplicationLedger ledger(repl ? npart : 0, pmap, members);

  // Ends (or aborts) the transition in progress.
  auto finish_transition = [&] {
    sum.membership_us += clock.Now() - trans->started_wall;
    trans.reset();
  };
  // A membership milestone naming one slave: a trace instant.
  auto note_member = [&](const char* kind, SlaveIdx t) {
    ob.trace.Instant(kind, "membership", vt_now,
                     {{"slave", static_cast<std::int64_t>(t) + 1}});
  };

  // Dead-slave verdict: exclude the rank from all subsequent epochs, cancel
  // migrations it was party to (their withheld partitions are released; any
  // state the transfer carried died with the node), and force-evacuate its
  // partition-groups onto the survivors. Survivors re-grow window state for
  // the rehosted groups from new arrivals (WindowStore creates groups on
  // first touch), so the run keeps producing results. With replication the
  // ledger plans a buddy failover instead (ReplicationLedger::FailOver),
  // and the adopted groups' retained runs are replayed.
  auto evict = [&](SlaveIdx dead) {
    // Idempotent: a second verdict against the same rank (a failover racing
    // a late frame from the evicted slave on another wait path) must not
    // re-run eviction side effects.
    if (!members.Evict(dead, sum.epochs)) return;
    const Time recovery_t0 = clock.Now();
    ++sum.dead_slaves;
    c_dead.Inc();
    ob.trace.Instant("dead_slave", "fault", vt_now,
                     {{"slave", static_cast<std::int64_t>(dead) + 1}});
    // A membership transition naming the dead rank is aborted: a joiner's
    // groups were already force-evacuated below like any member's, and a
    // leaver's remaining drain is subsumed by the failover.
    if (trans && trans->slave == dead) finish_transition();
    // Handovers pending toward the dead rank dissolve; the groups keep
    // their old (still committed) buddies.
    ledger.DissolveHandoversTo(dead);
    const std::vector<PartitionId> orphans = migrations.Cancel(dead);
    // Evacuation targets are the surviving *members* -- standbys receive no
    // batches, so rehosting onto one would strand the group.
    const std::vector<SlaveIdx> survivors = members.Members();
    std::uint64_t rehosted = 0;
    if (!repl) {
      for (const EvacuationMove& ev : PlanEvacuation(pmap, dead, survivors)) {
        pmap.SetOwner(ev.pid, ev.target);
        ++rehosted;
      }
    } else {
      ReplicationLedger::Failover fo = ledger.FailOver(dead, orphans);
      rehosted = fo.evacuated;
      for (const ReplicationLedger::Adoption& a : fo.adoptions) {
        if (a.degraded) count(sum.degraded_failovers, c_degraded);
        sum.failovers.push_back(
            FailoverRecord{a.pid, a.target + 1, a.replay_from, sum.epochs});
        count(sum.groups_failed_over, c_failed_over);
        // `slave` is the adopting target (replay events key on it); `dead`
        // names the failed rank whose verdict the checker pairs this with.
        ob.trace.Instant(
            "failover", "repl", vt_now,
            {{"slave", static_cast<std::int64_t>(a.target) + 1},
             {"dead", static_cast<std::int64_t>(dead) + 1},
             {"pid", static_cast<std::int64_t>(a.pid)},
             {"replay_from", static_cast<std::int64_t>(a.replay_from)}});
      }
      // Failover commands first, then the retained batches in ascending
      // epoch order (per-channel FIFO: each target rebuilds every adopted
      // group from its replica before any replayed tuple arrives).
      for (const auto& [target, fc] : fo.commands) {
        Writer w;
        Encode(w, fc);
        transport.Send(target + 1, Make(MsgType::kFailoverCmd, std::move(w)));
      }
      for (const auto& [target, fc] : fo.commands) {
        for (auto& [e, recs] : ledger.ReplayBatches(fc.entries)) {
          count(sum.replayed_batches, c_replay_batches);
          count(sum.replayed_tuples, c_replay_tuples, recs.size());
          ob.trace.Instant(
              "replay", "repl", vt_now,
              {{"slave", static_cast<std::int64_t>(target) + 1},
               {"epoch", static_cast<std::int64_t>(e)},
               {"tuples", static_cast<std::int64_t>(recs.size())}});
          ReplayBatchMsg rb;
          rb.epoch = e;
          rb.recs = std::move(recs);
          Writer w(TupleBatchMsg::WireSize(rb.recs.size(), tb) + 8);
          Encode(w, rb, tb);
          transport.Send(target + 1,
                         Make(MsgType::kReplayBatch, std::move(w)));
        }
      }
    }
    count(sum.groups_rehosted, c_rehosted, rehosted);
    sum.recovery_us += clock.Now() - recovery_t0;
    SJOIN_INFO("master: slave " << dead + 1 << " declared dead; rehosted "
                                << rehosted << " partition-groups onto "
                                << survivors.size() << " survivors"
                                << (repl ? " (buddy failover + replay)" : ""));
    // A crash verdict is exactly the moment post-mortem context matters:
    // dump the trace ring to the artifact dir (if one is exported) so a
    // failed chaos/CI run leaves the recent protocol history behind.
    obs::WriteArtifact(
        obs::ArtifactKind::kChaos,
        "flight_master_evict_slave" + std::to_string(dead + 1) + ".txt",
        ob.trace.Dump(), Summarize(cfg));
  };

  // Checkpoint-ack path (ReplicationLedger::Apply): the ack commits a
  // pending buddy handover, or advances the current buddy's watermark;
  // everything else -- a late ack from a replaced buddy, a duplicate,
  // anything from a rank no longer alive -- is dropped and counted, never
  // re-entering eviction or retention bookkeeping.
  auto handle_ckpt_ack = [&](SlaveIdx src, const CheckpointAckMsg& ack) {
    const ReplicationLedger::AckVerdict verdict = ledger.Apply(src, ack);
    if (verdict == ReplicationLedger::AckVerdict::kIgnored) return;
    if (verdict == ReplicationLedger::AckVerdict::kStale) {
      count(sum.stale_ckpt_acks, c_stale_acks);
      return;
    }
    count(sum.ckpt_acks, c_acks);
    count(sum.ckpt_bytes, c_ack_bytes, ack.bytes);
    const bool handover = verdict == ReplicationLedger::AckVerdict::kHandover;
    if (handover) count(sum.buddy_handovers, c_handovers);
    ob.trace.Instant(
        handover ? "buddy_handover" : "ckpt_ack",
        handover ? "membership" : "repl", vt_now,
        {{"slave", static_cast<std::int64_t>(src) + 1},
         {"pid", static_cast<std::int64_t>(ack.partition_id)},
         {"covered_epoch", static_cast<std::int64_t>(ack.covered_epoch)}});
  };

  // Every frame a wait receives lands here. A load report counts only when
  // it answers the newest batch sent to its slave; a join/leave reply is
  // kept for the handshake awaiting it; anything else unexpected is dropped.
  auto dispatch = [&](SlaveIdx src, Message& msg) {
    Reader r(msg.payload);
    if (msg.type == MsgType::kLoadReport) {
      const LoadReportMsg report = DecodeLoadReport(r);
      if (report.seq == batches_sent[src]) {
        occupancy[src] = report.avg_buffer_occupancy;
        reported[src] = report.seq;
      }
    } else if (msg.type == MsgType::kAck) {
      migrations.Ack(src, DecodeAck(r).move_seq);
    } else if (msg.type == MsgType::kMetrics) {
      MetricsMsg mm = DecodeMetrics(r);
      ob.cluster.Record(static_cast<Rank>(src) + 1,
                        static_cast<std::int64_t>(mm.epoch),
                        std::move(mm.samples));
    } else if (msg.type == MsgType::kCheckpointAck) {
      handle_ckpt_ack(src, DecodeCheckpointAck(r));
    } else if (msg.type == MsgType::kJoinAck ||
               msg.type == MsgType::kLeaveAck) {
      replies[src] = msg.type;
    }
  };

  // The master's one bounded receive loop: waits on one slave channel until
  // `done()` holds, dispatching every frame. On the (max_strikes + 1)-th
  // consecutive timeout the rank either gets the dead-slave verdict
  // (`verdict`) or the wait is abandoned (handovers and the shutdown drain:
  // the load-report wait stays the authoritative failure detector, so a
  // slow third party never costs an innocent buddy its life). A closed
  // channel is an instant verdict.
  auto wait_on = [&](SlaveIdx src, auto&& done, bool verdict,
                     Duration timeout, std::uint32_t max_strikes) {
    std::uint32_t strikes = 0;
    while (!done()) {
      if (!members.Alive(src)) return;
      RecvResult res = [&] {
        obs::ScopedTimer wall_rcv(&wall_recv);
        return transport.RecvFromTimed(static_cast<Rank>(src) + 1, timeout);
      }();
      if (res.status == RecvStatus::kClosed) {
        evict(src);
        return;
      }
      if (res.status == RecvStatus::kTimeout) {
        if (++strikes > max_strikes) {
          if (verdict) evict(src);
          return;
        }
        continue;
      }
      strikes = 0;
      dispatch(src, res.msg);
    }
  };

  // Drives every in-flight migration to completion (both movers acked),
  // waiting on the oldest move's next mover. Bounded like the epoch loop:
  // an unresponsive mover gets the dead-slave verdict, which cancels its
  // moves.
  auto drain_moves = [&] {
    while (!migrations.Empty() && members.LiveCount() > 0) {
      const SlaveIdx src = migrations.NextMover();
      wait_on(
          src,
          [&] { return migrations.Empty() || migrations.NextMover() != src; },
          /*verdict=*/true, opts.recv_timeout_us, opts.recv_max_retries);
    }
  };

  // Issues one migration via the kMoveCmd/kInstallCmd sub-protocol and
  // updates the map; the withheld partition is released when both movers
  // ack (MigrationTable::Ack).
  auto issue_move = [&](PartitionId pid, SlaveIdx sup, SlaveIdx con) {
    const std::uint64_t seq = migrations.Issue(pid, sup, con);
    Writer wm;
    Encode(wm, MoveCmdMsg{pid, static_cast<Rank>(con) + 1, seq});
    transport.Send(static_cast<Rank>(sup) + 1,
                   Make(MsgType::kMoveCmd, std::move(wm)));
    Writer wi;
    Encode(wi, MoveCmdMsg{pid, static_cast<Rank>(sup) + 1, seq});
    transport.Send(static_cast<Rank>(con) + 1,
                   Make(MsgType::kInstallCmd, std::move(wi)));
    pmap.SetOwner(pid, con);
    // The buddy (and its acked segments) stay valid across the move.
    if (repl) ledger.ForceFull(pid);
    return seq;
  };

  // Executes up to `chunk` moves of a transition's plan one at a time (two
  // in-flight transfers from different donors would arrive in wall-racy
  // order; the byte-identity matrix pins the install order). Entries an
  // eviction invalidated are dropped, the next epoch re-plans. Returns
  // whether any move was issued.
  auto run_plan = [&](const std::vector<RebalanceMove>& plan,
                      std::uint32_t chunk) {
    bool moved = false;
    for (std::size_t i = 0; i < plan.size() && i < chunk && trans; ++i) {
      const RebalanceMove& mv = plan[i];
      if (migrations.Withheld(mv.pid) || pmap.OwnerOf(mv.pid) != mv.from ||
          !members.Active(mv.from) || !members.Active(mv.to)) {
        continue;
      }
      const std::uint64_t seq = issue_move(mv.pid, mv.from, mv.to);
      count(sum.drain_moves, c_drain_moves);
      ob.trace.Instant("drain_move", "membership", vt_now,
                       {{"pid", static_cast<std::int64_t>(mv.pid)},
                        {"from", static_cast<std::int64_t>(mv.from) + 1},
                        {"to", static_cast<std::int64_t>(mv.to) + 1},
                        {"seq", static_cast<std::int64_t>(seq)}});
      moved = true;
      drain_moves();
    }
    return moved;
  };

  // One epoch's chunk of a transition's buddy handovers (PlanHandovers,
  // planned with no move in flight). Untouched groups flip instantly (no
  // state exists to snapshot); for the rest the owner ships a full snapshot
  // to the new buddy, and this call blocks until each issued handover
  // commits or dissolves. Returns true while any group still awaits a
  // handover after this chunk.
  auto run_handovers = [&](const std::vector<BuddyHandover>& plan,
                           std::uint32_t chunk) -> bool {
    if (!repl) return false;
    assert(migrations.Empty());
    std::vector<PartitionId> issued;
    std::size_t remaining = 0;
    for (const auto& [pid, want] : plan) {
      if (!ledger.Of(pid).touched) {
        ledger.ChangeBuddy(pid, want);
        count(sum.buddy_handovers, c_handovers);
        ob.trace.Instant("buddy_handover", "membership", vt_now,
                         {{"slave", static_cast<std::int64_t>(want) + 1},
                          {"pid", static_cast<std::int64_t>(pid)},
                          {"covered_epoch", 0}});
        continue;
      }
      ++remaining;
      if (issued.size() >= chunk) continue;
      ledger.BeginHandover(pid, want);
      CkptCmdMsg cmd;
      cmd.covered_epoch = sum.epochs;
      cmd.entries.push_back(
          CkptCmdMsg::Entry{pid, static_cast<Rank>(want) + 1, true, 0});
      Writer w;
      Encode(w, cmd);
      transport.Send(static_cast<Rank>(pmap.OwnerOf(pid)) + 1,
                     Make(MsgType::kCkptCmd, std::move(w)));
      issued.push_back(pid);
    }
    std::size_t committed = 0;
    for (PartitionId pid : issued) {
      // A handover may have resolved while waiting on an earlier group.
      if (const std::optional<SlaveIdx> want = ledger.Of(pid).pending) {
        wait_on(
            *want, [&] { return !ledger.Of(pid).pending; },
            /*verdict=*/false, opts.recv_timeout_us, opts.recv_max_retries);
      }
      if (!ledger.Of(pid).pending) ++committed;
    }
    return remaining > committed;
  };

  // Join/leave handshake: send `cmd` and wait for the reply `want`; every
  // timeout resends it with a doubled per-attempt timeout capped at
  // kBackoffCap, and the timeout after kMaxResends resends is the
  // dead-slave verdict. Returns false when the peer was evicted instead of
  // replying.
  auto handshake = [&](SlaveIdx dst, const Message& cmd, MsgType want) {
    constexpr std::uint32_t kMaxResends = 3;
    constexpr Duration kBackoffCap = 2 * kUsPerSec;
    Duration timeout = opts.recv_timeout_us;
    replies[dst].reset();
    transport.Send(static_cast<Rank>(dst) + 1, cmd);
    for (std::uint32_t resends = 0;; ++resends) {
      wait_on(
          dst, [&] { return replies[dst] == want; },
          /*verdict=*/resends >= kMaxResends, timeout, /*max_strikes=*/0);
      if (replies[dst] == want) return true;
      if (!members.Alive(dst)) return false;
      count(sum.handshake_retries, c_hs_retries);
      timeout = std::min(timeout * 2,
                         std::max<Duration>(opts.recv_timeout_us, kBackoffCap));
      transport.Send(static_cast<Rank>(dst) + 1, cmd);
    }
  };

  // ---- membership step (top of epoch, before distribution) ---------------
  // Runs the elastic state machine one bounded chunk. Everything it issues
  // this epoch -- drain moves, handover checkpoints, handshakes -- is
  // driven to completion before distribution starts, so the slave-side
  // effects land at a deterministic epoch ordinal and same-seed runs agree
  // byte-for-byte on traces and recorder rows. Every wait is bounded by the
  // usual timeout/strike verdicts; a peer dying mid-step resolves through
  // the normal eviction path (which aborts a transition naming it).
  auto membership_step = [&] {
    if (!elastic) return;
    drain_moves();  // membership never overlaps reorg migrations
    if (!trans) {
      // Start the next scheduled event (if due), else the oldest policy
      // proposal.
      const std::optional<MembershipEvent> ev = queue.Pop(sum.epochs);
      if (!ev) return;
      const SlaveIdx t = ev->slave;
      if (!members.CanStart(*ev)) {
        count(sum.membership_skipped, c_memb_skipped);
        ob.trace.Instant("membership_skip", "membership", vt_now,
                         {{"slave", static_cast<std::int64_t>(t) + 1},
                          {"join", ev->join ? 1 : 0}});
        return;
      }
      trans = MembershipTransition{ev->join, t, clock.Now()};
      if (ev->join) {
        // Admission handshake: the joiner resyncs its epoch ordinal to
        // admit_epoch - 1 and acks; from this epoch on it receives batches.
        Writer w;
        Encode(w, JoinCmdMsg{sum.epochs, npart});
        if (!handshake(t, Make(MsgType::kJoinCmd, std::move(w)),
                       MsgType::kJoinAck)) {
          return;  // evicted; evict() aborted the transition
        }
        members.Admit(t);
        count(sum.joins, c_joins);
        note_member("member_join", t);
      } else {
        ob.trace.Instant("leave_begin", "membership", vt_now,
                         {{"slave", static_cast<std::int64_t>(t) + 1}});
      }
    }
    ++sum.membership_epochs;
    const SlaveIdx t = trans->slave;
    const std::uint32_t chunk =
        std::max<std::uint32_t>(1, ecfg.drain_groups_per_epoch);
    if (trans->join) {
      // Groups stranded on dead ranks (no survivor existed at their
      // eviction) are adopted outright -- their state died with the owner.
      for (PartitionId pid = 0; pid < cfg.join.num_partitions; ++pid) {
        if (!members.Active(pmap.OwnerOf(pid))) {
          pmap.SetOwner(pid, t);
          if (repl) ledger.ReRing(pid, t);
        }
      }
      // Rebalance toward the joiner's share, `chunk` groups per epoch; the
      // plan is recomputed from the live map every epoch, so convergence
      // survives concurrent evictions and reorg history.
      if (run_plan(PlanAdmission(pmap, members.Members(), t, repl), chunk)) {
        return;
      }
      // Ownership settled: re-home replicas so the joiner serves as buddy
      // for its ring predecessor's groups. Groups the joiner owns keep
      // their existing (still valid) buddies.
      const bool more = run_handovers(
          PlanHandovers(pmap, members.Members(), t, /*join=*/true), chunk);
      if (!trans || more) return;
      finish_transition();
    } else {
      // Phase 1: drain ownership off the leaver, `chunk` groups per epoch
      // (re-planned from the live map, like admissions).
      const std::vector<SlaveIdx> ring = members.Members();
      std::vector<SlaveIdx> remaining;
      for (SlaveIdx m : ring) {
        if (m != t) remaining.push_back(m);
      }
      if (pmap.CountOf(t) > 0) {
        run_plan(PlanDrain(pmap, t, remaining, repl), chunk);
        if (!trans || pmap.CountOf(t) > 0) return;
      }
      // Phase 2: hand the leaver's replicas to the owners' new ring
      // successors (the ring without the leaver, as it was before phase 1).
      const bool more = run_handovers(
          PlanHandovers(pmap, ring, t, /*join=*/false), chunk);
      if (!trans || more) return;
      // Phase 3: farewell handshake; the leaver drops its (now obsolete)
      // replica chains and returns to standby. The ack is sent by its join
      // thread, so it orders after every extract and checkpoint this node
      // still owed the cluster -- zero-gap by construction.
      Writer w;
      Encode(w, LeaveCmdMsg{sum.epochs});
      if (!handshake(t, Make(MsgType::kLeaveCmd, std::move(w)),
                     MsgType::kLeaveAck)) {
        return;
      }
      members.Retire(t);
      count(sum.leaves, c_leaves);
      note_member("member_leave", t);
      finish_transition();
    }
  };

  // Ships a member the buffered runs of its settled groups as one
  // kTupleBatch, encoded straight from the buffer, retaining each group's
  // run until a checkpoint covering this epoch is acknowledged -- it is the
  // failover replay. The final sweep skips an empty batch (no load report
  // answers it).
  auto send_batch = [&](SlaveIdx m, bool skip_empty) {
    const std::vector<PartitionId> pids =
        migrations.Settled(pmap.PartitionsOf(m));
    std::vector<std::span<const Rec>> runs;
    runs.reserve(pids.size());
    std::size_t tuples = 0;
    for (PartitionId pid : pids) {
      runs.push_back(buffer.Pending(pid));
      tuples += runs.back().size();
    }
    if (skip_empty && tuples == 0) return;
    count(sum.tuples_sent, c_tuples, tuples);
    Writer w(TupleBatchMsg::WireSize(tuples, tb));
    {
      obs::ScopedTimer wall_enc(&wall_encode);
      EncodeTupleBatch(w, runs, tb);
    }
    for (std::size_t i = 0; i < pids.size(); ++i) {
      if (repl && !runs[i].empty()) {
        ledger.Retain(pids[i], sum.epochs,
                      std::vector<Rec>(runs[i].begin(), runs[i].end()));
      }
      buffer.ClearPartition(pids[i]);
    }
    // Causal trace context rides the frame header: the per-send span id
    // doubles as the flow id, so the slave's receive-side FlowFinish binds
    // to exactly this send in the stitched distributed trace.
    Message msg = Make(MsgType::kTupleBatch, std::move(w));
    msg.trace_id = run_trace_id;
    msg.parent_span = ob.trace.NextSpanId();
    msg.send_vt = vt_now;
    ob.trace.FlowStart("batch_flow", "flow", vt_now, msg.parent_span,
                       {{"epoch", static_cast<std::int64_t>(sum.epochs)},
                        {"slave", static_cast<std::int64_t>(m) + 1}});
    {
      obs::ScopedTimer wall_snd(&wall_send);
      transport.Send(static_cast<Rank>(m) + 1, std::move(msg));
    }
    ++batches_sent[m];
  };

  // Clock sync opens every connection (Algorithm 1 line 18 analogue).
  for (Rank s = 1; s <= n; ++s) {
    Writer w;
    Encode(w, ClockSyncMsg{clock.Now(), cfg.epoch.t_dist});
    transport.Send(s, Make(MsgType::kClockSync, std::move(w)));
  }

  const std::vector<Rec>* trace = opts.input_trace;
  std::size_t trace_pos = 0;

  Time next_reorg = cfg.epoch.t_rep;
  for (Time epoch_start = cfg.epoch.t_dist;; epoch_start += cfg.epoch.t_dist) {
    const bool exhausted = trace != nullptr && trace_pos >= trace->size();
    if (exhausted || epoch_start > opts.run_for) break;
    if (members.LiveCount() == 0) break;
    SleepUntil(clock, epoch_start);
    count(sum.epochs, c_epochs);
    vt_now = epoch_start;
    SetLogVt(epoch_start);
    g_watermark.Set(static_cast<double>(epoch_start));
    ob.trace.Begin("epoch", "epoch", epoch_start,
                   {{"epoch", static_cast<std::int64_t>(sum.epochs)}});
    const std::uint64_t tuples_before = sum.tuples_sent;
    // Per-group tuple routing counts of this epoch: the straggler/skew
    // signal. Derived from the arrivals being buffered (deterministic for a
    // trace-driven run), not from slave-reported load.
    std::vector<std::uint64_t> group_tuples(cfg.join.num_partitions, 0);

    // Membership transitions advance at the top of the epoch, before any
    // batch of this epoch is distributed: the step blocks until its chunk
    // completes, so every slave observes the change at the same ordinal.
    membership_step();

    // Buffer all arrivals of this epoch into the per-partition mini-buffers.
    // A trace is drained by virtual epoch time (tuple timestamps against the
    // epoch boundary), so the distributed tuple set is deterministic; the
    // live source is drained by the wall clock.
    std::vector<Rec> arrivals;
    std::span<const Rec> in = arrivals;
    if (trace != nullptr) {
      const std::size_t from = trace_pos;
      while (trace_pos < trace->size() &&
             (*trace)[trace_pos].ts <= epoch_start) {
        ++trace_pos;
      }
      in = std::span<const Rec>(*trace).subspan(from, trace_pos - from);
    } else {
      source.DrainUntil(clock.Now(), arrivals);
      in = arrivals;
    }
    for (const Rec& rec : in) {
      const PartitionId pid = PartitionOf(rec.key, npart);
      ++group_tuples[pid];
      buffer.Add(rec, pid);
    }

    // Skew ratio: max/median tuples per *loaded* group this epoch (1.0 for
    // a uniform or empty epoch). Exported as a stable gauge and fed to the
    // elastic policy's scale-in veto below.
    std::erase(group_tuples, 0);
    std::sort(group_tuples.begin(), group_tuples.end());
    const double skew_ratio =
        group_tuples.empty()
            ? 1.0
            : static_cast<double>(group_tuples.back()) /
                  static_cast<double>(group_tuples[group_tuples.size() / 2]);
    g_skew.Set(skew_ratio);

    // Distribute serially; each live slave's comm module answers with its
    // load report for exactly this batch (seq-matched in dispatch).
    {
      obs::ScopedTimer wall_dist(&wall_distribute);
      for (SlaveIdx m : members.Members()) send_batch(m, /*skip_empty=*/false);
    }
    ob.trace.Complete(
        "distribute", "epoch", epoch_start, 0,
        {{"epoch", static_cast<std::int64_t>(sum.epochs)},
         {"tuples", static_cast<std::int64_t>(sum.tuples_sent - tuples_before)}});

    // Collect this epoch's load reports. Every receive is bounded: after
    // recv_max_retries consecutive timeouts the slave is declared dead and
    // the epoch moves on -- the master never blocks on a crashed or hung
    // peer. Migration acks, metrics snapshots and checkpoint acks ride the
    // same channels and are dispatched on the way.
    for (SlaveIdx m : members.Members()) {
      wait_on(
          m, [&] { return reported[m] == batches_sent[m]; },
          /*verdict=*/true, opts.recv_timeout_us, opts.recv_max_retries);
    }

    // Epoch-lag gauges: how many distribution epochs each rank trails the
    // frontier. Active members that just answered sit at 0; standbys (and
    // draining leavers) accumulate lag. Derived from protocol state, so the
    // gauge is stable under a seeded run.
    for (Rank s = 1; s <= n; ++s) {
      g_lag[s - 1]->Set(static_cast<double>(sum.epochs - batches_sent[s - 1]));
    }

    // Elastic policy loop: observe the members' mean buffer occupancy;
    // proposals queue behind scheduled events and start at a later epoch's
    // membership step. Quiet while a transition is in progress or a
    // proposal is already queued -- the policy reacts to the settled
    // cluster, not to its own transient.
    if (elastic && ecfg.policy && !trans && !queue.HasProposal()) {
      double occ = 0.0;
      for (SlaveIdx m : members.Members()) occ += occupancy[m];
      const std::uint32_t cnt = members.MemberCount();
      const ScaleDecision d = policy.Observe(
          cnt > 0 ? occ / cnt : 0.0, cnt,
          static_cast<std::uint32_t>(members.Standbys().size()), skew_ratio);
      if (d != ScaleDecision::kNone) {
        const bool out = d == ScaleDecision::kOut;
        const SlaveIdx t =
            out ? members.Standbys().front() : members.Members().back();
        queue.Propose(MembershipEvent{sum.epochs, out, t});
        count(out ? sum.policy_scale_outs : sum.policy_scale_ins,
              out ? c_scale_outs : c_scale_ins);
        note_member(out ? "policy_scale_out" : "policy_scale_in", t);
      }
    }

    // Checkpoint sweep: every ckpt_every epochs, tell each live owner to
    // ship its groups' state to their buddies, covering every batch sent so
    // far. In-flight groups are skipped (their owner is ambiguous until the
    // move completes, after which the new owner checkpoints in full); an
    // owner that no longer holds a listed group skips it silently.
    if (repl && sum.epochs % ckpt_every == 0) {
      count(sum.ckpt_sweeps, c_sweeps);
      ob.trace.Instant("ckpt_sweep", "repl", vt_now,
                       {{"epoch", static_cast<std::int64_t>(sum.epochs)}});
      ledger.BeginSweep();
      for (SlaveIdx m : members.Members()) {
        CkptCmdMsg cmd;
        cmd.covered_epoch = sum.epochs;
        cmd.entries = ledger.SweepEntries(
            m, sum.epochs, migrations.Settled(pmap.PartitionsOf(m)));
        if (cmd.entries.empty()) continue;
        Writer w;
        Encode(w, cmd);
        transport.Send(static_cast<Rank>(m) + 1,
                       Make(MsgType::kCkptCmd, std::move(w)));
      }
    }

    // Reorganization: only over active members, only with no migration
    // still in flight, and suppressed while a membership transition runs
    // (its drain is a rebalance of its own; interleaving the two would
    // thrash groups). Due by the epoch's logical start, not the wall clock,
    // so a master running late reorganizes at the same epoch as its replay.
    if (epoch_start >= next_reorg && migrations.Empty() && !trans) {
      next_reorg += cfg.epoch.t_rep;
      const std::vector<SlaveIdx> live = members.Members();
      std::vector<double> occ;
      for (SlaveIdx m : live) occ.push_back(occupancy[m]);
      for (const auto& [pid, sup, con] : PlanReorganization(
               pmap, live, ClassifySlaves(occ, cfg.balance, &reg), rng, repl)) {
        const std::uint64_t seq = issue_move(pid, sup, con);
        count(sum.migrations, c_migrations);
        ob.trace.Instant("migrate", "reorg", vt_now,
                         {{"pid", static_cast<std::int64_t>(pid)},
                          {"from", static_cast<std::int64_t>(sup) + 1},
                          {"to", static_cast<std::int64_t>(con) + 1},
                          {"seq", static_cast<std::int64_t>(seq)}});
        SJOIN_INFO("master: moving partition " << pid << " from slave "
                                               << sup + 1 << " to " << con + 1
                                               << " (move " << seq << ")");
      }
    }

    ob.trace.End("epoch", "epoch", epoch_start + cfg.epoch.t_dist);
    ob.recorder.Snapshot(static_cast<std::int64_t>(sum.epochs), epoch_start,
                         reg);
  }

  // Drain in-flight migrations before shutting down: abandoning a move
  // mid-flight would strand its state transfer (and the buffered tuples it
  // carries). Every wait is still bounded -- an unresponsive mover gets the
  // same dead-slave verdict as in the epoch loop.
  drain_moves();

  // Then drain the last checkpoint sweep: a slave stops reading on
  // kShutdown, so a segment still in flight to it would block its sender
  // once it outgrows the socket buffer. One bounded wait per buddy, for the
  // entries whose owner lives; a slow buddy is abandoned, never evicted.
  for (SlaveIdx b = 0; b < n; ++b) {
    wait_on(
        b, [&] { return !ledger.OwesSweepAcks(b); }, /*verdict=*/false,
        opts.recv_timeout_us, opts.recv_max_retries);
  }

  // Final sweep: distribute the tuples that were withheld while their
  // partition was in flight (the drain ended every move).
  for (SlaveIdx m : members.Members()) send_batch(m, /*skip_empty=*/true);

  // Tell the collector how many slaves are still alive to report; dead
  // slaves will never deliver their kShutdown, and the collector must not
  // wait for them. The run-summary counters ride along for the collector's
  // observability line (the membership mirror is what the graceful-leave
  // acceptance checks key on). This frame goes out BEFORE the slaves'
  // shutdowns: every slave kShutdown the collector counts toward its exit
  // condition is caused by a master send that happens after this one, so
  // the collector is guaranteed to process the summary payload -- sent
  // last, it can lose the race against the final slave forward and leave
  // the collector's relayed counters at zero.
  Writer wc;
  wc.PutU32(members.LiveCount());
  wc.PutU32(sum.dead_slaves);
  wc.PutU64(sum.groups_failed_over);
  wc.PutU64(sum.ckpt_bytes);
  wc.PutU64(sum.replayed_batches);
  wc.PutU64(sum.joins);
  wc.PutU64(sum.leaves);
  wc.PutU64(sum.drain_moves);
  transport.Send(collector, Make(MsgType::kShutdown, std::move(wc)));
  // Every alive rank -- members and standbys -- gets the shutdown; a
  // standby's node loop is parked in Recv and exits on it.
  for (Rank s = 1; s <= n; ++s) {
    if (members.Alive(s - 1)) {
      transport.Send(s, Make(MsgType::kShutdown, Writer()));
    }
  }
  sum.wall_stages = obs::SummarizeWallStages(reg);
  SJOIN_INFO("master: wall stages: "
             << obs::FormatWallStages(sum.wall_stages));
  return sum;
}

namespace {

/// One frame handed from a slave's comm module to its join module, queued
/// exactly as received -- except a kTupleBatch, which the comm module
/// decodes to answer its load report: it travels as its records, with its
/// payload released. Its header's trace context rides along, so the join
/// thread finishes the master's batch_flow at the (deterministic) virtual
/// timestamp the batch is processed at, not at the racy receive instant.
struct Inbound {
  Message frame;          ///< a default frame (kShutdown) stands for closure
  std::vector<Rec> recs;  ///< kTupleBatch only
};

}  // namespace

SlaveSummary RunSlaveNode(Transport& transport, const SystemConfig& cfg,
                          const WallOptions& opts) {
  const Rank self = transport.Self();
  assert(self >= 1 && self <= cfg.num_slaves);
  SetLogRank(static_cast<std::int32_t>(self));
  const Rank collector = cfg.num_slaves + 1;
  const std::size_t tb = cfg.workload.tuple_bytes;
  const Duration spin = self - 1 < opts.slave_spin_us_per_tuple.size()
                            ? opts.slave_spin_us_per_tuple[self - 1]
                            : 0;

  // Observability: counters mirror the SlaveSummary fields (bumped only on
  // the join thread, alongside each `sum` field). After fully draining each
  // epoch's batch the join thread snapshots the recorder and ships a
  // kMetrics frame stamped with `epochs_done` -- fire-and-forget, the master
  // keys its cluster view by the stamp. Trace timestamps are logical:
  // epochs_done * t_dist.
  obs::NodeObs local_obs;
  obs::NodeObs& ob =
      self - 1 < opts.slave_obs.size() && opts.slave_obs[self - 1] != nullptr
          ? *opts.slave_obs[self - 1]
          : local_obs;
  ob.trace.SetRank(self);
  // Same seed-derived trace id as the master's: stamps the slave's own
  // causal sends (kResultStats to the collector) for trace stitching.
  const std::uint64_t run_trace_id =
      Mix64(cfg.workload.seed ^ 0x7472616365ull) & 0xFFFF'FFFF'FFFFull;
  obs::MetricsRegistry& reg = ob.registry;
  obs::Counter& c_processed = reg.GetCounter("slave_tuples_processed");
  obs::Counter& c_outputs = reg.GetCounter("slave_outputs");
  obs::Counter& c_comparisons = reg.GetCounter("slave_comparisons");
  obs::Counter& c_moved_out = reg.GetCounter("slave_groups_moved_out");
  obs::Counter& c_moved_in = reg.GetCounter("slave_groups_moved_in");
  obs::Counter& c_ck_sent = reg.GetCounter("slave_ckpt_segments_sent");
  obs::Counter& c_ck_bytes = reg.GetCounter("slave_ckpt_bytes_sent");
  obs::Counter& c_ck_applied = reg.GetCounter("slave_ckpt_segments_applied");
  obs::Counter& c_adopted = reg.GetCounter("slave_groups_adopted");
  obs::Counter& c_replayed = reg.GetCounter("slave_replayed_tuples");
  // Wall-clock stage histograms (kWall; see obs/profiler.h). codec_decode is
  // observed on both threads (batches on the comm thread, state transfers
  // and checkpoint segments on the join thread), the checkpoint stages on
  // the join thread -- HistogramMetric is internally locked.
  obs::HistogramMetric& wall_decode =
      obs::WallStage(reg, obs::kStageCodecDecode);
  obs::HistogramMetric& wall_ck_snap =
      obs::WallStage(reg, obs::kStageCkptSnapshot);
  obs::HistogramMetric& wall_ck_journal =
      obs::WallStage(reg, obs::kStageCkptJournal);
  // Health gauges. The watermark (logical frontier this slave has fully
  // processed) is stable: it advances to epochs_done * t_dist at each batch
  // drain. The queue depths are kVolatile -- *when* a frame lands in the
  // inbox races against wall scheduling -- so they appear in end-of-run
  // exports but never in recorder snapshots or kMetrics frames. The bytes
  // the window's storage allocates, set after each batch, are kVolatile too,
  // so the gauge adds nothing to either (the paper's window-size figure,
  // records x tuple bytes, is what they carry).
  obs::Gauge& g_watermark = reg.GetGauge("watermark_vt_us");
  obs::Gauge& g_queue =
      reg.GetGauge("work_queue_depth", {}, obs::Stability::kVolatile);
  obs::Gauge& g_inbox =
      reg.GetGauge("inbox_tuples", {}, obs::Stability::kVolatile);
  obs::Gauge& g_window_storage =
      reg.GetGauge("window_storage_bytes", {}, obs::Stability::kVolatile);
  // Records this buddy's replica chains hold (timing dependent: how far a
  // chain is pruned depends on when the master heard the acks).
  obs::Gauge& g_replica_records =
      reg.GetGauge("replica_records", {}, obs::Stability::kVolatile);

  WallClock clock;
  Time clock_offset = 0;  // master_time - local_time (join thread only)

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Inbound> queue;
  std::atomic<std::size_t> inbox_tuples{0};

  auto push = [&](Inbound in) {
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(in));
    }
    cv.notify_one();
  };

  // --- comm module -----------------------------------------------------
  // Answers what must not wait for the join -- a batch's load report, a
  // join command's ack -- and queues every frame for the join module in
  // arrival order. It stops after queueing kShutdown or a closure.
  std::thread comm([&] {
    SetLogRank(static_cast<std::int32_t>(self));
    std::uint64_t batches_seen = 0;
    while (true) {
      std::optional<Message> msg = transport.Recv();
      if (!msg.has_value()) {
        push(Inbound{});
        return;
      }
      Inbound in{std::move(*msg), {}};
      const MsgType type = in.frame.type;
      if (type == MsgType::kTupleBatch) {
        {
          Reader r(in.frame.payload);
          obs::ScopedTimer wall(&wall_decode);
          in.recs = DecodeTupleBatch(r, tb).recs;
        }
        in.frame.payload = std::vector<std::uint8_t>();
        // Load report: buffer occupancy before this batch lands. `seq`
        // names the batch it answers so the master can discard stale or
        // duplicated reports.
        LoadReportMsg report;
        report.buffered_tuples = inbox_tuples.load();
        report.avg_buffer_occupancy = std::min(
            1.0, static_cast<double>(report.buffered_tuples * tb) /
                     static_cast<double>(cfg.balance.slave_buffer_bytes));
        report.seq = ++batches_seen;
        Writer w;
        Encode(w, report);
        inbox_tuples.fetch_add(in.recs.size());
        push(std::move(in));
        transport.Send(0, Make(MsgType::kLoadReport, std::move(w)));
        continue;
      }
      if (type == MsgType::kJoinCmd) {
        // Ack at once (the admission handshake is latency-bound, like load
        // reports); the command itself rides the FIFO queue, so the epoch
        // resync lands before any admitted-epoch work. A duplicated command
        // (handshake resend) re-acks and re-writes the same ordinal.
        Reader r(in.frame.payload);
        Writer w;
        Encode(w, JoinAckMsg{DecodeJoinCmd(r).admit_epoch});
        transport.Send(0, Make(MsgType::kJoinAck, std::move(w)));
      }
      push(std::move(in));
      if (type == MsgType::kShutdown) return;
    }
  });

  // --- join module -------------------------------------------------------
  // Wall mode measures real time; the virtual CostModel must not inflate
  // produced_at stamps, so the join runs with zeroed charges.
  SystemConfig wall_cfg = cfg;
  wall_cfg.cost = CostModel{};
  wall_cfg.cost.cmp_ns = 0.0;
  wall_cfg.cost.tuple_fixed_ns = 0.0;
  wall_cfg.cost.cpu_byte_ns = 0.0;
  wall_cfg.cost.wire_byte_ns = 0.0;
  wall_cfg.cost.msg_fixed_us = 0;
  wall_cfg.cost.move_ns = 0.0;
  StatsSink sink;
  // Seeded tuple-delay sampling (obs/delay_sampler.h): a deterministic
  // subset of probes lands in per-partition tuple_delay_us histograms that
  // ride the kMetrics frames into the master's cluster view.
  obs::DelaySampleSink delay_sink(&reg, cfg.workload.seed,
                                  cfg.obs.delay_sample_rate,
                                  cfg.join.num_partitions);
  std::vector<JoinSink*> fan{&sink, &delay_sink};
  if (self - 1 < opts.slave_extra_sinks.size() &&
      opts.slave_extra_sinks[self - 1] != nullptr) {
    fan.push_back(opts.slave_extra_sinks[self - 1]);
  }
  EpochTagSink* tag = self - 1 < opts.slave_epoch_sinks.size()
                          ? opts.slave_epoch_sinks[self - 1]
                          : nullptr;
  if (tag != nullptr) fan.push_back(tag);
  TeeSink tee(fan);
  JoinModule join(wall_cfg, &tee);
  join.AttachMetrics(&reg);
  // Intra-slave worker pool for the batch pass (cfg.slave.workers; 1 =
  // serial). Only the join thread calls ProcessFor, and RunOnAll is a
  // barrier, so checkpoint sweeps / migrations on this thread always see a
  // quiesced pool. The pool must outlive every ProcessFor call; it is
  // destroyed after the work loop exits.
  WorkerPool pool(cfg.slave.workers);
  join.SetWorkerPool(&pool);
  if (cfg.replication.enabled) join.EnableCheckpointJournal();
  SlaveSummary sum;

  // Join-side registry mirrors: deltas since the last ProcessFor site (the
  // counters must equal sink.Outputs() / join.Comparisons() whenever the
  // registry is exported, so every processing path syncs after draining).
  std::uint64_t obs_outputs = 0;
  std::uint64_t obs_comparisons = 0;
  auto sync_join_counters = [&] {
    c_outputs.Add(sink.Outputs() - obs_outputs);
    obs_outputs = sink.Outputs();
    c_comparisons.Add(join.Comparisons() - obs_comparisons);
    obs_comparisons = join.Comparisons();
  };
  std::uint64_t reported_outputs = 0;
  double reported_delay_sum = 0.0;

  // Replication state. `epochs_done` counts fully processed kTupleBatch
  // frames; the master sends one batch per epoch to every live slave,
  // so it equals the global epoch ordinal of the last covered batch --
  // checkpoints are stamped with it. `last_ckpt` is the per-group covered
  // epoch of the last shipped segment (incremental deltas continue it);
  // `replica` holds this slave's buddy-side segment chains.
  std::uint64_t epochs_done = 0;
  std::map<PartitionId, std::uint64_t> last_ckpt;
  std::map<PartitionId, ReplicaChain> replica;
  auto set_replica_gauge = [&] {
    std::size_t records = 0;
    for (const auto& [pid, chain] : replica) records += chain.Records();
    g_replica_records.Set(static_cast<double>(records));
  };

  auto flush_stats = [&] {
    const RunningStat& d = sink.DelayUs();
    ResultStatsMsg stats;
    stats.outputs = d.Count() - reported_outputs;
    stats.delay_sum_us = d.Sum() - reported_delay_sum;
    stats.delay_max_us = d.Max();
    if (stats.outputs == 0) return;
    reported_outputs = d.Count();
    reported_delay_sum = d.Sum();
    Writer w;
    Encode(w, stats);
    // Causal hop slave -> collector: context in the frame header, flow
    // started here at the slave's logical timestamp; the collector finishes
    // it (sorted, at shutdown) so the stitched trace shows the full
    // master -> slave -> collector chain.
    Message msg = Make(MsgType::kResultStats, std::move(w));
    msg.trace_id = run_trace_id;
    msg.parent_span = ob.trace.NextSpanId();
    msg.send_vt = static_cast<Time>(epochs_done) * cfg.epoch.t_dist;
    ob.trace.FlowStart(
        "stats_flow", "flow", msg.send_vt, msg.parent_span,
        {{"outputs", static_cast<std::int64_t>(stats.outputs)}});
    transport.Send(collector, std::move(msg));
  };

  // Migration bookkeeping for idempotent installs: a transfer is applied
  // exactly once, when both its kInstallCmd and its kStateTransfer have
  // arrived (in either order -- they travel on different channels), keyed by
  // the master-global move_seq. `completed` absorbs duplicated transfers;
  // `stash` holds transfers that overtook their install command.
  std::set<std::uint64_t> completed;
  std::set<std::uint64_t> expected;
  std::map<std::uint64_t, StateTransferMsg> stash;
  constexpr std::size_t kMaxStash = 64;

  auto install = [&](StateTransferMsg& st) {
    Reader gr(st.group_state);
    join.InstallGroup(st.partition_id, DecodeGroupState(gr, cfg.join, tb));
    join.EnqueueBatch(st.pending);
    join.ProcessFor(clock.Now() + clock_offset, kDrainBudget);
    completed.insert(st.move_seq);
    Writer wa;
    Encode(wa, AckMsg{st.partition_id, st.move_seq});
    transport.Send(0, Make(MsgType::kAck, std::move(wa)));
    ++sum.groups_moved_in;
    c_moved_in.Inc();
    sync_join_counters();
    ob.trace.Instant(
        "group_install", "reorg",
        static_cast<Time>(epochs_done) * cfg.epoch.t_dist,
        {{"pid", static_cast<std::int64_t>(st.partition_id)},
         {"seq", static_cast<std::int64_t>(st.move_seq)}});
    flush_stats();
  };

  bool running = true;
  while (running) {
    Inbound in = [&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !queue.empty(); });
      Inbound next = std::move(queue.front());
      queue.pop_front();
      g_queue.Set(static_cast<double>(queue.size()));
      return next;
    }();
    g_inbox.Set(static_cast<double>(inbox_tuples.load()));

    const Message& frame = in.frame;
    Reader r(frame.payload);
    const Time master_now = clock.Now() + clock_offset;
    switch (frame.type) {
      case MsgType::kClockSync:
        clock_offset = DecodeClockSync(r).master_now - clock.Now();
        break;
      case MsgType::kTupleBatch: {
        if (spin > 0 && !in.recs.empty()) {
          // Emulated background/processing load of a non-dedicated node.
          std::this_thread::sleep_for(std::chrono::microseconds(
              spin * static_cast<Duration>(in.recs.size())));
        }
        ++epochs_done;
        SetLogVt(static_cast<Time>(epochs_done) * cfg.epoch.t_dist);
        if (tag != nullptr) tag->SetEpoch(epochs_done);
        delay_sink.SetLogicalNow(static_cast<Time>(epochs_done) *
                                 cfg.epoch.t_dist);
        join.EnqueueBatch(in.recs);
        const std::uint64_t before = join.TuplesProcessed();
        const std::uint64_t out_before = sink.Outputs();
        join.ProcessFor(clock.Now() + clock_offset, kDrainBudget);
        const std::uint64_t done = join.TuplesProcessed() - before;
        sum.tuples_processed += done;
        c_processed.Add(done);
        sync_join_counters();
        inbox_tuples.fetch_sub(std::min<std::size_t>(
            static_cast<std::size_t>(done), inbox_tuples.load()));
        g_window_storage.Set(static_cast<double>(join.Store().StorageBytes()));
        flush_stats();
        // Epoch boundary on this slave's logical timeline: snapshot the
        // recorder and ship the stable families to the master as kMetrics.
        const Time vts = static_cast<Time>(epochs_done) * cfg.epoch.t_dist;
        g_watermark.Set(static_cast<double>(vts));
        // Close the master's batch_flow at this batch's logical processing
        // instant (vts >= send_vt by construction: the batch was sent at the
        // epoch's start). Locally crafted batches (tests) carry no context.
        if (frame.trace_id != 0) {
          ob.trace.FlowFinish(
              "batch_flow", "flow", vts, frame.parent_span,
              {{"send_vt", static_cast<std::int64_t>(frame.send_vt)},
               {"epoch", static_cast<std::int64_t>(epochs_done)}});
        }
        ob.trace.Complete(
            "join_batch", "join", vts, 0,
            {{"epoch", static_cast<std::int64_t>(epochs_done)},
             {"tuples", static_cast<std::int64_t>(done)},
             {"outputs",
              static_cast<std::int64_t>(sink.Outputs() - out_before)}});
        ob.recorder.Snapshot(static_cast<std::int64_t>(epochs_done), vts, reg);
        MetricsMsg mm;
        mm.epoch = epochs_done;
        mm.samples = obs::CollectSamples(reg, /*include_volatile=*/false);
        // Live per-stage wall quantiles ride along as synthetic samples; the
        // cluster view is never byte-compared across runs, so wall data is
        // safe there (unlike the recorder/trace exports).
        obs::AppendWallStageSamples(reg, &mm.samples);
        Writer mw;
        Encode(mw, mm);
        transport.Send(0, Make(MsgType::kMetrics, std::move(mw)));
        break;
      }
      case MsgType::kMoveCmd: {
        const MoveCmdMsg mc = DecodeMoveCmd(r);
        if (join.Store().Find(mc.partition_id) == nullptr) {
          // Nothing owned yet (e.g. moved before any tuple arrived): ship an
          // empty group so the protocol still completes.
          join.InstallGroup(mc.partition_id,
                            std::make_unique<PartitionGroup>(cfg.join, tb));
        }
        Duration cost = 0;
        std::vector<Rec> pending;
        auto group =
            join.ExtractGroup(mc.partition_id, master_now, cost, pending);
        Writer gw;
        EncodeGroupState(gw, *group);
        StateTransferMsg st;
        st.partition_id = mc.partition_id;
        st.group_state = std::move(gw).TakeBuffer();
        st.pending = std::move(pending);
        st.move_seq = mc.move_seq;
        Writer w;
        Encode(w, st, tb);
        transport.Send(mc.peer, Make(MsgType::kStateTransfer, std::move(w)));
        Writer wa;
        Encode(wa, AckMsg{mc.partition_id, mc.move_seq});
        transport.Send(0, Make(MsgType::kAck, std::move(wa)));
        ++sum.groups_moved_out;
        c_moved_out.Inc();
        ob.trace.Instant("group_extract", "reorg",
                         static_cast<Time>(epochs_done) * cfg.epoch.t_dist,
                         {{"pid", static_cast<std::int64_t>(mc.partition_id)},
                          {"seq", static_cast<std::int64_t>(mc.move_seq)}});
        break;
      }
      case MsgType::kInstallCmd: {
        // The master announced that the peer will send this group.
        const std::uint64_t seq = DecodeMoveCmd(r).move_seq;
        if (completed.count(seq) != 0) {
          // Already installed (transfer and command both seen); stale copy.
        } else if (auto it = stash.find(seq); it != stash.end()) {
          StateTransferMsg st = std::move(it->second);
          stash.erase(it);
          install(st);
        } else {
          expected.insert(seq);
        }
        break;
      }
      case MsgType::kStateTransfer: {
        StateTransferMsg st = [&] {
          obs::ScopedTimer wall(&wall_decode);
          return DecodeStateTransfer(r, tb);
        }();
        if (completed.count(st.move_seq) != 0) {
          // Duplicated kStateTransfer: the group is installed; drop it.
        } else if (expected.erase(st.move_seq) != 0) {
          install(st);
        } else {
          // The transfer overtook its kInstallCmd (different channels); hold
          // it until the command arrives. The stash is bounded -- overflow
          // discards the oldest move, which then resolves as a crash would.
          if (stash.size() >= kMaxStash) stash.erase(stash.begin());
          stash.emplace(st.move_seq, std::move(st));
        }
        break;
      }
      case MsgType::kCkptCmd: {
        // Owner side of a checkpoint sweep. Every batch received before the
        // command has been fully processed (the queue is FIFO and each batch
        // drains completely), so the shipped state covers exactly
        // `epochs_done` epochs -- the segment is stamped with that, not with
        // the master's covered_epoch, so a late command never overstates
        // coverage. A group this slave no longer (or never) holds is skipped
        // without an ack: the master's retention for it stays put.
        for (const CkptCmdMsg::Entry& e : DecodeCkptCmd(r).entries) {
          PartitionGroup* g = join.Store().Find(e.partition_id);
          if (g == nullptr) continue;
          auto lc = last_ckpt.find(e.partition_id);
          // First contact with this group (or post-migration): a delta has
          // no base to extend -- upgrade to a full snapshot.
          const bool full = e.full || lc == last_ckpt.end();
          if (!full && lc->second >= epochs_done) continue;  // nothing new
          CheckpointMsg m;
          m.partition_id = e.partition_id;
          m.full = full;
          m.from_epoch = full ? 0 : lc->second;
          m.to_epoch = epochs_done;
          if (full) {
            obs::ScopedTimer wall(&wall_ck_snap);
            (void)join.TakeJournal(e.partition_id);  // superseded by snapshot
            m.recs = CollectGroupRecords(*g);
          } else {
            obs::ScopedTimer wall(&wall_ck_journal);
            m.recs = join.TakeJournal(e.partition_id);
          }
          Time max_seen = 0;
          g->ForEachMiniGroup([&](const MiniGroup& mg) {
            max_seen = std::max(max_seen, mg.MaxSeenTs());
          });
          m.expire_before = max_seen - wall_cfg.join.window;
          m.committed_epoch = e.committed_epoch;
          last_ckpt[e.partition_id] = epochs_done;
          Writer w;
          Encode(w, m, tb);
          Message msg = Make(MsgType::kCheckpoint, std::move(w));
          ++sum.ckpt_segments_sent;
          sum.ckpt_bytes_sent += msg.payload.size();
          c_ck_sent.Inc();
          c_ck_bytes.Add(msg.payload.size());
          ob.trace.Instant(
              "ckpt_segment", "repl",
              static_cast<Time>(epochs_done) * cfg.epoch.t_dist,
              {{"pid", static_cast<std::int64_t>(e.partition_id)},
               {"to_epoch", static_cast<std::int64_t>(epochs_done)},
               {"full", full ? 1 : 0}});
          transport.Send(e.buddy, std::move(msg));
        }
        break;
      }
      case MsgType::kCheckpoint: {
        // Buddy side: apply the segment atomically (it either is in the
        // chain or it is not -- a crash between segments never tears one);
        // the chain dedups on the covered epoch and prunes below the
        // committed one (core/replica_chain.h).
        CheckpointMsg m = [&] {
          obs::ScopedTimer wall(&wall_decode);
          return DecodeCheckpoint(r, tb);
        }();
        if (replica[m.partition_id].Apply(
                {m.from_epoch, m.to_epoch, m.full, m.expire_before,
                 std::move(m.recs)},
                m.committed_epoch)) {
          ++sum.ckpt_segments_applied;
          c_ck_applied.Inc();
          set_replica_gauge();
          ob.trace.Instant(
              "ckpt_apply", "repl",
              static_cast<Time>(epochs_done) * cfg.epoch.t_dist,
              {{"pid", static_cast<std::int64_t>(m.partition_id)},
               {"to_epoch", static_cast<std::int64_t>(m.to_epoch)}});
        }
        Writer w;
        Encode(w, CheckpointAckMsg{m.partition_id, m.to_epoch,
                                   frame.payload.size()});
        transport.Send(0, Make(MsgType::kCheckpointAck, std::move(w)));
        break;
      }
      case MsgType::kFailoverCmd: {
        // Adopt a dead slave's groups: rebuild each from the replica chain
        // strictly below replay_from (unacknowledged segments are discarded
        // -- the replay regenerates their epochs), pruning records the
        // expiry watermark proves can never match a replayed or future
        // probe.
        for (const FailoverCmdMsg::Entry& e : DecodeFailoverCmd(r).entries) {
          std::vector<Rec> recs;
          if (auto node = replica.extract(e.partition_id)) {
            sum.adopted_segments_pruned += node.mapped().Pruned();
            recs = node.mapped().Rebuild(e.replay_from);
          }
          if (!recs.empty()) {
            join.InstallGroup(
                e.partition_id,
                BuildGroupFromRecords(std::move(recs), wall_cfg.join, tb));
          }
          ++sum.groups_adopted;
          c_adopted.Inc();
          ob.trace.Instant(
              "group_adopt", "repl",
              static_cast<Time>(epochs_done) * cfg.epoch.t_dist,
              {{"pid", static_cast<std::int64_t>(e.partition_id)},
               {"replay_from", static_cast<std::int64_t>(e.replay_from)}});
        }
        set_replica_gauge();
        break;
      }
      case MsgType::kReplayBatch: {
        // Redelivered retained epoch: joined exactly like a tuple batch, but
        // tagged with its original epoch (the voiding rule keys on it) and
        // answering no load report.
        const ReplayBatchMsg rb = DecodeReplayBatch(r, tb);
        if (tag != nullptr) tag->SetEpoch(rb.epoch);
        join.EnqueueBatch(rb.recs);
        join.ProcessFor(master_now, kDrainBudget);
        sum.replayed_tuples += rb.recs.size();
        c_replayed.Add(rb.recs.size());
        sync_join_counters();
        ob.trace.Instant(
            "replay_processed", "join",
            static_cast<Time>(epochs_done) * cfg.epoch.t_dist,
            {{"epoch", static_cast<std::int64_t>(rb.epoch)},
             {"tuples", static_cast<std::int64_t>(rb.recs.size())}});
        flush_stats();
        break;
      }
      case MsgType::kJoinCmd: {
        // Admission (acked by the comm module): resync the epoch ordinal so
        // the first admitted batch lands at exactly admit_epoch --
        // checkpoint stamps and logical trace timestamps stay a *global*
        // epoch count across the membership change (the master skipped
        // this rank while standby).
        const std::uint64_t admit_epoch = DecodeJoinCmd(r).admit_epoch;
        epochs_done = admit_epoch > 0 ? admit_epoch - 1 : 0;
        SetLogVt(static_cast<Time>(epochs_done) * cfg.epoch.t_dist);
        ob.trace.Instant(
            "member_admit", "membership",
            static_cast<Time>(epochs_done) * cfg.epoch.t_dist,
            {{"admit_epoch", static_cast<std::int64_t>(admit_epoch)}});
        break;
      }
      case MsgType::kLeaveCmd: {
        // Graceful retirement: every batch, extract, and handover checkpoint
        // the master issued before the farewell has drained (FIFO), so the
        // store owns no groups and the replica chains this node held are
        // obsolete -- drop them and return to standby. The ack travels after
        // everything this node still owed the cluster.
        const std::uint64_t epoch = DecodeLeaveCmd(r).epoch;
        replica.clear();
        set_replica_gauge();
        last_ckpt.clear();
        ob.trace.Instant("member_retire", "membership",
                         static_cast<Time>(epochs_done) * cfg.epoch.t_dist,
                         {{"epoch", static_cast<std::int64_t>(epoch)}});
        Writer w;
        Encode(w, LeaveAckMsg{epoch});
        transport.Send(0, Make(MsgType::kLeaveAck, std::move(w)));
        flush_stats();
        break;
      }
      case MsgType::kShutdown:
        running = false;
        break;
      default:
        break;
    }
  }

  flush_stats();
  sync_join_counters();  // registry mirrors equal the summary at exit
  if (opts.slave_inspect) {
    opts.slave_inspect(self, join, epochs_done);
  }
  transport.Send(collector, Make(MsgType::kShutdown, Writer()));
  sum.outputs = sink.Outputs();
  sum.worker_busy_cost_us = join.WorkerBusyUs();
  comm.join();
  sum.wall_stages = obs::SummarizeWallStages(reg);
  SJOIN_INFO("slave " << self << ": wall stages: "
                      << obs::FormatWallStages(sum.wall_stages));
  return sum;
}

CollectorSummary RunCollectorNode(Transport& transport,
                                  const SystemConfig& cfg,
                                  obs::NodeObs* obs) {
  const Rank self = cfg.num_slaves + 1;
  SetLogRank(static_cast<std::int32_t>(self));
  obs::NodeObs local_obs;
  obs::NodeObs& ob = obs != nullptr ? *obs : local_obs;
  ob.trace.SetRank(self);
  obs::Counter& c_reports = ob.registry.GetCounter("collector_reports");
  obs::Counter& c_outputs = ob.registry.GetCounter("collector_outputs");
  CollectorSummary sum;
  double delay_sum = 0.0;
  std::uint32_t slave_shutdowns = 0;
  // Receive-side ends of the slaves' stats_flow flows. Arrival order is
  // wall-racy, so the finish events are buffered here and emitted sorted by
  // (send_vt, sender, flow id) after the loop -- the exported trace stays
  // byte-identical across same-seed runs. The finish timestamp is the
  // sender's logical send instant (the earliest causally-valid stamp).
  struct FlowEnd {
    Time send_vt;
    Rank from;
    std::uint64_t flow;
  };
  std::vector<FlowEnd> flow_ends;
  // Until the master says otherwise, expect every slave to report; the
  // master's kShutdown carries the live-slave count, excluding crashed
  // slaves whose final kShutdown will never arrive.
  std::uint32_t expected = cfg.num_slaves;
  while (slave_shutdowns < expected) {
    auto msg = transport.Recv();
    if (!msg.has_value()) break;
    if (msg->type == MsgType::kShutdown) {
      if (msg->from == 0) {
        // The master's run summary: u32 live, u32 dead, then six u64.
        Reader r(msg->payload);
        expected = std::min(expected, r.GetU32());
        sum.dead_slaves = r.GetU32();
        sum.groups_failed_over = r.GetU64();
        sum.ckpt_bytes = r.GetU64();
        sum.replayed_batches = r.GetU64();
        sum.joins = r.GetU64();
        sum.leaves = r.GetU64();
        sum.drain_moves = r.GetU64();
      } else {
        ++slave_shutdowns;
      }
      continue;
    }
    if (msg->type != MsgType::kResultStats) continue;
    Reader r(msg->payload);
    ResultStatsMsg stats = DecodeResultStats(r);
    sum.outputs += stats.outputs;
    delay_sum += stats.delay_sum_us;
    sum.max_delay_us = std::max(sum.max_delay_us, stats.delay_max_us);
    ++sum.reports;
    c_reports.Inc();
    c_outputs.Add(stats.outputs);
    if (msg->trace_id != 0) {
      flow_ends.push_back(FlowEnd{msg->send_vt, msg->from, msg->parent_span});
    }
  }
  std::sort(flow_ends.begin(), flow_ends.end(), [](const FlowEnd& a,
                                                   const FlowEnd& b) {
    return std::tie(a.send_vt, a.from, a.flow) <
           std::tie(b.send_vt, b.from, b.flow);
  });
  for (const FlowEnd& fe : flow_ends) {
    ob.trace.FlowFinish("stats_flow", "flow", fe.send_vt, fe.flow,
                        {{"send_vt", static_cast<std::int64_t>(fe.send_vt)},
                         {"slave", static_cast<std::int64_t>(fe.from)}});
  }
  // The collector has no epochs: one recorder row holds the run's totals,
  // so a replay of its bundle has an artifact to match.
  ob.recorder.Snapshot(0, 0, ob.registry);
  sum.avg_delay_us =
      sum.outputs > 0 ? delay_sum / static_cast<double>(sum.outputs) : 0.0;
  // Per-run observability line: result totals plus the master's recovery
  // counters (chaos tests assert the relayed values).
  SJOIN_INFO("collector: run summary: outputs="
             << sum.outputs << " reports=" << sum.reports << " evictions="
             << sum.dead_slaves << " failovers=" << sum.groups_failed_over
             << " ckpt_bytes=" << sum.ckpt_bytes
             << " replayed_batches=" << sum.replayed_batches);
  return sum;
}

ClusterSummaries RunInProcessCluster(InProcHub& hub,
                                     const std::vector<Transport*>& nodes,
                                     const SystemConfig& cfg,
                                     const WallOptions& opts,
                                     obs::NodeObs* collector_obs) {
  const Rank n = cfg.num_slaves;
  assert(nodes.size() == n + 2);
  ClusterSummaries sum;
  sum.slaves.resize(n);
  std::vector<std::thread> slaves;
  slaves.reserve(n);
  for (Rank s = 1; s <= n; ++s) {
    slaves.emplace_back(
        [&, s] { sum.slaves[s - 1] = RunSlaveNode(*nodes[s], cfg, opts); });
  }
  std::thread collector([&] {
    sum.collector = RunCollectorNode(*nodes[n + 1], cfg, collector_obs);
  });
  sum.master = RunMasterNode(*nodes[0], cfg, opts);
  collector.join();
  hub.Shutdown();
  for (std::thread& t : slaves) t.join();
  return sum;
}

}  // namespace sjoin
