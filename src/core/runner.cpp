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
#include <thread>
#include <tuple>
#include <variant>

#include "common/clock.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/balancer.h"
#include "core/master_buffer.h"
#include "core/membership.h"
#include "core/partition_map.h"
#include "core/replica_chain.h"
#include "core/worker_pool.h"
#include "gen/stream_source.h"
#include "join/epoch_tag_sink.h"
#include "join/join_module.h"
#include "net/codec.h"
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

/// One in-flight partition-group migration, tracked until both movers ack.
struct PendingMove {
  PartitionId pid = 0;
  SlaveIdx sup = 0;
  SlaveIdx con = 0;
  bool sup_acked = false;
  bool con_acked = false;
  std::uint64_t seq = 0;
};

/// One in-progress membership transition (at most one at a time; scheduled
/// events and policy proposals queue behind it). A join is handshaken first
/// and then rebalanced toward its share; a leave is drained group-by-group,
/// hands its replicas over, and is dismissed by the farewell handshake.
struct MembershipTransition {
  bool join = false;
  SlaveIdx slave = 0;
  std::uint64_t start_epoch = 0;
  Time started_wall = 0;  ///< for MasterSummary::membership_us
};

/// No pending buddy handover for a group (sentinel in `pending_buddy`).
constexpr SlaveIdx kNoPendingBuddy = 0xFFFFFFFFu;

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
  ob.flight.SetCapacity(cfg.obs.flight_ring_events);
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
  std::vector<bool> in_flight(cfg.join.num_partitions, false);
  std::vector<std::uint64_t> batches_sent(n, 0);
  std::vector<PendingMove> moves;
  std::uint64_t next_move_seq = 1;

  // Membership transition state: a sorted queue of scheduled events, the
  // policy's proposals behind them, and the (single) transition in
  // progress. `pending_buddy` marks groups whose replica is being handed to
  // a new buddy: the ring pointer switches only when the new buddy acks a
  // full snapshot, so there is never a window where the only replica of a
  // group lives on a node that is about to leave.
  std::deque<MembershipEvent> schedule(opts.membership.begin(),
                                       opts.membership.end());
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const MembershipEvent& a, const MembershipEvent& b) {
                     return a.epoch < b.epoch;
                   });
  std::deque<MembershipEvent> proposals;
  std::optional<MembershipTransition> trans;
  ElasticPolicy policy(ecfg);

  // Replication bookkeeping (see runner.h "Replication and failover"):
  // retained tuple batches per (group, epoch), dropped when the current
  // buddy acknowledges a checkpoint covering their epoch; `acked` is that
  // watermark; `need_full` forces the next checkpoint of a group to be a
  // full snapshot (initially, and after any owner or buddy change).
  const bool repl = cfg.replication.enabled && n >= 2;
  const std::uint32_t ckpt_every =
      std::max<std::uint32_t>(1, cfg.replication.ckpt_interval_epochs);
  const std::uint32_t npart = cfg.join.num_partitions;
  std::vector<std::deque<std::pair<std::uint64_t, std::vector<Rec>>>> retained(
      repl ? npart : 0);
  std::vector<std::uint64_t> acked(repl ? npart : 0, 0);
  std::vector<bool> need_full(repl ? npart : 0, true);
  // Per-group pending buddy handover (elastic membership): while set, the
  // checkpoint sweeps ship the group to this rank in full, but pmap's ring
  // pointer (and the old replica) stay authoritative until the new buddy
  // acks -- there is never a window without a committed replica.
  std::vector<SlaveIdx> pending_buddy(repl ? npart : 0, kNoPendingBuddy);
  // Whether any tuple was ever distributed to a group: an untouched group
  // has no state anywhere, so its buddy pointer may flip instantly without
  // a snapshot handover (the owner-side store creates groups on first touch
  // and silently skips checkpoint commands for absent ones).
  std::vector<bool> touched(repl ? npart : 0, false);
  // The newest checkpoint sweep's entries, per group, until the buddy they
  // name acks them (see the shutdown drain).
  struct SweepEntry {
    std::uint64_t epoch;
    SlaveIdx owner;
    SlaveIdx buddy;
  };
  std::vector<std::optional<SweepEntry>> unacked(repl ? npart : 0);

  // Re-points a group's buddy to the owner's successor on the member ring.
  // The new buddy holds no segments: the ack watermark resets, the next
  // checkpoint must be a full snapshot, and any handover that was pending
  // for the group is moot.
  auto rering_buddy = [&](PartitionId pid, SlaveIdx owner) {
    const std::vector<SlaveIdx> ring = members.Members();
    if (ring.empty()) return;
    const SlaveIdx cand = PartitionMap::RingSuccessor(owner, ring);
    if (cand == owner) return;  // sole member: no distinct buddy exists
    pmap.SetBuddy(pid, cand);
    acked[pid] = 0;
    need_full[pid] = true;
    pending_buddy[pid] = kNoPendingBuddy;
  };

  // Dead-slave verdict: exclude the rank from all subsequent epochs, cancel
  // migrations it was party to (their withheld partitions are released; any
  // state the transfer carried died with the node), and force-evacuate its
  // partition-groups onto the survivors. Survivors re-grow window state for
  // the rehosted groups from new arrivals (WindowStore creates groups on
  // first touch), so the run keeps producing results.
  auto evict = [&](SlaveIdx dead) {
    // Idempotent: a second verdict against the same rank (a failover racing
    // a late frame from the evicted slave on another wait path) must not
    // re-run eviction side effects.
    if (!members.Evict(dead, sum.epochs)) return;
    WallClock recovery_clock;
    const Time recovery_t0 = recovery_clock.Now();
    ++sum.dead_slaves;
    c_dead.Inc();
    ob.trace.Instant("dead_slave", "fault", vt_now,
                     {{"slave", static_cast<std::int64_t>(dead) + 1}});
    ob.flight.Record(vt_now, "dead_slave",
                     "slave=" + std::to_string(dead + 1) +
                         " epoch=" + std::to_string(sum.epochs));
    // A membership transition naming the dead rank is aborted: a joiner's
    // groups were already force-evacuated below like any member's, and a
    // leaver's remaining drain is subsumed by the failover.
    if (trans && trans->slave == dead) {
      sum.membership_us += clock.Now() - trans->started_wall;
      trans.reset();
    }
    // Handovers pending toward the dead rank dissolve; the groups keep
    // their old (still committed) buddies.
    if (repl) {
      for (PartitionId pid = 0; pid < npart; ++pid) {
        if (pending_buddy[pid] == dead) pending_buddy[pid] = kNoPendingBuddy;
      }
    }
    // Cancel migrations the dead slave was party to. With replication, a
    // move whose supplier died before the consumer confirmed the install
    // leaves the group's live state in limbo (the transfer may never have
    // been sent) -- such groups are failed over like the dead slave's own.
    std::vector<PartitionId> orphaned;
    for (auto it = moves.begin(); it != moves.end();) {
      if (it->sup == dead || it->con == dead) {
        in_flight[it->pid] = false;
        if (repl && it->sup == dead && !it->con_acked) {
          orphaned.push_back(it->pid);
        }
        it = moves.erase(it);
      } else {
        ++it;
      }
    }
    // Evacuation targets are the surviving *members* -- standbys receive no
    // batches, so rehosting onto one would strand the group.
    const std::vector<SlaveIdx> survivors = members.Members();

    // One group's failover: reassign ownership, record the voiding entry,
    // and re-ring the buddy (the target usually *is* the old buddy, so the
    // group needs a fresh one -- starting from a full snapshot).
    struct Adopt {
      PartitionId pid;
      std::uint64_t replay_from;
    };
    std::map<SlaveIdx, std::vector<Adopt>> adopts;
    auto fail_over = [&](PartitionId pid, SlaveIdx target) {
      const std::uint64_t replay_from = acked[pid] + 1;
      if (target != pmap.BuddyOf(pid)) {
        ++sum.degraded_failovers;
        c_degraded.Inc();
      }
      pmap.SetOwner(pid, target);
      adopts[target].push_back(Adopt{pid, replay_from});
      sum.failovers.push_back(
          FailoverRecord{pid, target + 1, replay_from, sum.epochs});
      ++sum.groups_failed_over;
      c_failed_over.Inc();
      // `slave` is the adopting target (replay events key on it); `dead`
      // names the failed rank whose verdict the checker pairs this with.
      ob.trace.Instant(
          "failover", "repl", vt_now,
          {{"slave", static_cast<std::int64_t>(target) + 1},
           {"dead", static_cast<std::int64_t>(dead) + 1},
           {"pid", static_cast<std::int64_t>(pid)},
           {"replay_from", static_cast<std::int64_t>(replay_from)}});
      ob.flight.Record(vt_now, "failover",
                       "pid=" + std::to_string(pid) + " target=" +
                           std::to_string(target + 1) + " replay_from=" +
                           std::to_string(replay_from));
      rering_buddy(pid, target);
    };

    std::uint64_t rehosted = 0;
    if (!survivors.empty()) {
      for (const EvacuationMove& ev :
           PlanEvacuation(pmap, dead, survivors, repl)) {
        if (repl) {
          fail_over(ev.pid, ev.target);
        } else {
          pmap.SetOwner(ev.pid, ev.target);
        }
        ++rehosted;
      }
      if (repl) {
        for (PartitionId pid : orphaned) {
          SlaveIdx target = pmap.BuddyOf(pid);
          if (!members.Active(target)) {
            target = survivors.front();
            for (SlaveIdx s : survivors) {
              if (pmap.CountOf(s) < pmap.CountOf(target)) target = s;
            }
          }
          fail_over(pid, target);
        }
        // Groups that replicated *to* the dead slave lose their replica;
        // their (live) owners re-checkpoint in full to a fresh buddy.
        for (PartitionId pid = 0; pid < npart; ++pid) {
          if (pmap.BuddyOf(pid) == dead && members.Active(pmap.OwnerOf(pid))) {
            rering_buddy(pid, pmap.OwnerOf(pid));
          }
        }
        // Failover commands first, then the retained batches in ascending
        // epoch order (per-channel FIFO: each target rebuilds every adopted
        // group from its replica before any replayed tuple arrives).
        for (auto& [target, list] : adopts) {
          FailoverCmdMsg fc;
          fc.dead = dead + 1;
          for (const Adopt& a : list) {
            fc.entries.push_back(FailoverCmdMsg::Entry{a.pid, a.replay_from});
          }
          Writer w;
          Encode(w, fc);
          transport.Send(target + 1, Make(MsgType::kFailoverCmd, std::move(w)));
        }
        for (auto& [target, list] : adopts) {
          std::map<std::uint64_t, std::vector<Rec>> per_epoch;
          for (const Adopt& a : list) {
            for (const auto& [e, recs] : retained[a.pid]) {
              if (e < a.replay_from) continue;
              auto& dst = per_epoch[e];
              dst.insert(dst.end(), recs.begin(), recs.end());
            }
          }
          for (auto& [e, recs] : per_epoch) {
            ++sum.replayed_batches;
            sum.replayed_tuples += recs.size();
            c_replay_batches.Inc();
            c_replay_tuples.Add(recs.size());
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
    }
    sum.groups_rehosted += rehosted;
    c_rehosted.Add(rehosted);
    sum.recovery_us += recovery_clock.Now() - recovery_t0;
    SJOIN_INFO("master: slave " << dead + 1 << " declared dead; rehosted "
                                << rehosted << " partition-groups onto "
                                << survivors.size() << " survivors"
                                << (repl ? " (buddy failover + replay)" : ""));
    // A crash verdict is exactly the moment post-mortem context matters:
    // dump the flight ring to the artifact dir (if one is exported) so a
    // failed chaos/CI run leaves the recent protocol history behind.
    obs::WriteArtifact(
        obs::ArtifactKind::kChaos,
        "flight_master_evict_slave" + std::to_string(dead + 1) + ".txt",
        ob.flight.Dump(), Summarize(cfg));
  };

  // Marks one mover's ack on the matching pending move; when both movers
  // confirmed, the withheld partition is released. Acks with an unmatched
  // seq are duplicates of finished moves and are ignored.
  auto handle_ack = [&](SlaveIdx src, const AckMsg& ack) {
    for (auto it = moves.begin(); it != moves.end(); ++it) {
      if (it->seq != ack.move_seq) continue;
      if (src == it->sup) it->sup_acked = true;
      if (src == it->con) it->con_acked = true;
      if (it->sup_acked && it->con_acked) {
        in_flight[it->pid] = false;
        moves.erase(it);
      }
      return;
    }
  };

  // Checkpoint-ack path, three cases in order: (1) the ack commits a
  // pending buddy handover -- the new buddy holds a full snapshot, so the
  // ring pointer flips to it and the retention it covers is released;
  // (2) a regular ack from the group's current buddy advances the watermark
  // (membership.h AcceptCheckpointAck); (3) everything else -- a late ack
  // from a replaced buddy, a duplicate, anything from a rank no longer
  // alive -- is dropped and counted, never re-entering eviction or
  // retention bookkeeping.
  auto handle_ckpt_ack = [&](SlaveIdx src, const CheckpointAckMsg& ack) {
    if (!repl || ack.partition_id >= npart) return;
    const PartitionId pid = ack.partition_id;
    if (std::optional<SweepEntry>& se = unacked[pid];
        se && se->buddy == src && ack.covered_epoch >= se->epoch) {
      se.reset();
    }
    if (members.Alive(src) && pending_buddy[pid] == src) {
      pmap.SetBuddy(pid, src);
      pending_buddy[pid] = kNoPendingBuddy;
      acked[pid] = std::max(acked[pid], ack.covered_epoch);
      auto& q = retained[pid];
      while (!q.empty() && q.front().first <= acked[pid]) q.pop_front();
      need_full[pid] = false;
      ++sum.ckpt_acks;
      sum.ckpt_bytes += ack.bytes;
      c_acks.Inc();
      c_ack_bytes.Add(ack.bytes);
      ++sum.buddy_handovers;
      c_handovers.Inc();
      ob.trace.Instant(
          "buddy_handover", "membership", vt_now,
          {{"slave", static_cast<std::int64_t>(src) + 1},
           {"pid", static_cast<std::int64_t>(pid)},
           {"covered_epoch", static_cast<std::int64_t>(ack.covered_epoch)}});
      return;
    }
    if (AcceptCheckpointAck(members.Alive(src), pmap.BuddyOf(pid) == src,
                            ack.covered_epoch, acked[pid])) {
      acked[pid] = ack.covered_epoch;
      auto& q = retained[pid];
      while (!q.empty() && q.front().first <= ack.covered_epoch) {
        q.pop_front();
      }
      ++sum.ckpt_acks;
      sum.ckpt_bytes += ack.bytes;
      c_acks.Inc();
      c_ack_bytes.Add(ack.bytes);
      ob.trace.Instant(
          "ckpt_ack", "repl", vt_now,
          {{"slave", static_cast<std::int64_t>(src) + 1},
           {"pid", static_cast<std::int64_t>(pid)},
           {"covered_epoch", static_cast<std::int64_t>(ack.covered_epoch)}});
      return;
    }
    ++sum.stale_ckpt_acks;
    c_stale_acks.Inc();
  };

  // Frames that may arrive on any slave channel while the master waits for
  // something else. Load reports are seq-matched at their one consumption
  // site; here (and on every other wait path) a stray report is stale by
  // construction and dropped, as is any unexpected type.
  auto dispatch = [&](SlaveIdx src, Message& msg) {
    if (msg.type == MsgType::kAck) {
      Reader r(msg.payload);
      handle_ack(src, DecodeAck(r));
    } else if (msg.type == MsgType::kMetrics) {
      Reader r(msg.payload);
      MetricsMsg mm = DecodeMetrics(r);
      ob.cluster.Record(static_cast<Rank>(src) + 1,
                        static_cast<std::int64_t>(mm.epoch),
                        std::move(mm.samples));
    } else if (msg.type == MsgType::kCheckpointAck) {
      Reader r(msg.payload);
      handle_ckpt_ack(src, DecodeCheckpointAck(r));
    }
  };

  // Bounded wait on one slave channel until `done()` holds. Non-matching
  // frames are dispatched normally. On strike-out the rank either gets the
  // dead-slave verdict (`verdict`, the migration semantics) or the wait is
  // abandoned for this epoch (handover semantics: the per-epoch load-report
  // wait stays the authoritative failure detector, so a slow third party
  // never costs an innocent buddy its life).
  auto wait_on = [&](SlaveIdx src, auto&& done, bool verdict) {
    std::uint32_t strikes = 0;
    while (!done()) {
      if (!members.Alive(src)) return;
      RecvResult res = [&] {
        obs::ScopedTimer wall_rcv(&wall_recv);
        return transport.RecvFromTimed(static_cast<Rank>(src) + 1,
                                       opts.recv_timeout_us);
      }();
      if (res.status == RecvStatus::kClosed) {
        evict(src);
        return;
      }
      if (res.status == RecvStatus::kTimeout) {
        if (++strikes > opts.recv_max_retries) {
          if (verdict) evict(src);
          return;
        }
        continue;
      }
      strikes = 0;
      dispatch(src, res.msg);
    }
  };

  // Drives every in-flight migration to completion (both movers acked).
  // Bounded like the epoch loop: an unresponsive mover gets the dead-slave
  // verdict, which cancels its moves.
  auto drain_moves = [&] {
    std::uint32_t strikes = 0;
    while (!moves.empty() && members.LiveCount() > 0) {
      const PendingMove& mv = moves.front();
      const SlaveIdx src = !mv.sup_acked ? mv.sup : mv.con;
      RecvResult res = transport.RecvFromTimed(static_cast<Rank>(src) + 1,
                                               opts.recv_timeout_us);
      if (res.status == RecvStatus::kClosed) {
        evict(src);
        strikes = 0;
        continue;
      }
      if (res.status == RecvStatus::kTimeout) {
        if (++strikes > opts.recv_max_retries) {
          evict(src);
          strikes = 0;
        }
        continue;
      }
      strikes = 0;
      dispatch(src, res.msg);
    }
  };

  // Issues one migration via the kMoveCmd/kInstallCmd sub-protocol and
  // updates the map; the withheld partition is released when both movers
  // ack (handle_ack).
  auto issue_move = [&](PartitionId pid, SlaveIdx sup, SlaveIdx con) {
    const std::uint64_t seq = next_move_seq++;
    in_flight[pid] = true;
    moves.push_back(PendingMove{pid, sup, con, false, false, seq});
    Writer wm;
    Encode(wm, MoveCmdMsg{pid, static_cast<Rank>(con) + 1, seq});
    transport.Send(static_cast<Rank>(sup) + 1,
                   Make(MsgType::kMoveCmd, std::move(wm)));
    Writer wi;
    Encode(wi, MoveCmdMsg{pid, static_cast<Rank>(sup) + 1, seq});
    transport.Send(static_cast<Rank>(con) + 1,
                   Make(MsgType::kInstallCmd, std::move(wi)));
    pmap.SetOwner(pid, con);
    // The new owner's journal cannot continue the old owner's segment
    // chain: its first checkpoint must be a full snapshot. The buddy (and
    // its acked segments) stay valid across the move.
    if (repl) need_full[pid] = true;
    return seq;
  };

  // One migration on behalf of a membership transition.
  auto issue_drain_move = [&](const RebalanceMove& mv) {
    const std::uint64_t seq = issue_move(mv.pid, mv.from, mv.to);
    ++sum.drain_moves;
    c_drain_moves.Inc();
    ob.trace.Instant("drain_move", "membership", vt_now,
                     {{"pid", static_cast<std::int64_t>(mv.pid)},
                      {"from", static_cast<std::int64_t>(mv.from) + 1},
                      {"to", static_cast<std::int64_t>(mv.to) + 1},
                      {"seq", static_cast<std::int64_t>(seq)}});
  };

  // One epoch's buddy-handover chunk. `target(pid)` names the desired new
  // buddy (kNoPendingBuddy = leave the group alone). Untouched groups flip
  // instantly (no state exists to snapshot); for the rest the owner is
  // commanded to ship a full snapshot to the new buddy, and this call
  // blocks until each issued handover commits (handle_ckpt_ack) or
  // dissolves (an eviction re-ringed the group). Returns true while any
  // group still awaits a handover after this chunk.
  auto run_handovers = [&](auto&& target, std::uint32_t chunk) -> bool {
    if (!repl) return false;
    std::vector<PartitionId> issued;
    std::size_t remaining = 0;
    for (PartitionId pid = 0; pid < npart; ++pid) {
      const SlaveIdx want = target(pid);
      if (want == kNoPendingBuddy) continue;
      if (!touched[pid]) {
        pmap.SetBuddy(pid, want);
        acked[pid] = 0;
        need_full[pid] = true;
        pending_buddy[pid] = kNoPendingBuddy;
        ++sum.buddy_handovers;
        c_handovers.Inc();
        ob.trace.Instant("buddy_handover", "membership", vt_now,
                         {{"slave", static_cast<std::int64_t>(want) + 1},
                          {"pid", static_cast<std::int64_t>(pid)},
                          {"covered_epoch", 0}});
        continue;
      }
      ++remaining;
      if (issued.size() >= chunk) continue;
      pending_buddy[pid] = want;
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
      const SlaveIdx want = pending_buddy[pid];
      if (want == kNoPendingBuddy) {
        ++committed;  // resolved while waiting on an earlier group
        continue;
      }
      wait_on(
          want, [&] { return pending_buddy[pid] == kNoPendingBuddy; },
          /*verdict=*/false);
      if (pending_buddy[pid] == kNoPendingBuddy) ++committed;
    }
    return remaining > committed;
  };

  // Join/leave handshake (bounded): send the command, wait for the matching
  // reply; every timeout resends with a doubled per-attempt timeout capped
  // at handshake_backoff_cap_us, and after handshake_max_retries resends
  // the peer gets the dead-slave verdict. Returns false when the peer was
  // evicted instead of replying.
  auto handshake = [&](SlaveIdx dst, auto&& send_cmd, MsgType want) -> bool {
    Duration timeout = opts.recv_timeout_us;
    const Duration cap =
        std::max<Duration>(opts.recv_timeout_us, ecfg.handshake_backoff_cap_us);
    std::uint32_t resends = 0;
    send_cmd();
    while (true) {
      RecvResult res =
          transport.RecvFromTimed(static_cast<Rank>(dst) + 1, timeout);
      if (res.status == RecvStatus::kClosed) {
        evict(dst);
        return false;
      }
      if (res.status == RecvStatus::kTimeout) {
        if (resends >= ecfg.handshake_max_retries) {
          evict(dst);
          return false;
        }
        ++resends;
        ++sum.handshake_retries;
        c_hs_retries.Inc();
        timeout = std::min<Duration>(timeout * 2, cap);
        send_cmd();
        continue;
      }
      if (res.msg.type == want) return true;
      dispatch(dst, res.msg);
    }
  };

  auto finish_transition = [&] {
    sum.membership_us += clock.Now() - trans->started_wall;
    trans.reset();
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
      std::optional<MembershipEvent> ev;
      if (!schedule.empty() && schedule.front().epoch <= sum.epochs) {
        ev = schedule.front();
        schedule.pop_front();
      } else if (!proposals.empty()) {
        ev = proposals.front();
        proposals.pop_front();
      }
      if (!ev) return;
      const SlaveIdx t = ev->slave;
      const bool valid =
          t < n && (ev->join
                        ? members.Alive(t) && !members.Member(t)
                        : members.Active(t) && members.MemberCount() > 1);
      if (!valid) {
        ++sum.membership_skipped;
        c_memb_skipped.Inc();
        ob.trace.Instant("membership_skip", "membership", vt_now,
                         {{"slave", static_cast<std::int64_t>(t) + 1},
                          {"join", ev->join ? 1 : 0}});
        return;
      }
      trans = MembershipTransition{ev->join, t, sum.epochs, clock.Now()};
      if (ev->join) {
        // Admission handshake: the joiner resyncs its epoch ordinal to
        // admit_epoch - 1 and acks; from this epoch on it receives batches.
        const bool ok = handshake(
            t,
            [&] {
              Writer w;
              Encode(w, JoinCmdMsg{sum.epochs, npart});
              transport.Send(static_cast<Rank>(t) + 1,
                             Make(MsgType::kJoinCmd, std::move(w)));
            },
            MsgType::kJoinAck);
        if (!ok) return;  // evicted; evict() aborted the transition
        members.Admit(t);
        ++sum.joins;
        c_joins.Inc();
        ob.trace.Instant("member_join", "membership", vt_now,
                         {{"slave", static_cast<std::int64_t>(t) + 1}});
        ob.flight.Record(vt_now, "member_join",
                         "slave=" + std::to_string(t + 1));
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
          if (repl) rering_buddy(pid, t);
        }
      }
      // Rebalance toward the joiner's share, `chunk` groups per epoch; the
      // plan is recomputed from the live map every epoch, so convergence
      // survives concurrent evictions and reorg history.
      const std::vector<RebalanceMove> plan =
          PlanAdmission(pmap, members.Members(), t, repl);
      bool moved = false;
      for (std::size_t i = 0; i < plan.size() && i < chunk; ++i) {
        const RebalanceMove& mv = plan[i];
        // An eviction inside a previous move's wait can invalidate the
        // rest of the plan (a failover re-homed the group, or a mover
        // died); stale entries are dropped, the next epoch re-plans.
        if (in_flight[mv.pid] || pmap.OwnerOf(mv.pid) != mv.from ||
            !members.Active(mv.from) || !members.Active(mv.to)) {
          continue;
        }
        issue_drain_move(mv);
        moved = true;
        // One move at a time: two in-flight transfers from different
        // donors would arrive at the joiner in wall-racy order, and the
        // byte-identity matrix pins the install order.
        drain_moves();
        if (!trans) return;  // an eviction aborted the transition
      }
      if (moved) return;
      // Ownership settled: re-home replicas so the joiner serves as buddy
      // for its ring predecessor's groups. Groups the joiner owns keep
      // their existing (still valid) buddies.
      if (repl) {
        const std::vector<SlaveIdx> ring = members.Members();
        const bool more = run_handovers(
            [&](PartitionId pid) -> SlaveIdx {
              const SlaveIdx owner = pmap.OwnerOf(pid);
              if (owner == t || pmap.BuddyOf(pid) == t) return kNoPendingBuddy;
              if (in_flight[pid] || !members.Active(owner)) {
                return kNoPendingBuddy;
              }
              return PartitionMap::RingSuccessor(owner, ring) == t
                         ? t
                         : kNoPendingBuddy;
            },
            chunk);
        if (!trans) return;
        if (more) return;
      }
      finish_transition();
    } else {
      // Phase 1: drain ownership off the leaver, `chunk` groups per epoch
      // (re-planned from the live map, like admissions).
      std::vector<SlaveIdx> remaining;
      for (SlaveIdx m : members.Members()) {
        if (m != t) remaining.push_back(m);
      }
      if (pmap.CountOf(t) > 0) {
        const std::vector<RebalanceMove> plan =
            PlanDrain(pmap, t, remaining, repl);
        for (std::size_t i = 0; i < plan.size() && i < chunk; ++i) {
          const RebalanceMove& mv = plan[i];
          if (in_flight[mv.pid] || pmap.OwnerOf(mv.pid) != mv.from ||
              !members.Active(mv.from) || !members.Active(mv.to)) {
            continue;  // invalidated by an eviction mid-chunk; re-plan next
          }
          issue_drain_move(mv);
          // Serialized like admission moves (deterministic install order).
          drain_moves();
          if (!trans) break;
        }
        if (!trans || pmap.CountOf(t) > 0) return;
      }
      // Phase 2: hand the leaver's replicas to the owners' new ring
      // successors (the ring without the leaver).
      if (repl) {
        const bool more = run_handovers(
            [&](PartitionId pid) -> SlaveIdx {
              if (pmap.BuddyOf(pid) != t) return kNoPendingBuddy;
              const SlaveIdx owner = pmap.OwnerOf(pid);
              if (owner == t || in_flight[pid] || !members.Active(owner) ||
                  remaining.empty()) {
                return kNoPendingBuddy;
              }
              const SlaveIdx want =
                  PartitionMap::RingSuccessor(owner, remaining);
              return want == owner ? kNoPendingBuddy : want;
            },
            chunk);
        if (!trans) return;
        if (more) return;
      }
      // Phase 3: farewell handshake; the leaver drops its (now obsolete)
      // replica chains and returns to standby. The ack is sent by its join
      // thread, so it orders after every extract and checkpoint this node
      // still owed the cluster -- zero-gap by construction.
      const bool ok = handshake(
          t,
          [&] {
            Writer w;
            Encode(w, LeaveCmdMsg{sum.epochs});
            transport.Send(static_cast<Rank>(t) + 1,
                           Make(MsgType::kLeaveCmd, std::move(w)));
          },
          MsgType::kLeaveAck);
      if (!ok) return;
      members.Retire(t);
      ++sum.leaves;
      c_leaves.Inc();
      ob.trace.Instant("member_leave", "membership", vt_now,
                       {{"slave", static_cast<std::int64_t>(t) + 1}});
      ob.flight.Record(vt_now, "member_leave",
                       "slave=" + std::to_string(t + 1));
      finish_transition();
    }
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
    ++sum.epochs;
    c_epochs.Inc();
    vt_now = epoch_start;
    SetLogVt(epoch_start);
    g_watermark.Set(static_cast<double>(epoch_start));
    ob.trace.Begin("epoch", "epoch", epoch_start,
                   {{"epoch", static_cast<std::int64_t>(sum.epochs)}});
    ob.flight.Record(vt_now, "epoch",
                     "epoch=" + std::to_string(sum.epochs) +
                         " members=" + std::to_string(members.MemberCount()));
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
    if (trace != nullptr) {
      while (trace_pos < trace->size() &&
             (*trace)[trace_pos].ts <= epoch_start) {
        const Rec& rec = (*trace)[trace_pos++];
        const PartitionId pid = PartitionOf(rec.key, cfg.join.num_partitions);
        ++group_tuples[pid];
        buffer.Add(rec, pid);
      }
    } else {
      std::vector<Rec> arrivals;
      source.DrainUntil(clock.Now(), arrivals);
      for (const Rec& rec : arrivals) {
        const PartitionId pid = PartitionOf(rec.key, cfg.join.num_partitions);
        ++group_tuples[pid];
        buffer.Add(rec, pid);
      }
    }

    // Skew ratio: max/median tuples per *loaded* group this epoch (1.0 for
    // a uniform or empty epoch). Exported as a stable gauge and fed to the
    // elastic policy's scale-in veto below.
    double skew_ratio = 1.0;
    {
      std::vector<std::uint64_t> loaded;
      for (std::uint64_t c : group_tuples) {
        if (c > 0) loaded.push_back(c);
      }
      if (!loaded.empty()) {
        std::sort(loaded.begin(), loaded.end());
        const std::uint64_t median = loaded[loaded.size() / 2];
        if (median > 0) {
          skew_ratio =
              static_cast<double>(loaded.back()) / static_cast<double>(median);
        }
      }
    }
    g_skew.Set(skew_ratio);

    // Distribute serially; each live slave's comm module answers with its
    // load report for exactly this batch (seq-matched below).
    {
      obs::ScopedTimer wall_dist(&wall_distribute);
      for (Rank s = 1; s <= n; ++s) {
        if (!members.Active(s - 1)) continue;
        std::vector<PartitionId> pids;
        for (PartitionId pid : pmap.PartitionsOf(s - 1)) {
          if (!in_flight[pid]) pids.push_back(pid);
        }
        TupleBatchMsg batch;
        batch.recs = buffer.DrainFor(pids);
        sum.tuples_sent += batch.recs.size();
        c_tuples.Add(batch.recs.size());
        if (repl && !batch.recs.empty()) {
          // Retain this epoch's tuples per group until the covering
          // checkpoint is acknowledged -- they are the failover replay.
          std::map<PartitionId, std::vector<Rec>> by_pid;
          for (const Rec& rec : batch.recs) {
            by_pid[PartitionOf(rec.key, npart)].push_back(rec);
          }
          for (auto& [pid, recs] : by_pid) {
            touched[pid] = true;
            retained[pid].emplace_back(sum.epochs, std::move(recs));
          }
        }
        Writer w(TupleBatchMsg::WireSize(batch.recs.size(), tb));
        {
          obs::ScopedTimer wall_enc(&wall_encode);
          Encode(w, batch, tb);
        }
        // Causal trace context rides the frame header: the per-send span id
        // doubles as the flow id, so the slave's receive-side FlowFinish
        // binds to exactly this send in the stitched distributed trace.
        Message msg = Make(MsgType::kTupleBatch, std::move(w));
        msg.trace_id = run_trace_id;
        msg.parent_span = ob.trace.NextSpanId();
        msg.send_vt = epoch_start;
        ob.trace.FlowStart("batch_flow", "flow", epoch_start, msg.parent_span,
                           {{"epoch", static_cast<std::int64_t>(sum.epochs)},
                            {"slave", static_cast<std::int64_t>(s)}});
        {
          obs::ScopedTimer wall_snd(&wall_send);
          transport.Send(s, std::move(msg));
        }
        ++batches_sent[s - 1];
      }
    }
    ob.trace.Complete(
        "distribute", "epoch", epoch_start, 0,
        {{"epoch", static_cast<std::int64_t>(sum.epochs)},
         {"tuples", static_cast<std::int64_t>(sum.tuples_sent - tuples_before)}});

    // Collect this epoch's load reports. Every receive is bounded: after
    // recv_max_retries consecutive timeouts the slave is declared dead and
    // the epoch moves on -- the master never blocks on a crashed or hung
    // peer. Migration acks ride the same channels and are consumed here.
    for (Rank s = 1; s <= n; ++s) {
      if (!members.Active(s - 1)) continue;
      std::uint32_t strikes = 0;
      while (members.Alive(s - 1)) {
        RecvResult res = [&] {
          obs::ScopedTimer wall_rcv(&wall_recv);
          return transport.RecvFromTimed(s, opts.recv_timeout_us);
        }();
        if (res.status == RecvStatus::kClosed) {
          // The peer (or the whole transport) is gone; instant verdict.
          evict(s - 1);
          break;
        }
        if (res.status == RecvStatus::kTimeout) {
          if (++strikes > opts.recv_max_retries) {
            evict(s - 1);
            break;
          }
          continue;
        }
        strikes = 0;
        if (res.msg.type == MsgType::kLoadReport) {
          Reader lr(res.msg.payload);
          const LoadReportMsg report = DecodeLoadReport(lr);
          // Only the report answering the batch just sent counts; stale or
          // duplicated reports (seq mismatch) are discarded.
          if (report.seq != batches_sent[s - 1]) continue;
          occupancy[s - 1] = report.avg_buffer_occupancy;
          break;
        }
        // Migration acks, metrics snapshots, and checkpoint acks ride the
        // same channel and are consumed here (dispatch).
        dispatch(s - 1, res.msg);
      }
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
    if (elastic && ecfg.policy && !trans && proposals.empty()) {
      double occ = 0.0;
      std::uint32_t cnt = 0;
      for (SlaveIdx m : members.Members()) {
        occ += occupancy[m];
        ++cnt;
      }
      const ScaleDecision d = policy.Observe(
          cnt > 0 ? occ / cnt : 0.0, members.MemberCount(),
          static_cast<std::uint32_t>(members.Standbys().size()), skew_ratio);
      if (d == ScaleDecision::kOut) {
        const SlaveIdx t = members.Standbys().front();
        proposals.push_back(MembershipEvent{sum.epochs, true, t});
        ++sum.policy_scale_outs;
        c_scale_outs.Inc();
        ob.trace.Instant("policy_scale_out", "membership", vt_now,
                         {{"slave", static_cast<std::int64_t>(t) + 1}});
        ob.flight.Record(vt_now, "policy_scale_out",
                         "slave=" + std::to_string(t + 1));
      } else if (d == ScaleDecision::kIn) {
        const SlaveIdx t = members.Members().back();
        proposals.push_back(MembershipEvent{sum.epochs, false, t});
        ++sum.policy_scale_ins;
        c_scale_ins.Inc();
        ob.trace.Instant("policy_scale_in", "membership", vt_now,
                         {{"slave", static_cast<std::int64_t>(t) + 1}});
        ob.flight.Record(vt_now, "policy_scale_in",
                         "slave=" + std::to_string(t + 1));
      }
    }

    // Checkpoint sweep: every ckpt_every epochs, tell each live owner to
    // ship its groups' state to their buddies, covering every batch sent so
    // far. In-flight groups are skipped (their owner is ambiguous until the
    // move completes, after which the new owner checkpoints in full); an
    // owner that no longer holds a listed group skips it silently.
    if (repl && sum.epochs % ckpt_every == 0) {
      ++sum.ckpt_sweeps;
      c_sweeps.Inc();
      ob.trace.Instant("ckpt_sweep", "repl", vt_now,
                       {{"epoch", static_cast<std::int64_t>(sum.epochs)}});
      ob.flight.Record(vt_now, "ckpt_sweep",
                       "epoch=" + std::to_string(sum.epochs));
      std::fill(unacked.begin(), unacked.end(), std::nullopt);
      for (Rank s = 1; s <= n; ++s) {
        if (!members.Active(s - 1)) continue;
        CkptCmdMsg cmd;
        cmd.covered_epoch = sum.epochs;
        for (PartitionId pid : pmap.PartitionsOf(s - 1)) {
          if (in_flight[pid]) continue;
          SlaveIdx b = pmap.BuddyOf(pid);
          bool full = need_full[pid];
          std::uint64_t committed = acked[pid];
          if (pending_buddy[pid] != kNoPendingBuddy) {
            // Mid-handover: checkpoints go to the *new* buddy in full; the
            // ring pointer (and the old replica) stay authoritative until
            // the new buddy's ack commits the handover.
            b = pending_buddy[pid];
            full = true;
            committed = 0;  // `acked` is the old buddy's watermark
          }
          if (!members.Active(b) || b == s - 1) continue;
          cmd.entries.push_back(CkptCmdMsg::Entry{pid, b + 1, full, committed});
          if (pending_buddy[pid] == kNoPendingBuddy) need_full[pid] = false;
          // An untouched group's segment, if shipped at all, is empty.
          if (touched[pid]) unacked[pid] = SweepEntry{sum.epochs, s - 1, b};
        }
        if (cmd.entries.empty()) continue;
        Writer w;
        Encode(w, cmd);
        transport.Send(s, Make(MsgType::kCkptCmd, std::move(w)));
      }
    }

    // Reorganization: only over active members, only with no migration
    // still in flight, and suppressed while a membership transition runs
    // (its drain is a rebalance of its own; interleaving the two would
    // thrash groups).
    if (clock.Now() >= next_reorg && moves.empty() && !trans) {
      next_reorg += cfg.epoch.t_rep;
      std::vector<SlaveIdx> live_idx;
      std::vector<double> occ_live;
      for (SlaveIdx i = 0; i < n; ++i) {
        if (!members.Active(i)) continue;
        live_idx.push_back(i);
        occ_live.push_back(occupancy[i]);
      }
      std::vector<Role> roles = ClassifySlaves(occ_live, cfg.balance, &reg);
      for (const MovePlan& plan : PairSuppliersWithConsumers(roles)) {
        const SlaveIdx sup = live_idx[plan.supplier];
        const SlaveIdx con = live_idx[plan.consumer];
        std::vector<PartitionId> pids;
        for (PartitionId pid : pmap.PartitionsOf(sup)) {
          // Never migrate a group onto its own buddy: owner and replica
          // must stay on distinct nodes for the failover to mean anything.
          if (repl && pmap.BuddyOf(pid) == con) continue;
          pids.push_back(pid);
        }
        if (pids.empty()) continue;
        PartitionId pid =
            pids[rng.NextBounded(static_cast<std::uint32_t>(pids.size()))];
        const std::uint64_t seq = issue_move(pid, sup, con);
        ++sum.migrations;
        c_migrations.Inc();
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
  for (SlaveIdx b = 0; repl && b < n; ++b) {
    wait_on(
        b,
        [&] {
          return std::none_of(
              unacked.begin(), unacked.end(),
              [&](const std::optional<SweepEntry>& se) {
                return se && se->buddy == b && members.Alive(se->owner);
              });
        },
        /*verdict=*/false);
  }

  // Final sweep: distribute the tuples that were withheld while their
  // partition was in flight (the drain released every in_flight flag).
  for (Rank s = 1; s <= n; ++s) {
    if (!members.Active(s - 1)) continue;
    TupleBatchMsg batch;
    batch.recs = buffer.DrainFor(pmap.PartitionsOf(s - 1));
    if (batch.recs.empty()) continue;
    sum.tuples_sent += batch.recs.size();
    c_tuples.Add(batch.recs.size());
    Writer w(TupleBatchMsg::WireSize(batch.recs.size(), tb));
    Encode(w, batch, tb);
    Message msg = Make(MsgType::kTupleBatch, std::move(w));
    msg.trace_id = run_trace_id;
    msg.parent_span = ob.trace.NextSpanId();
    msg.send_vt = vt_now;
    ob.trace.FlowStart("batch_flow", "flow", vt_now, msg.parent_span,
                       {{"epoch", static_cast<std::int64_t>(sum.epochs)},
                        {"slave", static_cast<std::int64_t>(s)}});
    transport.Send(s, std::move(msg));
    ++batches_sent[s - 1];
  }

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

/// Work items handed from a slave's comm module to its join module. The
/// trace context of the carrying kTupleBatch frame rides along so the join
/// thread can finish the master's batch_flow at the (deterministic) virtual
/// timestamp the batch is processed at, not at the racy receive instant.
struct BatchWork {
  std::vector<Rec> recs;
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  Time send_vt = 0;
};
struct ExtractWork {
  PartitionId pid;
  Rank consumer;
  std::uint64_t seq;
};
/// kInstallCmd: the master announced that `supplier` will send this group.
struct ExpectWork {
  PartitionId pid;
  Rank supplier;
  std::uint64_t seq;
};
struct InstallWork {
  StateTransferMsg state;
};
/// kCkptCmd: ship the listed groups' state to their buddies.
struct CkptWork {
  CkptCmdMsg cmd;
};
/// kCheckpoint: apply one replica segment (this slave is the buddy).
struct CkptApplyWork {
  CheckpointMsg msg;
  std::uint64_t wire_bytes;
};
/// kFailoverCmd: rebuild the listed groups from replica segments.
struct FailoverWork {
  FailoverCmdMsg cmd;
};
/// kReplayBatch: reprocess one retained epoch's tuples.
struct ReplayWork {
  ReplayBatchMsg batch;
};
/// kJoinCmd: admitted as a member at `admit_epoch` (epoch-ordinal resync).
struct JoinWork {
  std::uint64_t admit_epoch;
};
/// kLeaveCmd: gracefully retired to standby after epoch `epoch`.
struct LeaveWork {
  std::uint64_t epoch;
};
struct StopWork {};
using SlaveWork =
    std::variant<BatchWork, ExtractWork, ExpectWork, InstallWork, CkptWork,
                 CkptApplyWork, FailoverWork, ReplayWork, JoinWork, LeaveWork,
                 StopWork>;

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
  ob.flight.SetCapacity(cfg.obs.flight_ring_events);
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
  // observed from the comm thread, the checkpoint stages from the join
  // thread -- HistogramMetric is internally locked.
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
  std::atomic<Time> clock_offset{0};  // master_time - local_time

  std::mutex mu;
  std::condition_variable cv;
  std::deque<SlaveWork> queue;
  std::atomic<std::size_t> inbox_tuples{0};

  auto push = [&](SlaveWork work) {
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(work));
    }
    cv.notify_one();
  };

  // --- comm module -----------------------------------------------------
  std::thread comm([&] {
    SetLogRank(static_cast<std::int32_t>(self));
    std::uint64_t batches_seen = 0;
    while (true) {
      auto msg = transport.Recv();
      if (!msg.has_value()) {
        push(StopWork{});
        return;
      }
      switch (msg->type) {
        case MsgType::kClockSync: {
          Reader r(msg->payload);
          ClockSyncMsg cs = DecodeClockSync(r);
          clock_offset.store(cs.master_now - clock.Now());
          break;
        }
        case MsgType::kTupleBatch: {
          Reader r(msg->payload);
          TupleBatchMsg batch = [&] {
            obs::ScopedTimer wall(&wall_decode);
            return DecodeTupleBatch(r, tb);
          }();
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
          inbox_tuples.fetch_add(batch.recs.size());
          // The frame's trace context travels with the work item: the join
          // thread finishes the master's batch_flow at the deterministic
          // virtual timestamp it processes the batch, not at receive time.
          push(BatchWork{std::move(batch.recs), msg->trace_id,
                         msg->parent_span, msg->send_vt});
          transport.Send(0, Make(MsgType::kLoadReport, std::move(w)));
          break;
        }
        case MsgType::kMoveCmd: {
          Reader r(msg->payload);
          MoveCmdMsg mc = DecodeMoveCmd(r);
          push(ExtractWork{mc.partition_id, mc.peer, mc.move_seq});
          break;
        }
        case MsgType::kInstallCmd: {
          Reader r(msg->payload);
          MoveCmdMsg mc = DecodeMoveCmd(r);
          push(ExpectWork{mc.partition_id, mc.peer, mc.move_seq});
          break;
        }
        case MsgType::kStateTransfer: {
          Reader r(msg->payload);
          obs::ScopedTimer wall(&wall_decode);
          push(InstallWork{DecodeStateTransfer(r, tb)});
          break;
        }
        case MsgType::kCkptCmd: {
          Reader r(msg->payload);
          push(CkptWork{DecodeCkptCmd(r)});
          break;
        }
        case MsgType::kCheckpoint: {
          Reader r(msg->payload);
          const std::uint64_t bytes = msg->payload.size();
          obs::ScopedTimer wall(&wall_decode);
          push(CkptApplyWork{DecodeCheckpoint(r, tb), bytes});
          break;
        }
        case MsgType::kFailoverCmd: {
          Reader r(msg->payload);
          push(FailoverWork{DecodeFailoverCmd(r)});
          break;
        }
        case MsgType::kReplayBatch: {
          Reader r(msg->payload);
          push(ReplayWork{DecodeReplayBatch(r, tb)});
          break;
        }
        case MsgType::kJoinCmd: {
          Reader r(msg->payload);
          const JoinCmdMsg jc = DecodeJoinCmd(r);
          // Ack immediately from the comm module (the admission handshake
          // is latency-bound, like load reports); the epoch resync rides
          // the FIFO work queue, so it lands before any admitted-epoch
          // work. A duplicated command (handshake resend) re-acks; the
          // duplicate JoinWork re-writes the same ordinal harmlessly.
          Writer w;
          Encode(w, JoinAckMsg{jc.admit_epoch});
          transport.Send(0, Make(MsgType::kJoinAck, std::move(w)));
          push(JoinWork{jc.admit_epoch});
          break;
        }
        case MsgType::kLeaveCmd: {
          // The farewell ack must order after every queued extract and
          // checkpoint, so it is sent by the join thread, not from here.
          Reader r(msg->payload);
          push(LeaveWork{DecodeLeaveCmd(r).epoch});
          break;
        }
        case MsgType::kShutdown:
          push(StopWork{});
          return;
        default:
          break;
      }
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
  // work items; the master sends one batch per epoch to every live slave,
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
  std::map<std::uint64_t, ExpectWork> expected;
  std::map<std::uint64_t, StateTransferMsg> stash;
  constexpr std::size_t kMaxStash = 64;

  auto install = [&](StateTransferMsg& st) {
    Reader gr(st.group_state);
    join.InstallGroup(st.partition_id, DecodeGroupState(gr, cfg.join, tb));
    join.EnqueueBatch(st.pending);
    join.ProcessFor(clock.Now() + clock_offset.load(), kDrainBudget);
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
    SlaveWork work = [&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !queue.empty(); });
      SlaveWork w = std::move(queue.front());
      queue.pop_front();
      g_queue.Set(static_cast<double>(queue.size()));
      return w;
    }();
    g_inbox.Set(static_cast<double>(inbox_tuples.load()));

    const Time master_now = clock.Now() + clock_offset.load();
    if (auto* batch = std::get_if<BatchWork>(&work)) {
      if (spin > 0 && !batch->recs.empty()) {
        // Emulated background/processing load of a non-dedicated node.
        std::this_thread::sleep_for(std::chrono::microseconds(
            spin * static_cast<Duration>(batch->recs.size())));
      }
      ++epochs_done;
      SetLogVt(static_cast<Time>(epochs_done) * cfg.epoch.t_dist);
      if (tag != nullptr) tag->SetEpoch(epochs_done);
      delay_sink.SetLogicalNow(static_cast<Time>(epochs_done) *
                               cfg.epoch.t_dist);
      join.EnqueueBatch(batch->recs);
      const std::uint64_t before = join.TuplesProcessed();
      const std::uint64_t out_before = sink.Outputs();
      join.ProcessFor(clock.Now() + clock_offset.load(), kDrainBudget);
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
      const Time vts =
          static_cast<Time>(epochs_done) * cfg.epoch.t_dist;
      g_watermark.Set(static_cast<double>(vts));
      // Close the master's batch_flow at this batch's logical processing
      // instant (vts >= send_vt by construction: the batch was sent at the
      // epoch's start). Locally crafted batches (tests) carry no context.
      if (batch->trace_id != 0) {
        ob.trace.FlowFinish(
            "batch_flow", "flow", vts, batch->parent_span,
            {{"send_vt", static_cast<std::int64_t>(batch->send_vt)},
             {"epoch", static_cast<std::int64_t>(epochs_done)}});
      }
      ob.flight.Record(vts, "join_batch",
                       "epoch=" + std::to_string(epochs_done) +
                           " tuples=" + std::to_string(done));
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
    } else if (auto* ex = std::get_if<ExtractWork>(&work)) {
      if (join.Store().Find(ex->pid) == nullptr) {
        // Nothing owned yet (e.g. moved before any tuple arrived): ship an
        // empty group so the protocol still completes.
        join.InstallGroup(ex->pid,
                          std::make_unique<PartitionGroup>(cfg.join, tb));
      }
      Duration cost = 0;
      std::vector<Rec> pending;
      auto group = join.ExtractGroup(ex->pid, master_now, cost, pending);
      Writer gw;
      EncodeGroupState(gw, *group);
      StateTransferMsg st;
      st.partition_id = ex->pid;
      st.group_state = std::move(gw).TakeBuffer();
      st.pending = std::move(pending);
      st.move_seq = ex->seq;
      Writer w;
      Encode(w, st, tb);
      transport.Send(ex->consumer, Make(MsgType::kStateTransfer, std::move(w)));
      Writer wa;
      Encode(wa, AckMsg{ex->pid, ex->seq});
      transport.Send(0, Make(MsgType::kAck, std::move(wa)));
      ++sum.groups_moved_out;
      c_moved_out.Inc();
      ob.trace.Instant("group_extract", "reorg",
                       static_cast<Time>(epochs_done) * cfg.epoch.t_dist,
                       {{"pid", static_cast<std::int64_t>(ex->pid)},
                        {"seq", static_cast<std::int64_t>(ex->seq)}});
    } else if (auto* exp = std::get_if<ExpectWork>(&work)) {
      if (completed.count(exp->seq) != 0) {
        // Already installed (transfer and command both seen); stale copy.
      } else if (auto it = stash.find(exp->seq); it != stash.end()) {
        StateTransferMsg st = std::move(it->second);
        stash.erase(it);
        install(st);
      } else {
        expected.emplace(exp->seq, *exp);
      }
    } else if (auto* in = std::get_if<InstallWork>(&work)) {
      StateTransferMsg& st = in->state;
      if (completed.count(st.move_seq) != 0) {
        // Duplicated kStateTransfer: the group is installed; drop it.
      } else if (expected.count(st.move_seq) != 0) {
        expected.erase(st.move_seq);
        install(st);
      } else {
        // The transfer overtook its kInstallCmd (different channels); hold
        // it until the command arrives. The stash is bounded -- overflow
        // discards the oldest move, which then resolves as a crash would.
        if (stash.size() >= kMaxStash) stash.erase(stash.begin());
        stash.emplace(st.move_seq, std::move(st));
      }
    } else if (auto* ck = std::get_if<CkptWork>(&work)) {
      // Owner side of a checkpoint sweep. Every batch received before the
      // command has been fully processed (the work queue is FIFO and each
      // batch drains completely), so the shipped state covers exactly
      // `epochs_done` epochs -- the segment is stamped with that, not with
      // the master's covered_epoch, so a late command never overstates
      // coverage. A group this slave no longer (or never) holds is skipped
      // without an ack: the master's retention for it stays put.
      for (const CkptCmdMsg::Entry& e : ck->cmd.entries) {
        PartitionGroup* g = join.Store().Find(e.partition_id);
        if (g == nullptr) continue;
        auto lc = last_ckpt.find(e.partition_id);
        // First contact with this group (or post-migration): a delta has no
        // base to extend -- upgrade to a full snapshot.
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
        ob.trace.Instant("ckpt_segment", "repl",
                         static_cast<Time>(epochs_done) * cfg.epoch.t_dist,
                         {{"pid", static_cast<std::int64_t>(e.partition_id)},
                          {"to_epoch", static_cast<std::int64_t>(epochs_done)},
                          {"full", full ? 1 : 0}});
        transport.Send(e.buddy, std::move(msg));
      }
    } else if (auto* ca = std::get_if<CkptApplyWork>(&work)) {
      // Buddy side: apply the segment atomically (it either is in the chain
      // or it is not -- a crash between segments never tears one); the
      // chain dedups on the covered epoch and prunes below the committed
      // one (core/replica_chain.h).
      CheckpointMsg& m = ca->msg;
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
      Encode(w, CheckpointAckMsg{m.partition_id, m.to_epoch, ca->wire_bytes});
      transport.Send(0, Make(MsgType::kCheckpointAck, std::move(w)));
    } else if (auto* fo = std::get_if<FailoverWork>(&work)) {
      // Adopt a dead slave's groups: rebuild each from the replica chain
      // strictly below replay_from (unacknowledged segments are discarded
      // -- the replay regenerates their epochs), pruning records the expiry
      // watermark proves can never match a replayed or future probe.
      for (const FailoverCmdMsg::Entry& e : fo->cmd.entries) {
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
        ob.flight.Record(static_cast<Time>(epochs_done) * cfg.epoch.t_dist,
                         "group_adopt",
                         "pid=" + std::to_string(e.partition_id) +
                             " replay_from=" + std::to_string(e.replay_from));
      }
      set_replica_gauge();
    } else if (auto* rp = std::get_if<ReplayWork>(&work)) {
      // Redelivered retained epoch: joined exactly like a tuple batch, but
      // tagged with its original epoch (the voiding rule keys on it) and
      // answering no load report.
      if (tag != nullptr) tag->SetEpoch(rp->batch.epoch);
      join.EnqueueBatch(rp->batch.recs);
      join.ProcessFor(master_now, kDrainBudget);
      sum.replayed_tuples += rp->batch.recs.size();
      c_replayed.Add(rp->batch.recs.size());
      sync_join_counters();
      ob.trace.Instant(
          "replay_processed", "join",
          static_cast<Time>(epochs_done) * cfg.epoch.t_dist,
          {{"epoch", static_cast<std::int64_t>(rp->batch.epoch)},
           {"tuples", static_cast<std::int64_t>(rp->batch.recs.size())}});
      ob.flight.Record(static_cast<Time>(epochs_done) * cfg.epoch.t_dist,
                       "replay_processed",
                       "epoch=" + std::to_string(rp->batch.epoch) + " tuples=" +
                           std::to_string(rp->batch.recs.size()));
      flush_stats();
    } else if (auto* jn = std::get_if<JoinWork>(&work)) {
      // Admission: resync the epoch ordinal so the first admitted batch
      // lands at exactly admit_epoch -- checkpoint stamps and logical
      // trace timestamps stay a *global* epoch count across the
      // membership change (the master skipped this rank while standby).
      epochs_done = jn->admit_epoch > 0 ? jn->admit_epoch - 1 : 0;
      SetLogVt(static_cast<Time>(epochs_done) * cfg.epoch.t_dist);
      ob.trace.Instant(
          "member_admit", "membership",
          static_cast<Time>(epochs_done) * cfg.epoch.t_dist,
          {{"admit_epoch", static_cast<std::int64_t>(jn->admit_epoch)}});
      ob.flight.Record(static_cast<Time>(epochs_done) * cfg.epoch.t_dist,
                       "member_admit",
                       "admit_epoch=" + std::to_string(jn->admit_epoch));
    } else if (auto* lv = std::get_if<LeaveWork>(&work)) {
      // Graceful retirement: every batch, extract, and handover checkpoint
      // the master issued before the farewell has drained (FIFO), so the
      // store owns no groups and the replica chains this node held are
      // obsolete -- drop them and return to standby. The ack travels after
      // everything this node still owed the cluster.
      replica.clear();
      set_replica_gauge();
      last_ckpt.clear();
      ob.trace.Instant("member_retire", "membership",
                       static_cast<Time>(epochs_done) * cfg.epoch.t_dist,
                       {{"epoch", static_cast<std::int64_t>(lv->epoch)}});
      ob.flight.Record(static_cast<Time>(epochs_done) * cfg.epoch.t_dist,
                       "member_retire", "epoch=" + std::to_string(lv->epoch));
      Writer w;
      Encode(w, LeaveAckMsg{lv->epoch});
      transport.Send(0, Make(MsgType::kLeaveAck, std::move(w)));
      flush_stats();
    } else {
      running = false;
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
  ob.flight.SetCapacity(cfg.obs.flight_ring_events);
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
        if (msg->payload.size() >= 4) {
          Reader r(msg->payload);
          expected = std::min(expected, r.GetU32());
          if (msg->payload.size() >= 32) {
            sum.dead_slaves = r.GetU32();
            sum.groups_failed_over = r.GetU64();
            sum.ckpt_bytes = r.GetU64();
            sum.replayed_batches = r.GetU64();
          }
          if (msg->payload.size() >= 56) {
            sum.joins = r.GetU64();
            sum.leaves = r.GetU64();
            sum.drain_moves = r.GetU64();
          }
        }
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
  ob.flight.Record(0, "collector_done",
                   "reports=" + std::to_string(sum.reports) +
                       " outputs=" + std::to_string(sum.outputs));
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

}  // namespace sjoin
