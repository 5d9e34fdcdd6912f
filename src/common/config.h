// System configuration. Defaults reproduce Table I of the paper.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cost_model.h"
#include "common/time.h"

namespace sjoin {

/// Sliding-window join parameters (paper Table I).
struct JoinConfig {
  /// Window length W_i, identical for both streams (paper: 10 minutes).
  Duration window = 10 * kUsPerMin;

  /// Number of stream partitions the master maintains (the "level of
  /// indirection"; paper: 60, much larger than the slave count).
  std::uint32_t num_partitions = 60;

  /// Partition tuning parameter theta, in bytes (paper: 1.5 MB). A
  /// (mini-)partition-group is split when it exceeds 2*theta and merged with
  /// its buddy when it falls below theta.
  std::size_t theta_bytes = 3 * 512 * 1024;

  /// Block size in bytes (paper: 4 KB => 64 tuples of 64 B).
  std::size_t block_bytes = 4 * 1024;

  /// Enables fine-grained partition tuning via extendible hashing (paper
  /// section IV-D). Figures 7-10 compare on/off.
  bool fine_tuning = true;
};

/// Load-balancing thresholds (paper Table I and section IV-C).
struct BalanceConfig {
  /// A slave whose average buffer occupancy exceeds this is a *supplier*.
  double th_sup = 0.5;

  /// A slave whose average buffer occupancy is below this is a *consumer*.
  double th_con = 0.01;

  /// Degree-of-declustering growth trigger: grow when N_sup > beta * N_con
  /// (paper section V-A; 0 < beta < 1). The paper gives no default; 0.5
  /// grows once suppliers outnumber half the consumers.
  double beta = 0.5;

  /// Enables adaptive degree of declustering (Fig. 11's "Adaptive" series).
  bool adaptive_declustering = false;

  /// Memory allotted to a slave's stream buffer; the denominator of the
  /// average-buffer-occupancy load metric (paper: 1 MB).
  std::size_t slave_buffer_bytes = 1024 * 1024;
};

/// Extension (paper future work): adaptive distribution-epoch controller.
/// See core/epoch_tuner.h for the AIMD rule and its constants.
struct EpochTunerConfig {
  bool enabled = false;
};

/// Epoch protocol parameters (paper Table I).
struct EpochConfig {
  /// Distribution epoch t_d (paper: 2 s). With the adaptive epoch tuner
  /// enabled this is only the starting value.
  Duration t_dist = 2 * kUsPerSec;

  /// Reorganization epoch t_r (paper Table I: 20 s; the prose mentions 4 s
  /// once -- we follow the table, and the value is configurable). When the
  /// epoch tuner retunes t_d, t_r keeps the configured t_r/t_d ratio.
  Duration t_rep = 20 * kUsPerSec;

  /// Number of sub-groups for sub-group communication (paper section V-B);
  /// 1 disables slotting.
  std::uint32_t num_subgroups = 1;
};

/// Partition-group replication and crash recovery (wall-clock runners; see
/// core/runner.h "Replication and failover"). Off by default: the paper's
/// protocol carries no redundancy, and the virtual-time SimDriver never
/// crashes. When enabled, every partition-group's owner ships incremental
/// state deltas to a buddy slave at checkpoint epochs, the master retains
/// distributed tuples until the covering checkpoint is acknowledged, and a
/// slave crash fails its groups over to their buddies with the retained
/// tuples replayed -- producing exactly the reference join output.
struct ReplicationConfig {
  bool enabled = false;

  /// A checkpoint sweep runs every this many distribution epochs. Smaller
  /// intervals shrink the master's retention buffer and the recovery replay,
  /// at the price of more checkpoint traffic (bench/ext_recovery_overhead
  /// sweeps this trade-off).
  std::uint32_t ckpt_interval_epochs = 4;
};

/// Elastic cluster membership (wall-clock runners; see DESIGN.md "Elastic
/// membership"). Off by default: the paper's cluster is a fixed slave set.
/// When enabled, the master starts with ActiveSlavesAtStart() members (the
/// remaining ranks idle as standbys), admits standbys at epoch boundaries
/// via the kJoinCmd/kJoinAck handshake, and gracefully drains members via
/// checkpoint-aligned group migration before the kLeaveCmd/kLeaveAck
/// farewell. Scheduled transitions come from WallOptions::membership; the
/// optional policy loop proposes them from the per-epoch occupancy reports.
struct ElasticConfig {
  bool enabled = false;

  /// Max partition-group migrations a membership transition issues per
  /// distribution epoch (bounds the per-epoch disruption of a drain or an
  /// admission rebalance).
  std::uint32_t drain_groups_per_epoch = 4;

  /// Master policy loop (scale proposals from mean member occupancy).
  /// Disabled unless `policy`; see core/membership.h ElasticPolicy.
  bool policy = false;
  double surge_occupancy = 0.5;   ///< occupancy above this counts as surge
  std::uint32_t surge_epochs = 3; ///< consecutive surge epochs => scale-out
  double idle_occupancy = 0.01;   ///< occupancy below this counts as idle
  std::uint32_t idle_epochs = 8;  ///< consecutive idle epochs => scale-in
  std::uint32_t cooldown_epochs = 4;  ///< quiet epochs after any decision

  /// Straggler veto: when > 0, a scale-in proposal is suppressed while the
  /// master's per-group skew detector (max/median group cost ratio, see
  /// DESIGN.md "Distributed tracing & flight recorder") reads at or above
  /// this ratio -- shedding a member under heavy key skew would pile the
  /// hot groups onto the survivors. 0 disables the veto (default, which
  /// preserves the pre-skew policy decisions bit for bit).
  double skew_scale_in_veto = 0.0;
};

/// A scheduled membership transition (WallOptions::membership): at the
/// first epoch boundary >= `epoch` with no other transition in progress,
/// admit (join = true) or gracefully drain (join = false) slave index
/// `slave` (0-based). Invalid events -- joining a member, draining a
/// standby or the last member -- are skipped, counted, and traced.
struct MembershipEvent {
  std::uint64_t epoch = 0;
  bool join = true;
  std::uint32_t slave = 0;
};

/// Cluster-level (as opposed to per-node) extension knobs.
struct ClusterConfig {
  ElasticConfig elastic;
};

/// Intra-slave execution (extension; see DESIGN.md "Intra-slave multicore
/// execution"). The paper's slave is single-threaded; the author's
/// follow-up work extends the design to multicore nodes by running the
/// batch-join pass over the slave's partition-groups in parallel. Groups
/// are sharded across workers (disjoint ownership, no locks on the hot
/// path) and match emission is merged in deterministic (group-id, seq)
/// order, so the produced output is byte-identical for any worker count.
struct SlaveConfig {
  /// Worker threads per slave for the batch-join pass. 1 (default) keeps
  /// the paper's single-threaded slave, bit-identical to the serial code
  /// path; k > 1 advances the slave's virtual clock by the critical path
  /// max(worker costs) + merge cost instead of the serial sum.
  std::uint32_t workers = 1;
};

/// Transport selection for the multi-process deployment (launchers that
/// build a SocketMesh; in-process channel transports ignore this).
struct NetConfig {
  /// false: AF_UNIX socketpairs (default). true: AF_INET TCP connections
  /// over loopback -- the real network stack, same framing and crash
  /// semantics (net/socket_transport.h SocketDomain::kInet).
  bool use_inet = false;
};

/// One phase of a cyclic piecewise-constant rate schedule.
struct RatePhase {
  Duration duration = 0;
  double rate_per_sec = 0.0;
};

/// Synthetic workload parameters (paper section VI-A).
struct WorkloadConfig {
  /// Poisson arrival rate per stream, tuples/sec (paper default: 1500).
  double lambda = 1500.0;

  /// Extension ("this arrival rate can change over time", section II):
  /// when non-empty, both streams draw arrivals from a nonhomogeneous
  /// Poisson process cycling through these phases instead of the constant
  /// `lambda`.
  std::vector<RatePhase> rate_schedule;

  /// b-model skew of the join-attribute distribution (paper: 0.7).
  double b_skew = 0.7;

  /// Join attribute domain [0, key_domain) (paper: 10^7).
  std::uint64_t key_domain = 10'000'000;

  /// Wire size of one stream tuple in bytes (paper: 64).
  std::size_t tuple_bytes = 64;

  /// Root RNG seed; every component derives independent streams from it.
  std::uint64_t seed = 0x5EED5EED;
};

/// Observability knobs (src/obs): tuple-delay sampling. Deterministic --
/// sampling is a pure function of tuple contents and the workload seed,
/// never of wall time.
struct ObsConfig {
  /// Deterministic end-to-end tuple-delay sampling: a tuple is sampled when
  /// Mix64(key ^ Mix64(ts) ^ seed) % rate == 0, so master and slaves agree
  /// on the sample set without any wire tagging. 0 disables sampling;
  /// 1 samples every tuple.
  std::uint32_t delay_sample_rate = 16;
};

/// One struct to rule them all.
struct SystemConfig {
  JoinConfig join;
  BalanceConfig balance;
  EpochConfig epoch;
  EpochTunerConfig epoch_tuner;  ///< extension: adaptive t_d (off by default)
  ReplicationConfig replication;  ///< buddy replication (off by default)
  SlaveConfig slave;              ///< intra-slave worker pool (1 = serial)
  ClusterConfig cluster;          ///< elastic membership (off by default)
  NetConfig net;                  ///< transport domain of socket launchers
  ObsConfig obs;                  ///< tracing/telemetry knobs
  WorkloadConfig workload;
  CostModel cost;

  /// Number of slave nodes available (the maximum degree of declustering).
  std::uint32_t num_slaves = 4;

  /// Number of slaves active at start (degree of declustering). Defaults to
  /// all of them.
  std::uint32_t initial_active_slaves = 0;  // 0 => num_slaves

  std::uint32_t ActiveSlavesAtStart() const {
    return initial_active_slaves == 0 ? num_slaves : initial_active_slaves;
  }

  /// Tuples per block implied by block and tuple sizes.
  std::size_t BlockCapacity() const {
    return join.block_bytes / workload.tuple_bytes;
  }
};

/// Returns a human-readable one-line summary (printed by bench headers so
/// each experiment records its exact configuration).
std::string Summarize(const SystemConfig& cfg);

}  // namespace sjoin
