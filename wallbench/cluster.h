// Forks one real deployment -- master, slaves and collector as separate
// processes over an AF_UNIX SocketMesh -- and measures it from outside.
#pragma once

#include <memory>
#include <vector>

#include "common/config.h"
#include "core/runner.h"
#include "shm.h"

namespace wallbench {

struct ProcessResult {
  double cpu_s = 0;           ///< user + system
  double maxrss_mb = 0;
  bool exited_ok = false;     ///< returned from its node call, exit code 0
};

struct ClusterRun {
  std::unique_ptr<ShmRegion> shm;
  sjoin::MasterSummary master;
  std::int64_t mesh_ns = 0;        ///< SocketMesh creation
  std::int64_t input_end_ns = 0;   ///< last scheduled arrival, on the host clock
  std::int64_t deadline_ns = 0;
  std::int64_t last_exit_ns = 0;   ///< last process exit (or kill)
  double master_cpu_s = 0;
  double master_rss_mb = 0;        ///< peak, without the input trace
  std::vector<ProcessResult> nodes;  ///< slaves, then the collector
  bool deadline_hit = false;

  const RankShm& Rank(sjoin::Rank r) const { return shm->get()->rank[r]; }
};

struct ClusterSpec {
  sjoin::SystemConfig cfg;
  const std::vector<sjoin::Rec>* trace = nullptr;
  sjoin::Duration run_for_us = 0;   ///< master stops after this (0 = trace)
  sjoin::Duration grace_us = 0;     ///< deadline after the input ends
  /// Delays count outputs whose newer input is scheduled in [fill_us,
  /// delay_end_us).
  sjoin::Duration fill_us = 0;
  sjoin::Duration delay_end_us = 0;
  bool traced = false;
  /// Every process on CPU 0 instead of CPUs of its own.
  bool one_cpu = false;
};

/// Runs the cluster once. The calling process is the master (it holds the
/// trace, which fork() does not copy); every other rank is a child process.
/// Children still alive at the deadline are killed; their record up to the
/// kill survives in the shared region.
ClusterRun RunCluster(const ClusterSpec& spec);

/// Resets this process's peak-RSS mark (Linux clear_refs); false if refused.
bool ResetPeakRss();

}  // namespace wallbench
