#include "cluster.h"

#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "join/join_module.h"
#include "net/socket_transport.h"
#include "obs/obs.h"
#include "probes.h"

namespace wallbench {

namespace {

double CpuSeconds(const rusage& ru) {
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024 / 1e6;
  }
  return 0.0;
}

/// Each node process gets CPUs of its own, as on separate machines, so the
/// figures do not depend on where the host's scheduler puts the threads:
/// master and collector (both light) share CPU 0; one slave takes all the
/// others; several slaves get one each, round robin. `slaves` = 0 frees the
/// caller to run on every CPU; `one_cpu` puts every process on CPU 0.
void PinNode(sjoin::Rank r, std::uint32_t slaves, bool one_cpu) {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  if (online < 2) return;
  const auto cpus = static_cast<std::size_t>(online);
  cpu_set_t set;
  CPU_ZERO(&set);
  if (one_cpu) {
    CPU_SET(0, &set);
  } else if (slaves == 0) {
    for (std::size_t c = 0; c < cpus; ++c) CPU_SET(c, &set);
  } else if (r == 0 || r > slaves) {
    CPU_SET(0, &set);
  } else if (slaves == 1) {
    for (std::size_t c = 1; c < cpus; ++c) CPU_SET(c, &set);
  } else {
    CPU_SET(1 + (r - 1) % (cpus - 1), &set);
  }
  sched_setaffinity(0, sizeof set, &set);
}

/// Body of a node process; never returns. It must not touch the launcher's
/// input trace, which is not mapped here.
[[noreturn]] void RunNode(sjoin::SocketMesh& mesh, sjoin::Rank r,
                          const ClusterSpec& spec, ClusterShm& shm) {
  int code = 0;
  try {
    PinNode(r, spec.cfg.num_slaves, spec.one_cpu);
    std::unique_ptr<sjoin::SocketEndpoint> ep = mesh.TakeEndpoint(r);
    RankShm& me = shm.rank[r];
    const std::uint32_t n = spec.cfg.num_slaves;
    me.start_ns = NowNs();
    if (r <= n) {
      sjoin::obs::NodeObs ob;
      BenchSink sink(shm, me);
      sjoin::WallOptions opts;
      opts.slave_extra_sinks.assign(n, nullptr);
      opts.slave_extra_sinks[r - 1] = &sink;
      opts.slave_obs.assign(n, nullptr);
      opts.slave_obs[r - 1] = &ob;
      opts.slave_inspect = [&me](sjoin::Rank, sjoin::JoinModule& join,
                                 std::uint64_t) {
        me.window_tuples = join.Store().TotalCount();
        me.window_bytes = join.Store().TotalBytes();
        me.inspected = 1;
      };
      MeasuredTransport t(*ep, shm, n, &ob.registry);
      sjoin::RunSlaveNode(t, spec.cfg, opts);
    } else {
      MeasuredTransport t(*ep, shm, n, nullptr);
      sjoin::RunCollectorNode(t, spec.cfg);
    }
    me.exit_ns = NowNs();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: rank %u failed: %s\n", r, e.what());
    code = 2;
  }
  _exit(code);
}

/// Kills the children still alive at the deadline. The main thread reaps
/// them; `Finish` stops the watch once every child is reaped.
class Watchdog {
 public:
  Watchdog(ClusterShm& shm, std::vector<pid_t> pids, std::int64_t fallback_ns,
           std::int64_t after_origin_ns)
      : shm_(shm),
        pids_(std::move(pids)),
        reaped_(pids_.size()),
        killed_(pids_.size(), 0),
        kill_ns_(pids_.size(), 0),
        fallback_ns_(fallback_ns),
        after_origin_ns_(after_origin_ns),
        thread_([this] { Watch(); }) {}
  ~Watchdog() { Finish(); }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void MarkReaped(std::size_t i) { reaped_[i].store(true); }
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  /// Deadline on the host clock, once the master's clock is known.
  std::int64_t Deadline() const {
    const std::int64_t origin = shm_.origin_ns.load();
    return origin != 0 ? origin + after_origin_ns_ : fallback_ns_;
  }
  bool Killed(std::size_t i) const { return killed_[i] != 0; }
  std::int64_t KillNs(std::size_t i) const { return kill_ns_[i]; }

 private:
  void Watch() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!done_) {
      const std::int64_t now = NowNs();
      if (now >= Deadline()) {
        for (std::size_t i = 0; i < pids_.size(); ++i) {
          if (reaped_[i].load()) continue;
          kill(pids_[i], SIGKILL);
          killed_[i] = 1;
          kill_ns_[i] = now;
        }
        return;
      }
      cv_.wait_for(lock, std::chrono::milliseconds(20));
    }
  }

  ClusterShm& shm_;
  std::vector<pid_t> pids_;
  std::vector<std::atomic<bool>> reaped_;
  std::vector<char> killed_;
  std::vector<std::int64_t> kill_ns_;
  std::int64_t fallback_ns_;
  std::int64_t after_origin_ns_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

}  // namespace

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

ClusterRun RunCluster(const ClusterSpec& spec) {
  if (spec.trace == nullptr || spec.trace->empty()) {
    throw std::invalid_argument("RunCluster needs an input trace");
  }
  ClusterRun run;
  run.shm = std::make_unique<ShmRegion>();
  ClusterShm& shm = *run.shm->get();
  const std::uint32_t n = spec.cfg.num_slaves;
  const sjoin::Rank ranks = n + 2;
  if (ranks > kMaxRanks) throw std::invalid_argument("too many ranks");
  shm.ranks = ranks;
  shm.traced = spec.traced ? 1 : 0;
  shm.fill_us = spec.fill_us;
  shm.delay_end_us = spec.delay_end_us;

  const sjoin::Time input_end_us =
      spec.run_for_us > 0 ? spec.run_for_us : spec.trace->back().ts;
  sjoin::WallOptions opts;
  opts.input_trace = spec.trace;
  opts.run_for = spec.run_for_us > 0 ? spec.run_for_us
                                     : input_end_us + sjoin::kUsPerSec;

  // The launcher forks unpinned (unless `one_cpu`), so a new node process
  // does not wait for CPU 0 until it has pinned itself; it becomes the
  // master after.
  PinNode(0, 0, spec.one_cpu);
  std::fflush(nullptr);
  rusage ru0{};
  getrusage(RUSAGE_THREAD, &ru0);
  run.mesh_ns = NowNs();
  sjoin::SocketMesh mesh(ranks);
  std::vector<pid_t> pids;
  for (sjoin::Rank r = 1; r < ranks; ++r) {
    const pid_t pid = fork();
    if (pid < 0) {
      for (pid_t p : pids) kill(p, SIGKILL);
      for (pid_t p : pids) waitpid(p, nullptr, 0);
      throw std::runtime_error("fork failed");
    }
    if (pid == 0) RunNode(mesh, r, spec, shm);
    pids.push_back(pid);
  }
  PinNode(0, n, spec.one_cpu);
  std::unique_ptr<sjoin::SocketEndpoint> ep = mesh.TakeEndpoint(0);
  auto transport = std::make_unique<MeasuredTransport>(*ep, shm, n, nullptr);
  const std::int64_t after_origin_ns = (input_end_us + spec.grace_us) * 1000;
  Watchdog watchdog(shm, pids, run.mesh_ns + after_origin_ns + 10'000'000'000LL,
                    after_origin_ns);

  RankShm& master = shm.rank[0];
  master.start_ns = NowNs();
  try {
    run.master = sjoin::RunMasterNode(*transport, spec.cfg, opts);
  } catch (...) {
    for (pid_t p : pids) kill(p, SIGKILL);
    for (pid_t p : pids) waitpid(p, nullptr, 0);
    throw;
  }
  master.exit_ns = NowNs();
  // A master process exits here and its sockets close, so slaves that still
  // report to it see a dead peer instead of a full socket buffer.
  transport.reset();
  ep.reset();
  rusage ru1{};
  getrusage(RUSAGE_THREAD, &ru1);
  run.master_cpu_s = CpuSeconds(ru1) - CpuSeconds(ru0);
  run.master_rss_mb = PeakRssMb() - static_cast<double>(spec.trace->size() *
                                                        sizeof(sjoin::Rec)) / 1e6;

  for (std::size_t i = 0; i < pids.size(); ++i) {
    int status = 0;
    rusage ru{};
    while (wait4(pids[i], &status, 0, &ru) < 0 && errno == EINTR) {
    }
    watchdog.MarkReaped(i);
    ProcessResult p;
    p.cpu_s = CpuSeconds(ru);
    p.maxrss_mb = static_cast<double>(ru.ru_maxrss) * 1024 / 1e6;
    p.exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    run.nodes.push_back(p);
  }
  const std::int64_t reaped_ns = NowNs();
  watchdog.Finish();

  run.input_end_ns = shm.origin_ns.load() + input_end_us * 1000;
  run.deadline_ns = watchdog.Deadline();
  run.last_exit_ns = master.exit_ns;
  for (std::size_t i = 0; i < run.nodes.size(); ++i) {
    RankShm& rs = shm.rank[i + 1];
    if (watchdog.Killed(i)) {
      run.deadline_hit = true;
      rs.exit_ns = watchdog.KillNs(i);
    } else if (rs.exit_ns == 0) {
      rs.exit_ns = reaped_ns;  // died without finishing its node call
    }
    run.last_exit_ns = std::max(run.last_exit_ns, rs.exit_ns);
  }
  return run;
}

}  // namespace wallbench
