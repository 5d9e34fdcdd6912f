// WorkerPool: the intra-slave worker pool for the parallel batch-join pass
// (cfg.slave.workers; see DESIGN.md "Intra-slave multicore execution").
//
// The pool is deliberately minimal: one synchronous fork/join primitive,
// RunOnAll, that runs the same job once per worker index and returns only
// when every worker has finished. The caller (the slave's join thread)
// participates as worker 0, so a pool of k workers spawns k-1 threads.
// Checkpoint sweeps and migrations need no extra quiescing machinery:
// RunOnAll is a barrier, so by the time the join thread handles any other
// work item the pool is guaranteed idle.
//
// The barrier is a mutex+condvar pair: workers sleep between batches (DESIGN.md
// says why it does not spin).
//
// With workers == 1 the pool owns no threads at all and RunOnAll degrades
// to a plain inline call -- the serial configuration pays nothing.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sjoin {

class WorkerPool {
 public:
  /// `workers` >= 1; clamped to 1 when 0 is passed.
  explicit WorkerPool(std::uint32_t workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::uint32_t WorkerCount() const { return workers_; }

  /// Runs `job(k)` once for every worker index k in [0, WorkerCount()) and
  /// returns after all of them completed (the calling thread runs worker 0).
  /// Jobs must not throw and must not call RunOnAll reentrantly. Distinct
  /// indices run concurrently, so the job must only touch worker-disjoint
  /// state (plus atomics / internally-locked sinks).
  void RunOnAll(const std::function<void(std::uint32_t)>& job);

 private:
  void WorkerMain(std::uint32_t index);

  const std::uint32_t workers_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;  ///< bumped per RunOnAll; workers latch it
  std::uint32_t pending_ = 0;     ///< helper threads still inside the job
  bool stop_ = false;
  const std::function<void(std::uint32_t)>* job_ = nullptr;

  std::vector<std::thread> threads_;  ///< workers 1 .. workers_-1
};

}  // namespace sjoin
