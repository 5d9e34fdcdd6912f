#include "core/worker_pool.h"

#include <algorithm>

namespace sjoin {

WorkerPool::WorkerPool(std::uint32_t workers)
    : workers_(std::max<std::uint32_t>(1, workers)) {
  threads_.reserve(workers_ - 1);
  for (std::uint32_t k = 1; k < workers_; ++k) {
    threads_.emplace_back([this, k] { WorkerMain(k); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::RunOnAll(const std::function<void(std::uint32_t)>& job) {
  if (workers_ == 1) {
    job(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++generation_;
    pending_ = workers_ - 1;
  }
  cv_start_.notify_all();
  job(0);  // the caller is worker 0
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return pending_ == 0; });
  job_ = nullptr;
}

void WorkerPool::WorkerMain(std::uint32_t index) {
  std::uint64_t seen = 0;
  while (true) {
    const std::function<void(std::uint32_t)>* job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock,
                     [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    (*job)(index);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
    }
    // The barrier owner may be the only waiter; notify outside the lock.
    cv_done_.notify_one();
  }
}

}  // namespace sjoin
