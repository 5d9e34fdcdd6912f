#include "net/inproc_transport.h"

#include <cassert>
#include <chrono>

namespace sjoin {

InProcHub::InProcHub(Rank num_ranks) {
  boxes_.reserve(num_ranks);
  for (Rank i = 0; i < num_ranks; ++i) {
    boxes_.push_back(std::make_unique<Mailbox>());
  }
}

std::unique_ptr<InProcEndpoint> InProcHub::Endpoint(Rank self) {
  assert(self < boxes_.size());
  return std::make_unique<InProcEndpoint>(this, self);
}

void InProcHub::Shutdown() {
  down_.store(true, std::memory_order_release);
  for (auto& box : boxes_) {
    // Lock before notifying so a waiter between its predicate check and its
    // sleep cannot miss the wakeup.
    std::lock_guard<std::mutex> lock(box->mu);
    box->cv.notify_all();
  }
}

void InProcHub::Push(Rank to, Message msg) {
  assert(to < boxes_.size());
  Mailbox& box = *boxes_[to];
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.queue.push_back(std::move(msg));
  }
  box.cv.notify_one();
}

RecvResult InProcHub::PopTimed(Rank self, Duration timeout_us) {
  Mailbox& box = *boxes_[self];
  std::unique_lock<std::mutex> lock(box.mu);
  const auto ready = [&] { return !box.queue.empty() || Down(); };
  bool got = true;
  if (timeout_us < 0) {
    box.cv.wait(lock, ready);  // negative timeout: wait forever
  } else {
    // timeout 0: wait_for(0) evaluates the predicate once -- the
    // non-blocking poll of the timeout contract (net/transport.h).
    got = box.cv.wait_for(lock, std::chrono::microseconds(timeout_us), ready);
  }
  RecvResult res;
  if (!box.queue.empty()) {
    res.status = RecvStatus::kOk;
    res.msg = std::move(box.queue.front());
    box.queue.pop_front();
    return res;
  }
  res.status = got ? RecvStatus::kClosed : RecvStatus::kTimeout;
  return res;
}

void InProcEndpoint::Send(Rank to, Message msg) {
  msg.from = self_;
  instr_.OnSend(to, msg);
  hub_->Push(to, std::move(msg));
}

RecvResult InProcEndpoint::RecvTimed(Duration timeout_us) {
  if (!stash_.empty()) {
    RecvResult res;
    res.status = RecvStatus::kOk;
    res.msg = std::move(stash_.front());
    stash_.pop_front();
    instr_.OnRecv(res.msg.from, res.msg);
    return res;
  }
  RecvResult res = hub_->PopTimed(self_, timeout_us);
  if (res.Ok()) instr_.OnRecv(res.msg.from, res.msg);
  return res;
}

RecvResult InProcEndpoint::RecvFromTimed(Rank from, Duration timeout_us) {
  for (auto it = stash_.begin(); it != stash_.end(); ++it) {
    if (it->from == from) {
      RecvResult res;
      res.status = RecvStatus::kOk;
      res.msg = std::move(*it);
      stash_.erase(it);
      instr_.OnRecv(res.msg.from, res.msg);
      return res;
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(timeout_us);
  while (true) {
    Duration left = -1;
    if (timeout_us == 0) {
      // Zero timeout: poll -- drain whatever is already in the mailbox
      // looking for an eligible message, but never wait.
      left = 0;
    } else if (timeout_us > 0) {
      const auto now = std::chrono::steady_clock::now();
      left = std::chrono::duration_cast<std::chrono::microseconds>(deadline -
                                                                   now)
                 .count();
      if (left < 0) return RecvResult{RecvStatus::kTimeout, {}};
    }
    RecvResult res = hub_->PopTimed(self_, left);
    if (!res.Ok()) return res;  // kTimeout (incl. exhausted poll) or kClosed
    if (res.msg.from == from) {
      instr_.OnRecv(res.msg.from, res.msg);
      return res;
    }
    stash_.push_back(std::move(res.msg));
  }
}

}  // namespace sjoin
