#include "obs/flight_recorder.h"

namespace sjoin::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void FlightRecorder::SetCapacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.clear();
  ring_.reserve(capacity_);
  head_ = 0;
}

std::size_t FlightRecorder::Capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void FlightRecorder::Record(Time vt, std::string kind, std::string detail) {
  std::lock_guard<std::mutex> lock(mu_);
  FlightEvent ev;
  ev.vt = vt;
  ev.seq = next_seq_++;
  ev.kind = std::move(kind);
  ev.detail = std::move(detail);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
  } else {
    ring_[head_] = std::move(ev);
    head_ = (head_ + 1) % capacity_;
  }
}

std::vector<FlightEvent> FlightRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t FlightRecorder::TotalRecorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

std::string FlightRecorder::Dump() const {
  std::vector<FlightEvent> evs = Events();
  std::uint64_t total;
  {
    std::lock_guard<std::mutex> lock(mu_);
    total = next_seq_;
  }
  std::string out = "flight_recorder: " + std::to_string(evs.size()) +
                    " events retained, " +
                    std::to_string(total - evs.size()) + " dropped\n";
  for (const FlightEvent& ev : evs) {
    out += "vt=" + std::to_string(ev.vt) + " seq=" + std::to_string(ev.seq) +
           " " + ev.kind;
    if (!ev.detail.empty()) {
      out += ' ';
      out += ev.detail;
    }
    out += '\n';
  }
  return out;
}

}  // namespace sjoin::obs
