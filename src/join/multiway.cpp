#include "join/multiway.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace sjoin {

void MultiStatsSink::OnComposite(const MultiJoinOutput& out) {
  Time newest_ts = out.component_ts[out.newest];
  delay_us_.Add(static_cast<double>(out.produced_at - newest_ts));
}

MultiwayJoinModule::MultiwayJoinModule(std::vector<Duration> windows,
                                       std::size_t block_capacity,
                                       MultiJoinSink* sink)
    : windows_(std::move(windows)), sink_(sink) {
  assert(windows_.size() >= 2);
  assert(sink != nullptr);
  parts_.reserve(windows_.size());
  for (std::size_t k = 0; k < windows_.size(); ++k) {
    parts_.push_back(std::make_unique<MiniPartition>(
        block_capacity, static_cast<StreamId>(k)));
  }
  probe_scratch_.resize(windows_.size());
}

void MultiwayJoinModule::Expire(Time latest) {
  for (std::size_t k = 0; k < parts_.size(); ++k) {
    (void)parts_[k]->ExpireBlocks(latest - windows_[k]);
  }
}

std::size_t MultiwayJoinModule::WindowTuples() const {
  std::size_t n = 0;
  for (const auto& p : parts_) n += p->TotalCount();
  return n;
}

std::size_t MultiwayJoinModule::Process(const Rec& rec, Time now) {
  const std::size_t n = windows_.size();
  assert(rec.stream < n);
  latest_ts_ = std::max(latest_ts_, rec.ts);
  Expire(latest_ts_);

  // Probe every other stream's sealed window share (BNL cost: one scan of
  // each opposite partition per probe tuple).
  bool any_empty = false;
  for (std::size_t k = 0; k < n; ++k) {
    if (k == rec.stream) continue;
    comparisons_ += parts_[k]->SealedCount();
    parts_[k]->ProbeSealed(rec.key, rec.ts - windows_[k], rec.ts,
                           probe_scratch_[k]);
    if (probe_scratch_[k].empty()) any_empty = true;
  }

  std::size_t emitted = 0;
  if (!any_empty) {
    // Enumerate the cross product of the per-stream candidate lists.
    MultiJoinOutput out;
    out.key = rec.key;
    out.newest = rec.stream;
    out.produced_at = now;
    out.component_ts.assign(n, 0);
    out.component_ts[rec.stream] = rec.ts;

    std::vector<std::size_t> idx(n, 0);
    while (true) {
      for (std::size_t k = 0; k < n; ++k) {
        if (k != rec.stream) out.component_ts[k] = probe_scratch_[k][idx[k]];
      }
      sink_->OnComposite(out);
      ++emitted;
      // Odometer increment over the non-probe streams.
      std::size_t k = 0;
      for (; k < n; ++k) {
        if (k == rec.stream) continue;
        if (++idx[k] < probe_scratch_[k].size()) break;
        idx[k] = 0;
      }
      if (k == n) break;
    }
  }
  composites_ += emitted;

  parts_[rec.stream]->Insert(rec);
  parts_[rec.stream]->Seal();
  return emitted;
}

std::vector<MultiJoinOutput> ReferenceMultiwayJoin(
    std::span<const Rec> all, std::span<const Duration> windows) {
  const std::size_t n = windows.size();
  std::map<std::uint64_t, std::vector<std::vector<Rec>>> by_key;
  for (const Rec& r : all) {
    auto& streams = by_key[r.key];
    if (streams.empty()) streams.resize(n);
    assert(r.stream < n);
    streams[r.stream].push_back(r);
  }

  std::vector<MultiJoinOutput> out;
  for (auto& [key, streams] : by_key) {
    bool feasible = true;
    for (const auto& s : streams) {
      if (s.empty()) feasible = false;
    }
    if (!feasible) continue;

    std::vector<std::size_t> idx(n, 0);
    while (true) {
      // Validate: at the newest component's arrival, every other component
      // must still be inside its stream's window.
      Time newest_ts = 0;
      StreamId newest = 0;
      for (std::size_t k = 0; k < n; ++k) {
        Time ts = streams[k][idx[k]].ts;
        if (ts >= newest_ts) {
          newest_ts = ts;
          newest = static_cast<StreamId>(k);
        }
      }
      bool valid = true;
      for (std::size_t k = 0; k < n; ++k) {
        if (newest_ts - streams[k][idx[k]].ts > windows[k]) valid = false;
      }
      if (valid) {
        MultiJoinOutput o;
        o.key = key;
        o.newest = newest;
        o.component_ts.resize(n);
        for (std::size_t k = 0; k < n; ++k) {
          o.component_ts[k] = streams[k][idx[k]].ts;
        }
        out.push_back(std::move(o));
      }
      std::size_t k = 0;
      for (; k < n; ++k) {
        if (++idx[k] < streams[k].size()) break;
        idx[k] = 0;
      }
      if (k == n) break;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MultiJoinOutput& a, const MultiJoinOutput& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.component_ts < b.component_ts;
            });
  return out;
}

}  // namespace sjoin
