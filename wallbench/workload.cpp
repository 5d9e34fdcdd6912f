#include "workload.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "common/rng.h"
#include "gen/bmodel.h"
#include "probes.h"

namespace wallbench {

using sjoin::Duration;
using sjoin::Rec;
using sjoin::Time;

namespace {

constexpr Duration kSec = 1'000'000;

// saturate: the input rate, and the join rate its length is sized for. Two
// workers join 1.1-1.5M tuples/s today; the offer stays above a join twice as
// fast as the sizing rate, so a 2x speed-up still runs saturated.
constexpr double kSaturateRate = 3.2e6;
constexpr double kSaturateSizingRate = 1.5e6;
// saturate's paced lead-in: the paper's operating rate, as on `paced`, for
// the window fill plus at most this long over all runs.
constexpr double kSaturateLeadRate = 200'000;
constexpr Duration kSaturateLeadMaxUs = 10 * kSec;
// saturate's measurement is split over this many cluster runs. One run's
// capacity moves by about 10 % from one fresh cluster to the next, even at
// one host speed; pooling fresh runs averages that out, where a longer
// single run does not.
constexpr int kSaturateRuns = 3;

/// Excludes the trace's pages from fork(). A vector this large is a private
/// mmap of its own (glibc serves every request above 32 MiB that way), which
/// the check on the chunk header's position confirms before madvise touches
/// the range.
void ExcludeFromFork(std::vector<Rec>& v) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto data = reinterpret_cast<std::uintptr_t>(v.data());
  const std::uintptr_t chunk = data - 2 * sizeof(std::size_t);
  if (chunk % page != 0) {
    throw std::runtime_error("trace buffer is not a dedicated mapping");
  }
  const std::uintptr_t len =
      (v.capacity() * sizeof(Rec) + 2 * sizeof(std::size_t) + page - 1) / page *
      page;
  if (madvise(reinterpret_cast<void*>(chunk), len, MADV_DONTFORK) != 0) {
    throw std::runtime_error("madvise(MADV_DONTFORK) on the trace failed");
  }
}

}  // namespace

Workload MakeWorkload(const std::string& name, int seconds) {
  const Duration measure = static_cast<Duration>(seconds) * kSec;
  Workload w;
  w.name = name;
  if (name == "paced") {
    w.slaves = 2;
    w.window_us = 5 * kSec;
    w.phases = {{200'000, w.window_us + measure}};
    w.grace_us = 3 * kSec;
  } else if (name == "saturate") {
    w.slaves = 1;
    w.workers = 2;
    w.window_us = 1 * kSec;
    // Per run, one saturated burst with enough input to keep a join at the
    // sizing rate busy for `seconds` / runs once its window is full. Every
    // end-to-end metric is reported on every workload, and a saturated run's
    // delay is only its backlog wait, which moves with capacity_tps at about
    // twice its relative size; so the burst follows a paced lead-in whose
    // outputs give this node's delay.
    w.runs = kSaturateRuns;
    // The lead-in ends on an epoch boundary, so no batch mixes its tuples
    // with the burst's.
    const Duration lead_us = std::min(measure, kSaturateLeadMaxUs) / w.runs;
    const Duration lead = w.window_us + (lead_us + kEpochUs - 1) / kEpochUs * kEpochUs;
    const Duration burst =
        w.window_us + static_cast<Duration>(static_cast<double>(measure) / w.runs *
                                            kSaturateSizingRate / kSaturateRate);
    w.phases = {{kSaturateLeadRate, lead}, {kSaturateRate, burst}};
    w.capacity = {lead + w.window_us, lead + burst};
    w.delay = {w.window_us, lead};
    w.grace_us = 30 * kSec;
  } else if (name == "replicated") {
    w.slaves = 3;
    w.window_us = 5 * kSec;
    // End on a checkpoint epoch: the sweep then races the shutdown, which is
    // the known hang this workload must keep counting (README.md).
    const Duration sweep = kEpochUs * sjoin::ReplicationConfig{}.ckpt_interval_epochs;
    w.phases = {{300'000, (w.window_us + measure + sweep - 1) / sweep * sweep}};
    w.replication = true;
    w.grace_us = 3 * kSec;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  if (w.capacity.end_us == 0) {
    w.capacity = {w.window_us, w.phases.back().duration_us};
    w.delay = w.capacity;
  }
  return w;
}

sjoin::SystemConfig MakeConfig(const Workload& w, std::uint64_t seed) {
  sjoin::SystemConfig cfg;
  cfg.num_slaves = w.slaves;
  cfg.slave.workers = w.workers;
  cfg.join.window = w.window_us;
  cfg.epoch.t_dist = kEpochUs;
  cfg.replication.enabled = w.replication;
  cfg.workload.lambda = w.phases.back().rate_tps / 2;
  cfg.workload.b_skew = kBSkew;
  cfg.workload.key_domain = kKeyDomain;
  cfg.workload.seed = seed;
  return cfg;
}

std::vector<Rec> GenerateTrace(const Workload& w, std::uint64_t seed) {
  double expected = 0;
  for (const Phase& p : w.phases) {
    expected += p.rate_tps * static_cast<double>(p.duration_us) / 1e6;
  }
  std::vector<Rec> out;
  // At least 2M records (48 MB), so the buffer is always its own mapping.
  out.reserve(std::max<std::size_t>(
      2'000'000, static_cast<std::size_t>(expected + 8 * std::sqrt(expected) + 1024)));

  sjoin::Pcg32 gap_rng[2] = {sjoin::Pcg32(seed, 11), sjoin::Pcg32(seed, 12)};
  sjoin::BModelGenerator keys[2] = {
      sjoin::BModelGenerator(kBSkew, kKeyDomain, seed, 21),
      sjoin::BModelGenerator(kBSkew, kKeyDomain, seed, 22)};
  double start = 0;
  for (const Phase& p : w.phases) {
    const double end = start + static_cast<double>(p.duration_us);
    if (p.rate_tps > 0) {
      const double per_stream = p.rate_tps / 2.0 / 1e6;  // tuples per us
      auto gap = [&](int s) {
        return -std::log1p(-gap_rng[s].NextDouble()) / per_stream;
      };
      double next[2] = {start + gap(0), start + gap(1)};
      while (true) {
        const int s = next[1] < next[0] ? 1 : 0;
        if (next[s] >= end) break;
        out.push_back(Rec{static_cast<Time>(next[s]), keys[s].Next(),
                          static_cast<sjoin::StreamId>(s)});
        next[s] += gap(s);
      }
    }
    start = end;
  }
  ExcludeFromFork(out);
  return out;
}

ReferenceResult ReferenceJoin(std::span<const Rec> trace, Duration window) {
  const auto start = std::chrono::steady_clock::now();
  // One word per tuple: key (24 bits) | ts (39 bits) | stream (1 bit).
  constexpr int kTsShift = 1;
  constexpr int kKeyShift = 40;
  constexpr std::uint64_t kTsMask = (1ull << 39) - 1;
  const std::size_t n = trace.size();
  std::vector<std::uint64_t> a(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Rec& r = trace[i];
    if (r.key >= (1ull << 24) || r.ts < 0 || static_cast<std::uint64_t>(r.ts) > kTsMask) {
      throw std::runtime_error("trace record out of the reference join's range");
    }
    a[i] = r.key << kKeyShift | static_cast<std::uint64_t>(r.ts) << kTsShift | r.stream;
  }
  {
    // Stable LSD radix sort on the key, two 12-bit digits: within a key the
    // trace order -- hence timestamp order -- survives.
    std::vector<std::uint64_t> b(n);
    for (int shift = kKeyShift; shift < kKeyShift + 24; shift += 12) {
      std::vector<std::size_t> at(4097, 0);
      for (std::uint64_t x : a) ++at[((x >> shift) & 4095) + 1];
      for (std::size_t d = 1; d < at.size(); ++d) at[d] += at[d - 1];
      for (std::uint64_t x : a) b[at[(x >> shift) & 4095]++] = x;
      a.swap(b);
    }
  }
  // Each tuple pairs with the earlier tuples of its key on the other stream
  // that are at most `window` older.
  ReferenceResult res;
  std::size_t group = 0;
  std::uint64_t kh = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = a[i] >> kKeyShift;
    if (i == 0 || key != a[i - 1] >> kKeyShift) {
      group = i;
      kh = KeyHash(key);
    }
    const auto ts = static_cast<Time>((a[i] >> kTsShift) & kTsMask);
    const std::uint64_t stream = a[i] & 1;
    for (std::size_t j = i; j-- > group;) {
      const auto tj = static_cast<Time>((a[j] >> kTsShift) & kTsMask);
      if (tj < ts - window) break;
      if ((a[j] & 1) == stream) continue;
      res.digest += stream == 0 ? PairHash(kh, ts, tj) : PairHash(kh, tj, ts);
      ++res.outputs;
    }
  }
  res.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return res;
}

}  // namespace wallbench
