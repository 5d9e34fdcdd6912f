#include "shm.h"

#include <sys/mman.h>

#include <ctime>
#include <stdexcept>

namespace wallbench {

std::int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double LogHist::Lower(int idx) {
  if (idx < 2 * kSub) return idx;
  const int shift = idx / kSub - 1;
  return static_cast<double>(static_cast<std::uint64_t>(idx - shift * kSub)
                             << shift);
}

double LogHist::Quantile(double q) const {
  if (total_ == 0) return 0.0;
  const double target = q * static_cast<double>(total_);
  double seen = 0.0;
  for (int i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    const double before = seen;
    seen += static_cast<double>(counts_[i]);
    if (seen >= target) {
      // Linear within the bucket, by rank.
      const double width = i < 2 * kSub ? 1.0 : Lower(i + 1) - Lower(i);
      return Lower(i) + width * (target - before) / static_cast<double>(counts_[i]);
    }
  }
  return Lower(kBuckets - 1);
}

void LogHist::Merge(const LogHist& other) {
  for (int i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

ShmRegion::ShmRegion() {
  void* p = mmap(nullptr, sizeof(ClusterShm), PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::runtime_error("mmap of the run record failed");
  shm_ = static_cast<ClusterShm*>(p);
}

ShmRegion::~ShmRegion() { munmap(shm_, sizeof(ClusterShm)); }

}  // namespace wallbench
