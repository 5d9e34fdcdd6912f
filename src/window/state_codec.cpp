#include "window/state_codec.h"

#include <algorithm>
#include <cassert>

namespace sjoin {

void EncodeGroupState(Writer& w, const PartitionGroup& group) {
  const auto& dir = group.Directory();
  w.PutU32(static_cast<std::uint32_t>(dir.BucketCount()));
  dir.ForEachBucketIndexed([&](std::uint64_t pattern, const auto& node) {
    w.PutU64(pattern);
    w.PutU32(node.local_depth);
    for (StreamId s = 0; s < kStreamCount; ++s) {
      if (!node.bucket.Initialized()) {
        w.PutU64(0);
        continue;
      }
      const MiniPartition& part = node.bucket.Part(s);
      assert(part.FreshCount() == 0 && "flush the group before migrating it");
      w.PutU64(part.TotalCount());
      part.ForEachRecord([&](const Rec& rec) {
        EncodeRec(w, rec, group.TupleBytes());
      });
    }
  });
}

std::unique_ptr<PartitionGroup> DecodeGroupState(Reader& r,
                                                 const JoinConfig& cfg,
                                                 std::size_t tuple_bytes) {
  auto group = std::make_unique<PartitionGroup>(cfg, tuple_bytes);
  const std::uint32_t buckets = r.GetU32();

  struct BucketHeader {
    std::uint64_t pattern;
    std::uint32_t depth;
  };

  // First pass: read everything, rebuilding the directory shape before any
  // record lands so the per-mini-partition temporal-order invariant holds.
  std::vector<BucketHeader> shape;
  std::vector<std::vector<Rec>> recs_per_bucket;
  shape.reserve(buckets);
  recs_per_bucket.reserve(buckets);
  for (std::uint32_t i = 0; i < buckets; ++i) {
    BucketHeader h{r.GetU64(), r.GetU32()};
    shape.push_back(h);
    std::vector<Rec> recs;
    for (StreamId s = 0; s < kStreamCount; ++s) {
      std::uint64_t n = r.GetU64();
      for (std::uint64_t j = 0; j < n; ++j) {
        Rec rec = DecodeRec(r, tuple_bytes);
        rec.stream = s;  // defensive: the stream slot is authoritative here
        recs.push_back(rec);
      }
    }
    recs_per_bucket.push_back(std::move(recs));
  }

  for (const BucketHeader& h : shape) {
    group->ForceBucketDepth(h.pattern, h.depth);
  }
  for (const auto& recs : recs_per_bucket) {
    for (const Rec& rec : recs) {
      // Each mini-partition holds its records in temporal order; a record
      // older than its destination's newest can only come from a corrupted
      // frame.
      if (rec.ts < group->GroupFor(rec.key).Part(rec.stream).MaxSeenTs()) {
        throw DecodeError("group state records out of temporal order");
      }
      group->InstallSealed(rec);
    }
  }
  return group;
}

std::vector<Rec> CollectGroupRecords(const PartitionGroup& group) {
  std::vector<Rec> out;
  out.reserve(group.TotalCount());
  group.ForEachMiniGroup([&](const MiniGroup& mg) {
    for (StreamId s = 0; s < kStreamCount; ++s) {
      const MiniPartition& part = mg.Part(s);
      assert(part.FreshCount() == 0 && "flush the group before collecting");
      part.ForEachRecord([&](const Rec& rec) { out.push_back(rec); });
    }
  });
  std::stable_sort(out.begin(), out.end(),
                   [](const Rec& a, const Rec& b) { return a.ts < b.ts; });
  return out;
}

std::uint64_t DigestGroupRecords(const PartitionGroup& group) {
  std::vector<Rec> recs = CollectGroupRecords(group);
  // Total order: CollectGroupRecords sorts by ts only, leaving ts-ties in
  // directory-iteration order, which split/merge history can permute.
  std::sort(recs.begin(), recs.end(), [](const Rec& a, const Rec& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.key != b.key) return a.key < b.key;
    return a.stream < b.stream;
  });
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  mix(recs.size());
  for (const Rec& rec : recs) {
    mix(static_cast<std::uint64_t>(rec.ts));
    mix(rec.key);
    mix(rec.stream);
  }
  return h;
}

std::unique_ptr<PartitionGroup> BuildGroupFromRecords(
    std::vector<Rec> recs, const JoinConfig& cfg, std::size_t tuple_bytes) {
  std::stable_sort(recs.begin(), recs.end(),
                   [](const Rec& a, const Rec& b) { return a.ts < b.ts; });
  auto group = std::make_unique<PartitionGroup>(cfg, tuple_bytes);
  for (const Rec& rec : recs) group->InstallSealed(rec);
  return group;
}

}  // namespace sjoin
