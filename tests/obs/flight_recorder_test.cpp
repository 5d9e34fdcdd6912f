// The flight recorder is TraceSink's ring: the node's kRingEvents most
// recent events, kept whether tracing is on or off. Each case emits more
// than a ring's worth where it tests wrapping.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace sjoin::obs {
namespace {

constexpr std::size_t kCap = TraceSink::kRingEvents;

/// The dump's first line for `retained` events kept and `dropped` lost.
std::string Header(std::size_t retained, std::uint64_t dropped) {
  return "flight_recorder: " + std::to_string(retained) +
         " events retained, " + std::to_string(dropped) + " dropped\n";
}

TEST(FlightRecorderTest, KeepsEverythingBelowCapacity) {
  TraceSink sink;  // disabled: the ring records anyway
  sink.Instant("epoch", "epoch", 10, {{"epoch", 1}});
  sink.Instant("epoch", "epoch", 20, {{"epoch", 2}});
  EXPECT_TRUE(sink.Dump().starts_with(Header(2, 0)));
  const std::vector<TraceEvent> ev = sink.Recent();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].ts, 10);
  EXPECT_EQ(ev[0].seq, 0u);
  EXPECT_EQ(ev[0].name, "epoch");
  EXPECT_EQ(ev[0].args, (TraceArgs{{"epoch", 1}}));
  EXPECT_EQ(ev[1].seq, 1u);
}

TEST(FlightRecorderTest, RingWrapsKeepingNewestOldestFirst) {
  TraceSink sink;
  const std::uint64_t total = kCap + 7;
  for (std::uint64_t i = 0; i < total; ++i) {
    sink.Instant("ev", "c", Time(i) * 100, {{"n", std::int64_t(i)}});
  }
  EXPECT_TRUE(sink.Dump().starts_with(Header(kCap, 7)));
  const std::vector<TraceEvent> ev = sink.Recent();
  ASSERT_EQ(ev.size(), kCap);
  // The newest kCap survive, oldest of them first, seq preserved.
  for (std::size_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(ev[i].seq, 7u + i);
    EXPECT_EQ(ev[i].args, (TraceArgs{{"n", std::int64_t(7 + i)}}));
    EXPECT_EQ(ev[i].ts, Time(7 + i) * 100);
  }
}

// Wraparound boundaries: exactly-full keeps everything; each of the next
// events evicts exactly one; a second full revolution (2N, 2N+1) keeps the
// seq window sliding with no gaps or duplicates.
TEST(FlightRecorderTest, WrapBoundariesAtExactMultiplesOfCapacity) {
  TraceSink sink;
  auto expect_window = [&sink](std::uint64_t total) {
    const std::vector<TraceEvent> ev = sink.Recent();
    const std::size_t want = std::min<std::uint64_t>(total, kCap);
    ASSERT_EQ(ev.size(), want);
    EXPECT_TRUE(sink.Dump().starts_with(Header(want, total - want)));
    // The retained window is the `want` newest, oldest first, contiguous.
    const std::uint64_t first = total - want;
    for (std::size_t i = 0; i < want; ++i) {
      EXPECT_EQ(ev[i].seq, first + i);
      EXPECT_EQ(ev[i].args, (TraceArgs{{"n", std::int64_t(first + i)}}));
    }
  };

  std::uint64_t recorded = 0;
  auto fill_to = [&](std::uint64_t total) {
    while (recorded < total) {
      sink.Instant("ev", "c", Time(recorded), {{"n", std::int64_t(recorded)}});
      ++recorded;
    }
  };

  fill_to(kCap);  // exactly full: nothing dropped yet
  expect_window(kCap);
  fill_to(kCap + 1);  // first eviction
  expect_window(kCap + 1);
  fill_to(2 * kCap);  // head back at slot 0
  expect_window(2 * kCap);
  fill_to(2 * kCap + 1);  // second revolution's first eviction
  expect_window(2 * kCap + 1);
}

// The ring is a shared per-process sink appended from the runner's protocol
// paths (comm thread, worker pool, policy loop) while dumps may run
// concurrently. Hammer a traced sink from several writers with interleaved
// reads: no lost updates (every event is exported), and the surviving
// window is always `capacity` events with distinct seqs. Run under TSan
// this also proves the locking is sound.
TEST(FlightRecorderTest, ConcurrentWritersLoseNothingAndKeepSeqsDistinct) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kWriters) * kPerWriter;
  TraceSink sink(/*enabled=*/true);

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&sink, w] {
      // Built with += : GCC 12 -O3 reports a false -Wrestrict for
      // "w" + std::to_string(w).
      std::string name = "w";
      name += std::to_string(w);
      for (int i = 0; i < kPerWriter; ++i) {
        sink.Instant(name, "c", Time(i), {{"n", i}});
      }
    });
  }
  // Interleaved reader: snapshots must always be internally consistent.
  std::thread reader([&sink] {
    for (int i = 0; i < 200; ++i) {
      const std::vector<TraceEvent> ev = sink.Recent();
      ASSERT_LE(ev.size(), kCap);
      for (std::size_t j = 1; j < ev.size(); ++j) {
        ASSERT_LT(ev[j - 1].seq, ev[j].seq);  // oldest first, strictly
      }
      (void)sink.Dump();
    }
  });
  for (std::thread& t : writers) t.join();
  reader.join();

  EXPECT_EQ(sink.EventCount(), kTotal);
  EXPECT_TRUE(sink.Dump().starts_with(Header(kCap, kTotal - kCap)));
  const std::vector<TraceEvent> ev = sink.Recent();
  ASSERT_EQ(ev.size(), kCap);
  std::set<std::uint64_t> seqs;
  for (const TraceEvent& e : ev) seqs.insert(e.seq);
  EXPECT_EQ(seqs.size(), kCap);  // distinct
  // The window is the newest kCap seqs of the whole run.
  EXPECT_EQ(*seqs.rbegin(), kTotal - 1);
  EXPECT_EQ(*seqs.begin(), kTotal - kCap);
}

TEST(FlightRecorderTest, DumpFormatsEventsAndDropCount) {
  TraceSink sink;
  sink.Instant("member_join", "membership", 5, {{"slave", 3}});
  sink.Instant("failover", "repl", 7, {{"pid", 4}, {"target", 2}});
  for (std::size_t i = 0; i + 2 < kCap; ++i) sink.End("tick", "c", 8);
  sink.Instant("epoch", "epoch", 9, {{"epoch", 12}});  // evicts the oldest
  const std::string dump = sink.Dump();
  // Header names the drop count; the dropped event's line is gone.
  EXPECT_TRUE(dump.starts_with(Header(kCap, 1)));
  EXPECT_EQ(dump.find("member_join"), std::string::npos);
  EXPECT_NE(dump.find("\nvt=7 seq=1 failover pid=4 target=2\n"),
            std::string::npos);
  EXPECT_NE(dump.find("\nvt=8 seq=2 tick\n"), std::string::npos);
  EXPECT_NE(
      dump.find("\nvt=9 seq=" + std::to_string(kCap) + " epoch epoch=12\n"),
      std::string::npos);
  // Oldest first: the failover line precedes the epoch line.
  EXPECT_LT(dump.find("failover"), dump.find("epoch epoch=12"));
}

}  // namespace
}  // namespace sjoin::obs
