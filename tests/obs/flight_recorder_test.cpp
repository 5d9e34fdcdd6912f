#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace sjoin::obs {
namespace {

TEST(FlightRecorderTest, KeepsEverythingBelowCapacity) {
  FlightRecorder fr(8);
  EXPECT_EQ(fr.Capacity(), 8u);
  fr.Record(10, "epoch", "epoch=1");
  fr.Record(20, "epoch", "epoch=2");
  ASSERT_EQ(fr.Events().size(), 2u);
  EXPECT_EQ(fr.TotalRecorded(), 2u);
  const std::vector<FlightEvent> ev = fr.Events();
  EXPECT_EQ(ev[0].vt, 10);
  EXPECT_EQ(ev[0].seq, 0u);
  EXPECT_EQ(ev[0].kind, "epoch");
  EXPECT_EQ(ev[0].detail, "epoch=1");
  EXPECT_EQ(ev[1].seq, 1u);
}

TEST(FlightRecorderTest, RingWrapsKeepingNewestOldestFirst) {
  FlightRecorder fr(4);
  for (int i = 0; i < 11; ++i) {
    fr.Record(Time(i) * 100, "ev", "n=" + std::to_string(i));
  }
  EXPECT_EQ(fr.TotalRecorded(), 11u);
  const std::vector<FlightEvent> ev = fr.Events();
  ASSERT_EQ(ev.size(), 4u);
  // The four newest survive, oldest of them first, seq preserved.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ev[i].seq, 7u + i);
    EXPECT_EQ(ev[i].detail, "n=" + std::to_string(7 + i));
    EXPECT_EQ(ev[i].vt, Time(7 + i) * 100);
  }
}

// Wraparound boundaries: exactly-full keeps everything; each of the next
// events evicts exactly one; a second full revolution (2N, 2N+1) keeps the
// seq window sliding with no gaps or duplicates.
TEST(FlightRecorderTest, WrapBoundariesAtExactMultiplesOfCapacity) {
  static constexpr std::size_t kCap = 5;
  FlightRecorder fr(kCap);
  auto expect_window = [&fr](std::uint64_t total) {
    const std::vector<FlightEvent> ev = fr.Events();
    const std::size_t want = std::min<std::uint64_t>(total, kCap);
    ASSERT_EQ(ev.size(), want);
    EXPECT_EQ(fr.TotalRecorded(), total);
    // The retained window is the `want` newest, oldest first, contiguous.
    const std::uint64_t first = total - want;
    for (std::size_t i = 0; i < want; ++i) {
      EXPECT_EQ(ev[i].seq, first + i);
      EXPECT_EQ(ev[i].detail, "n=" + std::to_string(first + i));
    }
  };

  std::uint64_t recorded = 0;
  auto fill_to = [&](std::uint64_t total) {
    while (recorded < total) {
      fr.Record(Time(recorded), "ev", "n=" + std::to_string(recorded));
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
// concurrently. Hammer it from several writers with interleaved reads: no
// lost updates (TotalRecorded is exact), and the surviving window is always
// `capacity` events with distinct seqs. Run under TSan this also proves the
// locking is sound.
TEST(FlightRecorderTest, ConcurrentWritersLoseNothingAndKeepSeqsDistinct) {
  static constexpr std::size_t kCap = 32;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  FlightRecorder fr(kCap);

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&fr, w] {
      // Built with += : GCC 12 -O3 reports a false -Wrestrict for
      // "w" + std::to_string(w).
      std::string kind = "w";
      kind += std::to_string(w);
      for (int i = 0; i < kPerWriter; ++i) {
        fr.Record(Time(i), kind, "n=" + std::to_string(i));
      }
    });
  }
  // Interleaved reader: snapshots must always be internally consistent.
  std::thread reader([&fr] {
    for (int i = 0; i < 200; ++i) {
      const std::vector<FlightEvent> ev = fr.Events();
      ASSERT_LE(ev.size(), kCap);
      for (std::size_t j = 1; j < ev.size(); ++j) {
        ASSERT_LT(ev[j - 1].seq, ev[j].seq);  // oldest first, strictly
      }
      (void)fr.Dump();
    }
  });
  for (std::thread& t : writers) t.join();
  reader.join();

  EXPECT_EQ(fr.TotalRecorded(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  const std::vector<FlightEvent> ev = fr.Events();
  ASSERT_EQ(ev.size(), kCap);
  std::set<std::uint64_t> seqs;
  for (const FlightEvent& e : ev) seqs.insert(e.seq);
  EXPECT_EQ(seqs.size(), kCap);  // distinct
  // The window is the newest kCap seqs of the whole run.
  EXPECT_EQ(*seqs.rbegin(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter - 1);
  EXPECT_EQ(*seqs.begin(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter - kCap);
}

TEST(FlightRecorderTest, SetCapacityResetsTheRing) {
  FlightRecorder fr(2);
  fr.Record(1, "a");
  fr.Record(2, "b");
  fr.SetCapacity(16);
  EXPECT_EQ(fr.Capacity(), 16u);
  EXPECT_TRUE(fr.Events().empty());
  fr.Record(3, "c");
  ASSERT_EQ(fr.Events().size(), 1u);
  EXPECT_EQ(fr.Events()[0].kind, "c");
}

TEST(FlightRecorderTest, DumpFormatsEventsAndDropCount) {
  FlightRecorder fr(2);
  fr.Record(5, "member_join", "slave=3");
  fr.Record(7, "failover", "pid=4 target=2");
  fr.Record(9, "epoch", "epoch=12");  // evicts the oldest
  const std::string dump = fr.Dump();
  // Header names the drop count; the dropped event's line is gone.
  EXPECT_NE(dump.find("2 events retained, 1 dropped"), std::string::npos);
  EXPECT_EQ(dump.find("member_join"), std::string::npos);
  EXPECT_NE(dump.find("vt=7 seq=1 failover pid=4 target=2"),
            std::string::npos);
  EXPECT_NE(dump.find("vt=9 seq=2 epoch epoch=12"), std::string::npos);
  // Oldest first: the failover line precedes the epoch line.
  EXPECT_LT(dump.find("failover"), dump.find("epoch epoch=12"));
}

}  // namespace
}  // namespace sjoin::obs
