#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace_check.h"

namespace sjoin::obs {
namespace {

TEST(TraceSinkTest, DisabledSinkRecordsNothing) {
  TraceSink sink;  // disabled by default
  sink.Complete("a", "c", 0, 10);
  sink.Instant("b", "c", 5);
  EXPECT_EQ(sink.EventCount(), 0u);
}

// Tracing off still keeps the post-mortem: the dump holds the last
// kRingEvents events, whatever their phase.
TEST(TraceSinkTest, DisabledSinkDumpHoldsItsLast256Events) {
  TraceSink sink;
  sink.SetRank(2);
  for (std::int64_t i = 0; i < 300; ++i) {
    sink.Complete("join", "join", i, 1, {{"n", i}});
  }
  sink.Instant("dead_slave", "fault", 300, {{"slave", 2}});
  EXPECT_EQ(sink.EventCount(), 0u);
  ASSERT_EQ(TraceSink::kRingEvents, 256u);
  const std::string dump = sink.Dump();
  EXPECT_TRUE(dump.starts_with("flight_recorder: 256 events retained, "
                               "45 dropped\n"))
      << dump.substr(0, 80);
  EXPECT_EQ(dump.find(" join n=44\n"), std::string::npos);
  EXPECT_NE(dump.find("\nvt=45 seq=45 join n=45\n"), std::string::npos);
  EXPECT_TRUE(dump.ends_with("\nvt=300 seq=300 dead_slave slave=2\n"));
  const std::vector<TraceEvent> recent = sink.Recent();
  ASSERT_EQ(recent.size(), 256u);
  EXPECT_EQ(recent.front().seq, 45u);
  EXPECT_EQ(recent.front().pid, 2u);
}

TEST(TraceSinkTest, EventsCarryRankAndEmissionSeq) {
  TraceSink sink(/*enabled=*/true);
  sink.SetRank(3);
  sink.Complete("join", "join", 100, 40, {{"tuples", 7}});
  sink.Instant("migrate", "reorg", 140);
  std::vector<TraceEvent> evs = sink.Events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].pid, 3u);
  EXPECT_EQ(evs[0].ph, 'X');
  EXPECT_EQ(evs[0].dur, 40);
  EXPECT_EQ(evs[0].seq, 0u);
  ASSERT_EQ(evs[0].args.size(), 1u);
  EXPECT_EQ(evs[0].args[0].first, "tuples");
  EXPECT_EQ(evs[0].args[0].second, 7);
  EXPECT_EQ(evs[1].seq, 1u);
  EXPECT_EQ(evs[1].ph, 'i');
}

TEST(TraceSinkTest, MergeSortsByTsThenPidThenSeq) {
  TraceSink a(true);
  a.SetRank(2);
  a.Instant("a0", "c", 50);
  a.Instant("a1", "c", 10);  // emitted later but earlier ts
  TraceSink b(true);
  b.SetRank(1);
  b.Instant("b0", "c", 50);
  std::vector<const TraceSink*> sinks{&a, &b};
  std::vector<TraceEvent> merged = MergeTraces(sinks);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].name, "a1");            // ts 10
  EXPECT_EQ(merged[1].name, "b0");            // ts 50, pid 1
  EXPECT_EQ(merged[2].name, "a0");            // ts 50, pid 2
}

TEST(TraceSinkTest, ChromeJsonRoundTripsThroughValidator) {
  TraceSink sink(true);
  sink.SetRank(0);
  sink.Begin("epoch", "epoch", 0, {{"epoch", 0}});
  sink.Instant("migrate", "reorg", 3, {{"pid", 9}, {"from", 1}, {"to", 2}});
  sink.End("epoch", "epoch", 1000);
  sink.Complete("distribute", "epoch", 1000, 0);
  std::vector<const TraceSink*> sinks{&sink};
  std::string json = ExportChromeJson(MergeTraces(sinks));
  TraceCheckResult res = ValidateChromeTrace(json);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.events, 4);
  EXPECT_EQ(res.spans, 2);  // one X + one matched B/E
  EXPECT_EQ(res.instants, 1);
}

TEST(TraceSinkTest, ExportIsByteDeterministic) {
  auto build = [] {
    TraceSink sink(true);
    sink.SetRank(1);
    sink.Complete("join_batch", "join", 2000, 0, {{"epoch", 2}});
    sink.Instant("ckpt_segment", "repl", 2000, {{"pid", 4}});
    std::vector<const TraceSink*> sinks{&sink};
    return ExportChromeJson(MergeTraces(sinks));
  };
  EXPECT_EQ(build(), build());
}

TEST(TraceCheckTest, RejectsNonJson) {
  EXPECT_FALSE(ValidateChromeTrace("not json").ok);
  EXPECT_FALSE(ValidateChromeTrace("{\"a\":1}").ok);  // object, not array
}

TEST(TraceCheckTest, RejectsMissingRequiredFields) {
  // No ts.
  EXPECT_FALSE(
      ValidateChromeTrace("[{\"name\":\"x\",\"ph\":\"i\",\"pid\":0,\"tid\":0}]")
          .ok);
  // 'X' without dur.
  EXPECT_FALSE(ValidateChromeTrace("[{\"name\":\"x\",\"ph\":\"X\",\"ts\":1,"
                                   "\"pid\":0,\"tid\":0}]")
                   .ok);
}

TEST(TraceCheckTest, RejectsDecreasingTimestamps) {
  std::string json =
      "[{\"name\":\"a\",\"ph\":\"i\",\"ts\":10,\"pid\":0,\"tid\":0},"
      "{\"name\":\"b\",\"ph\":\"i\",\"ts\":5,\"pid\":0,\"tid\":0}]";
  TraceCheckResult res = ValidateChromeTrace(json);
  EXPECT_FALSE(res.ok);
}

TEST(TraceCheckTest, RejectsUnbalancedSpans) {
  // B without E.
  EXPECT_FALSE(ValidateChromeTrace("[{\"name\":\"epoch\",\"ph\":\"B\","
                                   "\"ts\":0,\"pid\":0,\"tid\":0}]")
                   .ok);
  // E with mismatched name.
  EXPECT_FALSE(ValidateChromeTrace(
                   "[{\"name\":\"epoch\",\"ph\":\"B\",\"ts\":0,\"pid\":0,"
                   "\"tid\":0},{\"name\":\"other\",\"ph\":\"E\",\"ts\":1,"
                   "\"pid\":0,\"tid\":0}]")
                   .ok);
  // E without any open span.
  EXPECT_FALSE(ValidateChromeTrace("[{\"name\":\"epoch\",\"ph\":\"E\","
                                   "\"ts\":0,\"pid\":0,\"tid\":0}]")
                   .ok);
}

TEST(TraceCheckTest, RejectsFailoverWithoutDeadSlaveVerdict) {
  std::string json =
      "[{\"name\":\"failover\",\"ph\":\"i\",\"ts\":10,\"pid\":0,\"tid\":0,"
      "\"args\":{\"slave\":2,\"pid\":7,\"replay_from\":3}}]";
  TraceCheckResult res = ValidateChromeTrace(json);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("failover"), std::string::npos);
}

TEST(TraceCheckTest, AcceptsFailoverAfterVerdictAndBoundedAcks) {
  std::string json =
      "[{\"name\":\"dead_slave\",\"ph\":\"i\",\"ts\":5,\"pid\":0,\"tid\":0,"
      "\"args\":{\"slave\":2}},"
      "{\"name\":\"failover\",\"ph\":\"i\",\"ts\":10,\"pid\":0,\"tid\":0,"
      "\"args\":{\"slave\":2,\"pid\":7,\"replay_from\":3}},"
      "{\"name\":\"replay\",\"ph\":\"i\",\"ts\":11,\"pid\":0,\"tid\":0,"
      "\"args\":{\"slave\":2,\"epoch\":4,\"tuples\":8}},"
      "{\"name\":\"ckpt_sweep\",\"ph\":\"i\",\"ts\":12,\"pid\":0,\"tid\":0,"
      "\"args\":{\"epoch\":6}},"
      "{\"name\":\"ckpt_ack\",\"ph\":\"i\",\"ts\":13,\"pid\":0,\"tid\":0,"
      "\"args\":{\"slave\":1,\"pid\":3,\"covered_epoch\":6}}]";
  TraceCheckResult res = ValidateChromeTrace(json);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.instants, 5);
}

TEST(TraceCheckTest, RejectsAckCoveringBeyondNewestSweep) {
  std::string json =
      "[{\"name\":\"ckpt_sweep\",\"ph\":\"i\",\"ts\":1,\"pid\":0,\"tid\":0,"
      "\"args\":{\"epoch\":4}},"
      "{\"name\":\"ckpt_ack\",\"ph\":\"i\",\"ts\":2,\"pid\":0,\"tid\":0,"
      "\"args\":{\"slave\":1,\"pid\":3,\"covered_epoch\":9}}]";
  EXPECT_FALSE(ValidateChromeTrace(json).ok);
}

TEST(TraceCheckTest, RejectsReplayOlderThanFailoverAsked) {
  std::string json =
      "[{\"name\":\"dead_slave\",\"ph\":\"i\",\"ts\":5,\"pid\":0,\"tid\":0,"
      "\"args\":{\"slave\":2}},"
      "{\"name\":\"failover\",\"ph\":\"i\",\"ts\":10,\"pid\":0,\"tid\":0,"
      "\"args\":{\"slave\":2,\"pid\":7,\"replay_from\":3}},"
      "{\"name\":\"replay\",\"ph\":\"i\",\"ts\":11,\"pid\":0,\"tid\":0,"
      "\"args\":{\"slave\":2,\"epoch\":1,\"tuples\":8}}]";
  EXPECT_FALSE(ValidateChromeTrace(json).ok);
}

}  // namespace
}  // namespace sjoin::obs
