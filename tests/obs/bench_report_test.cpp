// BenchReport JSON round-trip, schema validation, and the committed golden
// file (tests/testdata/bench_report_golden.json): the serializer must be
// byte-stable, or archived baselines would churn on every run.
#include "obs/bench_report.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.h"

namespace sjoin::obs {
namespace {

BenchReport MakeReport() {
  BenchReport r;
  r.bench_id = "fig99_example";
  r.figure = "Fig 99";
  r.title = "example bench";
  r.paper_shape = "goes up, with a \"knee\"";
  r.mode = "quick";
  r.deterministic = true;
  r.warmup_s = 75;
  r.measure_s = 45;
  r.config = "slaves=2 W=60s lambda=1500t/s";
  r.columns = {"rate", "policy", "delay_s"};
  r.rows = {
      {BenchCell::Num(1000), BenchCell::Text("static"), BenchCell::Num(0.25)},
      {BenchCell::Num(2000), BenchCell::Text("adaptive"),
       BenchCell::Num(1.75)},
  };
  r.counters = {{"sim_tuples_generated", 123456},
                {"join_tuning_moves", 17}};
  WallStageSummary ws;
  ws.stage = "distribute";
  ws.count = 42;
  ws.p50_us = 7.5;
  ws.p95_us = 31.25;
  r.wall_stages = {ws};
  return r;
}

TEST(BenchReportTest, RoundTripPreservesEveryField) {
  BenchReport r = MakeReport();
  std::string json = r.ToJson();

  BenchReport back;
  std::string err;
  ASSERT_TRUE(ParseBenchReport(json, &back, &err)) << err;
  EXPECT_EQ(back.bench_id, r.bench_id);
  EXPECT_EQ(back.figure, r.figure);
  EXPECT_EQ(back.title, r.title);
  EXPECT_EQ(back.paper_shape, r.paper_shape);
  EXPECT_EQ(back.mode, r.mode);
  EXPECT_EQ(back.deterministic, r.deterministic);
  EXPECT_EQ(back.warmup_s, r.warmup_s);
  EXPECT_EQ(back.measure_s, r.measure_s);
  EXPECT_EQ(back.config, r.config);
  EXPECT_EQ(back.columns, r.columns);
  EXPECT_EQ(back.rows, r.rows);
  EXPECT_EQ(back.counters, r.counters);
  ASSERT_EQ(back.wall_stages.size(), 1u);
  EXPECT_EQ(back.wall_stages[0].stage, "distribute");
  EXPECT_EQ(back.wall_stages[0].count, 42u);
  EXPECT_EQ(back.wall_stages[0].p50_us, 7.5);
  EXPECT_EQ(back.wall_stages[0].p95_us, 31.25);

  // Serialization is deterministic: a second pass is byte-identical.
  EXPECT_EQ(back.ToJson(), json);
}

TEST(BenchReportTest, GoldenFileParsesAndReserializesByteIdentical) {
  const std::string path =
      std::string(SJOIN_TESTDATA_DIR) + "/bench_report_golden.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();

  BenchReport r;
  std::string err;
  ASSERT_TRUE(ParseBenchReport(golden, &r, &err)) << err;
  EXPECT_EQ(r.bench_id, "fig99_example");
  EXPECT_EQ(r.mode, "quick");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_TRUE(r.rows[1][1].is_text);
  EXPECT_EQ(r.rows[1][1].text, "adaptive");

  // The committed file is exactly what ToJson emits today. If this fails,
  // the serializer changed format: bump the schema version and regenerate
  // the golden (and any archived baselines).
  EXPECT_EQ(r.ToJson(), golden);
}

TEST(BenchReportTest, RejectsSchemaViolations) {
  BenchReport r = MakeReport();
  BenchReport out;
  std::string err;

  std::string json = r.ToJson();
  std::string bad = json;
  bad.replace(bad.find("sjoin-bench-report"), 18, "sjoin-bench-rep0rt");
  EXPECT_FALSE(ParseBenchReport(bad, &out, &err));

  bad = json;
  bad.replace(bad.find("\"quick\""), 7, "\"fast\"");
  err.clear();  // the parser reports the first error only
  EXPECT_FALSE(ParseBenchReport(bad, &out, &err));
  EXPECT_NE(err.find("mode"), std::string::npos) << err;

  // Ragged row: drop one cell from the second row.
  BenchReport ragged = MakeReport();
  ragged.rows[1].pop_back();
  EXPECT_FALSE(ParseBenchReport(ragged.ToJson(), &out, &err));

  EXPECT_FALSE(ParseBenchReport("{]", &out, &err));
  EXPECT_FALSE(ParseBenchReport("[1, 2]", &out, &err));
}

TEST(BenchSuiteTest, RoundTripAndModeConsistency) {
  BenchSuite s;
  s.mode = "quick";
  s.benches = {MakeReport()};
  std::string json = s.ToJson();

  BenchSuite back;
  std::string err;
  ASSERT_TRUE(ParseBenchSuite(json, &back, &err)) << err;
  EXPECT_EQ(back.mode, "quick");
  ASSERT_EQ(back.benches.size(), 1u);
  EXPECT_EQ(back.benches[0].rows, s.benches[0].rows);
  EXPECT_EQ(back.ToJson(), json);

  // A report whose mode disagrees with the suite is rejected.
  BenchSuite mixed = s;
  mixed.mode = "full";
  err.clear();
  EXPECT_FALSE(ParseBenchSuite(mixed.ToJson(), &back, &err));
  EXPECT_NE(err.find("mode"), std::string::npos) << err;

  // Duplicate bench ids are rejected (merging the same bench twice).
  BenchSuite dup = s;
  dup.benches.push_back(MakeReport());
  err.clear();
  EXPECT_FALSE(ParseBenchSuite(dup.ToJson(), &back, &err));
  EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
}

TEST(BenchReportTest, KnownBenchIdsCoverTheSuite) {
  std::vector<std::string> ids = KnownBenchIds();
  EXPECT_EQ(ids.size(), 25u);
  for (const char* expected :
       {"fig05_delay_small", "table1_defaults", "micro_benchmarks",
        "ext_recovery_overhead", "ext_worker_scaling",
        "ext_elastic_scaling", "ext_delay_telemetry",
        "ext_record_replay"}) {
    bool found = false;
    for (const std::string& id : ids) found = found || id == expected;
    EXPECT_TRUE(found) << expected;
  }
}

TEST(JsonNumberTest, IntegersAndDoublesRoundTrip) {
  EXPECT_EQ(JsonNumber(0), "0");
  EXPECT_EQ(JsonNumber(123456), "123456");
  EXPECT_EQ(JsonNumber(-42), "-42");
  // Doubles re-parse to the exact same value (shortest-precision probing).
  for (double d : {0.25, 1.0 / 3.0, 3.846567, 1e-9, 6.02e23}) {
    JsonValue v;
    std::string err;
    ASSERT_TRUE(ParseJson(JsonNumber(d), &v, &err)) << err;
    EXPECT_EQ(v.number, d);
  }
}

}  // namespace
}  // namespace sjoin::obs
