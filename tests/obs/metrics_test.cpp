#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/cluster_view.h"

namespace sjoin::obs {
namespace {

TEST(MetricsRegistryTest, CounterHandleIsStableAndAccumulates) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("tuples");
  c.Inc();
  c.Add(4);
  EXPECT_EQ(reg.CounterValue("tuples"), 5u);
  // Second lookup returns the same instance.
  EXPECT_EQ(&reg.GetCounter("tuples"), &c);
}

TEST(MetricsRegistryTest, LabelsSeparateInstances) {
  MetricsRegistry reg;
  reg.GetCounter("bytes", {{"peer", "1"}}).Add(10);
  reg.GetCounter("bytes", {{"peer", "2"}}).Add(20);
  EXPECT_EQ(reg.CounterValue("bytes", {{"peer", "1"}}), 10u);
  EXPECT_EQ(reg.CounterValue("bytes", {{"peer", "2"}}), 20u);
  EXPECT_EQ(reg.CounterValue("bytes"), 0u);  // unlabeled never registered
}

TEST(MetricsRegistryTest, CanonicalLabelsSortByKey) {
  EXPECT_EQ(CanonicalLabels({{"b", "2"}, {"a", "1"}}), "a=1,b=2");
  EXPECT_EQ(CanonicalLabels({}), "");
  // Order of registration does not matter: both spellings hit one instance.
  MetricsRegistry reg;
  reg.GetCounter("x", {{"b", "2"}, {"a", "1"}}).Inc();
  EXPECT_EQ(reg.CounterValue("x", {{"a", "1"}, {"b", "2"}}), 1u);
}

TEST(MetricsRegistryTest, GaugeLastWriteWins) {
  MetricsRegistry reg;
  Gauge& g = reg.GetGauge("occupancy");
  g.Set(0.25);
  g.Set(0.75);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("occupancy"), 0.75);
}

TEST(MetricsRegistryTest, HistogramSnapshots) {
  MetricsRegistry reg;
  HistogramMetric& h = reg.GetHistogram("delay", {10.0, 100.0});
  h.Observe(5.0);
  h.Observe(50.0);
  h.Observe(5000.0);
  Histogram snap = h.Snapshot();
  EXPECT_EQ(snap.TotalCount(), 3u);
  EXPECT_EQ(snap.CountAt(0), 1u);
  EXPECT_EQ(snap.CountAt(1), 1u);
  EXPECT_EQ(snap.CountAt(2), 1u);
}

TEST(MetricsRegistryTest, CollectIsSortedByNameThenLabels) {
  MetricsRegistry reg;
  reg.GetCounter("zeta").Inc();
  reg.GetCounter("alpha", {{"k", "2"}}).Inc();
  reg.GetCounter("alpha", {{"k", "1"}}).Inc();
  reg.GetGauge("mid").Set(1.0);
  std::vector<SnapshotEntry> snap = reg.Collect();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].name, "alpha");
  EXPECT_EQ(snap[0].labels, "k=1");
  EXPECT_EQ(snap[1].name, "alpha");
  EXPECT_EQ(snap[1].labels, "k=2");
  EXPECT_EQ(snap[2].name, "mid");
  EXPECT_EQ(snap[3].name, "zeta");
}

TEST(MetricsRegistryTest, VolatileFamiliesAreFilterable) {
  MetricsRegistry reg;
  reg.GetCounter("stable_c").Inc();
  reg.GetCounter("net_bytes", {}, Stability::kVolatile).Add(100);
  std::vector<SnapshotEntry> all = reg.Collect(/*include_volatile=*/true);
  std::vector<SnapshotEntry> stable = reg.Collect(/*include_volatile=*/false);
  EXPECT_EQ(all.size(), 2u);
  ASSERT_EQ(stable.size(), 1u);
  EXPECT_EQ(stable[0].name, "stable_c");
  // Same filter applies to the wire-able sample flattening.
  std::vector<MetricSample> samples = CollectSamples(reg, false);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "stable_c");
  EXPECT_EQ(samples[0].counter, 1u);
}

TEST(MetricsRegistryTest, CollectSamplesCarriesHistogramBuckets) {
  MetricsRegistry reg;
  reg.GetCounter("c").Inc();
  HistogramMetric& h = reg.GetHistogram("h", {1.0, 2.0});
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(99.0);
  std::vector<MetricSample> samples = CollectSamples(reg, true);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "c");
  const MetricSample& hs = samples[1];
  EXPECT_EQ(hs.name, "h");
  EXPECT_EQ(hs.kind, MetricKind::kHistogram);
  ASSERT_EQ(hs.hist_bounds.size(), 2u);
  ASSERT_EQ(hs.hist_counts.size(), 3u);  // bounds + overflow bucket
  EXPECT_EQ(hs.hist_counts[0], 1u);
  EXPECT_EQ(hs.hist_counts[1], 1u);
  EXPECT_EQ(hs.hist_counts[2], 1u);
  EXPECT_EQ(hs.hist_total, 3u);
}

TEST(MetricsRegistryTest, ConcurrentBumpsAreLossless) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("hot");
  constexpr int kThreads = 8;
  constexpr int kBumps = 10000;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&c] {
      for (int j = 0; j < kBumps; ++j) c.Inc();
    });
  }
  for (std::thread& t : ts) t.join();
  EXPECT_EQ(c.Value(), static_cast<std::uint64_t>(kThreads) * kBumps);
}

TEST(ClusterMetricsViewTest, KeyedByStampNotArrival) {
  ClusterMetricsView view;
  // Epoch 7 arrives before epoch 6 (reordered in flight): both retrievable
  // under their own stamps.
  view.Record(3, 7, {{"tuples", "", MetricKind::kCounter, 70, 0.0, {}, {}, 0}});
  view.Record(3, 6, {{"tuples", "", MetricKind::kCounter, 60, 0.0, {}, {}, 0}});
  EXPECT_EQ(view.CounterAt(3, 6, "tuples"), 60u);
  EXPECT_EQ(view.CounterAt(3, 7, "tuples"), 70u);
  EXPECT_EQ(view.LatestEpoch(3), 7);
  EXPECT_EQ(view.CounterAt(3, 5, "tuples"), 0u);  // absent -> 0
  EXPECT_EQ(view.Get(2, 6), nullptr);
  EXPECT_EQ(view.FrameCount(), 2u);
  std::vector<std::int64_t> epochs = view.Epochs(3);
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[0], 6);
  EXPECT_EQ(epochs[1], 7);
}

TEST(ClusterMetricsViewTest, DuplicateFrameIsIdempotent) {
  ClusterMetricsView view;
  std::vector<MetricSample> frame{
      {"c", "", MetricKind::kCounter, 5, 0.0, {}, {}, 0}};
  view.Record(1, 2, frame);
  view.Record(1, 2, frame);  // duplicated kMetrics delivery
  EXPECT_EQ(view.FrameCount(), 1u);
  EXPECT_EQ(view.CounterAt(1, 2, "c"), 5u);
}

TEST(ClusterMetricsViewTest, CsvExportIsDeterministic) {
  auto build = [] {
    ClusterMetricsView view;
    view.Record(2, 1,
                {{"a", "", MetricKind::kCounter, 1, 0.0, {}, {}, 0},
                 {"g", "", MetricKind::kGauge, 0, 0.5, {}, {}, 0}});
    view.Record(1, 1, {{"a", "", MetricKind::kCounter, 2, 0.0, {}, {}, 0}});
    return view.ExportCsv();
  };
  std::string csv = build();
  EXPECT_EQ(csv, build());
  EXPECT_NE(csv.find("a"), std::string::npos);
}

}  // namespace
}  // namespace sjoin::obs
