#include "obs/metrics.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace rcbr::obs {
namespace {

TEST(Counter, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(Counter, ParallelIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Gauge, TracksLastSumAndExtrema) {
  Gauge g;
  g.Set(3.0);
  g.Set(-1.0);
  g.Set(2.0);
  const GaugeValue v = g.value();
  EXPECT_EQ(v.count, 3);
  EXPECT_DOUBLE_EQ(v.last, 2.0);
  EXPECT_DOUBLE_EQ(v.sum, 4.0);
  EXPECT_DOUBLE_EQ(v.min, -1.0);
  EXPECT_DOUBLE_EQ(v.max, 3.0);
}

TEST(GaugeValue, MergeFoldsSequentially) {
  GaugeValue a;
  a.Observe(1.0);
  a.Observe(5.0);
  GaugeValue b;
  b.Observe(-2.0);
  a.Merge(b);
  EXPECT_EQ(a.count, 3);
  EXPECT_DOUBLE_EQ(a.last, -2.0);  // b's observations came after a's
  EXPECT_DOUBLE_EQ(a.sum, 4.0);
  EXPECT_DOUBLE_EQ(a.min, -2.0);
  EXPECT_DOUBLE_EQ(a.max, 5.0);
}

TEST(GaugeValue, MergeOfEmptyIsNoop) {
  GaugeValue a;
  a.Observe(7.0);
  a.Merge(GaugeValue{});
  EXPECT_EQ(a.count, 1);
  EXPECT_DOUBLE_EQ(a.last, 7.0);
}

TEST(MetricsRegistry, InstrumentsAreStableAcrossLookups) {
  MetricsRegistry registry;
  Counter& c1 = registry.GetCounter("x");
  Counter& c2 = registry.GetCounter("x");
  EXPECT_EQ(&c1, &c2);
  c1.Add(3);
  EXPECT_EQ(registry.Snapshot().counters.at("x"), 3);
}

TEST(MetricsRegistry, ConcurrentRegistrationAndUpdate) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      Counter& c = registry.GetCounter("shared");
      for (int i = 0; i < kPerThread; ++i) c.Add();
      registry.GetGauge("g").Set(1.0);
    });
  }
  for (auto& w : workers) w.join();
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("shared"), kThreads * kPerThread);
  EXPECT_EQ(snap.gauges.at("g").count, kThreads);
}

TEST(MetricsSnapshot, MergeAddsCountersAndHistograms) {
  MetricsRegistry a;
  a.GetCounter("c").Add(1);
  a.GetSpan("h").Record(0.5);
  MetricsRegistry b;
  b.GetCounter("c").Add(2);
  b.GetCounter("only_b").Add(5);
  for (int i = 0; i < 3; ++i) b.GetSpan("h").Record(1.0);

  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.counters.at("c"), 3);
  EXPECT_EQ(merged.counters.at("only_b"), 5);
  EXPECT_EQ(merged.spans.at("h").value.count, 4);
  EXPECT_EQ(merged.spans.at("h").seen, 4);
}

TEST(MetricsSnapshot, ToJsonIsSortedAndOmitsEmptySections) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.Snapshot().ToJson(), "{}");

  registry.GetCounter("zebra").Add(1);
  registry.GetCounter("alpha").Add(2);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_EQ(json.find("\"gauges\""), std::string::npos);
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zebra\""));
}

TEST(MetricsSnapshot, EqualSnapshotsSerializeIdentically) {
  auto build = [] {
    MetricsRegistry registry;
    registry.GetCounter("c").Add(7);
    registry.GetGauge("g").Set(0.25);
    registry.GetSpan("s").Record(0.125);
    return registry.Snapshot();
  };
  EXPECT_EQ(build().ToJson("  "), build().ToJson("  "));
}

TEST(SpanHistogram, SamplesFirstThenEveryNth) {
  MetricsRegistry registry;
  SpanHistogram& span = registry.GetSpan("s", /*sample_every=*/3);
  for (int i = 0; i < 7; ++i) span.Record(static_cast<double>(i + 1));
  const SpanValue value = registry.Snapshot().spans.at("s");
  // Records 1..7 arrive; samples 1, 4, and 7 land in the histogram.
  EXPECT_EQ(value.seen, 7);
  EXPECT_EQ(value.value.count, 3);
  EXPECT_EQ(value.value.min, 1.0);
  EXPECT_EQ(value.value.max, 7.0);
}

TEST(SpanHistogram, SampleEveryOneRecordsEverything) {
  MetricsRegistry registry;
  SpanHistogram& span = registry.GetSpan("s");
  for (int i = 0; i < 5; ++i) span.Record(2.0);
  const SpanValue value = registry.Snapshot().spans.at("s");
  EXPECT_EQ(value.seen, 5);
  EXPECT_EQ(value.value.count, 5);
}

TEST(MetricsSnapshot, SpansMergeAndOmitUntouched) {
  MetricsRegistry a;
  a.GetSpan("latency").Record(0.5);
  a.GetSpan("never_recorded");
  MetricsRegistry b;
  b.GetSpan("latency").Record(8.0);

  MetricsSnapshot merged = a.Snapshot();
  EXPECT_EQ(merged.spans.count("never_recorded"), 0u);
  merged.Merge(b.Snapshot());
  const SpanValue& latency = merged.spans.at("latency");
  EXPECT_EQ(latency.seen, 2);
  EXPECT_EQ(latency.value.count, 2);
  EXPECT_EQ(latency.value.min, 0.5);
  EXPECT_EQ(latency.value.max, 8.0);

  const std::string json = merged.ToJson();
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

}  // namespace
}  // namespace rcbr::obs
