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
      registry.GetSpan("s").Record(1.0);
    });
  }
  for (auto& w : workers) w.join();
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("shared"), kThreads * kPerThread);
  EXPECT_EQ(snap.spans.at("s").count, kThreads);
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
  EXPECT_EQ(merged.spans.at("h").count, 4);
}

TEST(MetricsSnapshot, ToJsonIsSortedAndOmitsEmptySections) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.Snapshot().ToJson(), "{}");

  registry.GetCounter("zebra").Add(1);
  registry.GetCounter("alpha").Add(2);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_EQ(json.find("\"spans\""), std::string::npos);
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zebra\""));
}

TEST(MetricsSnapshot, EqualSnapshotsSerializeIdentically) {
  auto build = [] {
    MetricsRegistry registry;
    registry.GetCounter("c").Add(7);
    registry.GetSpan("s").Record(0.125);
    return registry.Snapshot();
  };
  EXPECT_EQ(build().ToJson("  "), build().ToJson("  "));
}

TEST(SpanHistogram, SampleEveryOneRecordsEverything) {
  MetricsRegistry registry;
  SpanHistogram& span = registry.GetSpan("s");
  for (int i = 0; i < 5; ++i) span.Record(2.0);
  const LogHistogramValue value = registry.Snapshot().spans.at("s");
  EXPECT_EQ(value.count, 5);
  EXPECT_EQ(value.min, 2.0);
  EXPECT_EQ(value.max, 2.0);
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
  const LogHistogramValue& latency = merged.spans.at("latency");
  EXPECT_EQ(latency.count, 2);
  EXPECT_EQ(latency.min, 0.5);
  EXPECT_EQ(latency.max, 8.0);

  const std::string json = merged.ToJson();
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

}  // namespace
}  // namespace rcbr::obs
