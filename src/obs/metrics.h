// Thread-safe metrics: counters, gauges, and span histograms.
//
// A MetricsRegistry is a named collection of instruments. Registration
// (name -> instrument) takes a mutex; the returned references are stable
// for the registry's lifetime, so hot loops resolve an instrument once and
// then update it lock-free (counters) or under a tiny uncontended mutex
// (gauges, spans).
//
// Determinism contract: instruments record only *simulation* quantities
// (event counts, sim-time values, occupancies) — never wall-clock time,
// which belongs to the ProfileRegistry (scoped_timer.h). A Snapshot is a
// plain value type; the experiment runtime takes one snapshot per sweep
// point and merges them in point-index order, which makes the merged
// snapshot bit-identical for every thread count (the same guarantee
// RunSweep makes for metric values).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/enabled.h"
#include "obs/log_histogram.h"

namespace rcbr::obs {

/// Monotonic integer count; lock-free.
class Counter {
 public:
  void Add(std::int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Aggregate view of a gauge's history: the last value set plus running
/// count / sum / extrema, so a merged snapshot can report min/max/mean
/// without keeping samples.
struct GaugeValue {
  std::int64_t count = 0;
  double last = 0;
  double sum = 0;
  double min = 0;
  double max = 0;

  void Observe(double x);
  /// Folds `other` in as if its observations came after this one's.
  void Merge(const GaugeValue& other);
};

/// A double-valued instrument: Set() records one observation.
class Gauge {
 public:
  void Set(double x);
  GaugeValue value() const;

 private:
  mutable std::mutex mutex_;
  GaugeValue value_;
};

/// Snapshot of a span histogram: the log-bucketed latency distribution
/// plus `seen`, the pre-sampling stream length (== value.count when the
/// span is unsampled, larger when --span-sample N keeps every Nth).
struct SpanValue {
  LogHistogramValue value;
  std::int64_t seen = 0;

  void Merge(const SpanValue& other) {
    value.Merge(other.value);
    seen += other.seen;
  }
};

/// Sim-time span durations recorded into a LogHistogram, with optional
/// 1-in-N sampling decided at registration (the recorder's --span-sample
/// knob). The first observation is always kept so short runs still show
/// a distribution.
class SpanHistogram {
 public:
  explicit SpanHistogram(std::int64_t sample_every)
      : sample_every_(sample_every > 0 ? sample_every : 1) {}

  void Record(double seconds);
  SpanValue value() const;

 private:
  const std::int64_t sample_every_;
  mutable std::mutex mutex_;
  LogHistogram histogram_;
  std::int64_t seen_ = 0;
};

/// Value-type snapshot of a whole registry. Maps are ordered by name, so
/// serialization is deterministic.
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, GaugeValue> gauges;
  std::map<std::string, SpanValue> spans;

  bool empty() const {
    return counters.empty() && gauges.empty() && spans.empty();
  }

  /// Folds `other` in: counters add, gauges fold sequentially, span
  /// buckets add. Callers needing determinism must merge in a fixed
  /// order (the sweep engine merges by point index).
  void Merge(const MetricsSnapshot& other);

  /// One JSON object {"counters": {...}, "gauges": {...}, "spans": {...}},
  /// each map sorted by name; sections that are empty are omitted.
  /// Deterministic for equal snapshots.
  std::string ToJson(const std::string& indent = "") const;
};

/// Named instruments, safe for concurrent registration and update.
class MetricsRegistry {
 public:
  /// Returns the counter named `name`, creating it on first use.
  Counter& GetCounter(const std::string& name);

  /// Returns the gauge named `name`, creating it on first use.
  Gauge& GetGauge(const std::string& name);

  /// Returns the span histogram named `name`, creating it with
  /// `sample_every` on first use (later calls ignore the argument —
  /// instruments sharing a name are resolved from one recorder, so the
  /// knob always matches).
  SpanHistogram& GetSpan(const std::string& name,
                         std::int64_t sample_every = 1);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<SpanHistogram>> spans_;
};

}  // namespace rcbr::obs
