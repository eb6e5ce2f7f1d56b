// Thread-safe metrics: counters and span histograms.
//
// A MetricsRegistry is a named collection of instruments. Registration
// (name -> instrument) takes a mutex; the returned references are stable
// for the registry's lifetime, so hot loops resolve an instrument once and
// then update it lock-free (counters) or under a tiny uncontended mutex
// (spans). Lookups by name take a string_view and build a std::string
// only when they register a new instrument, so a by-name update on a
// warm registry allocates nothing.
//
// Determinism contract: instruments record only *simulation* quantities
// (event counts, sim-time durations) — never wall-clock time. A Snapshot
// is a plain value type; the experiment runtime takes one snapshot per
// sweep point and merges them in point-index order, which makes the
// merged snapshot bit-identical for every thread count (the same
// guarantee RunSweep makes for metric values).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

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

/// Sim-time span durations recorded into a LogHistogram.
class SpanHistogram {
 public:
  void Record(double seconds);
  LogHistogramValue value() const;

 private:
  mutable std::mutex mutex_;
  LogHistogram histogram_;
};

/// Value-type snapshot of a whole registry. Maps are ordered by name, so
/// serialization is deterministic.
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, LogHistogramValue> spans;

  bool empty() const { return counters.empty() && spans.empty(); }

  /// Folds `other` in: counters add, span buckets add. Callers needing
  /// determinism must merge in a fixed order (the sweep engine merges by
  /// point index).
  void Merge(const MetricsSnapshot& other);

  /// One JSON object {"counters": {...}, "spans": {...}}, each map sorted
  /// by name; sections that are empty are omitted. Deterministic for
  /// equal snapshots.
  std::string ToJson(const std::string& indent = "") const;
};

/// Named instruments, safe for concurrent registration and update.
class MetricsRegistry {
 public:
  /// Returns the counter named `name`, creating it on first use.
  Counter& GetCounter(std::string_view name);

  /// Returns the span histogram named `name`, creating it on first use.
  SpanHistogram& GetSpan(std::string_view name);

  /// Counters as recorded; spans only once they hold an observation.
  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<SpanHistogram>, std::less<>> spans_;
};

}  // namespace rcbr::obs
