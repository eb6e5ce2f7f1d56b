// Sim-time time-series sampling.
//
// A TimeSeries aggregates samples into fixed-width windows on the *sim*
// clock (never wall clock — see docs/algorithms.md §7): window k covers
// [k*w, (k+1)*w). Each window keeps count/sum/min/max/last, which is
// enough to render utilization, occupancy, and per-window event rates
// without storing every sample. Storage is proportional to the number of
// touched windows, so a million-call run with a 1 s window stays small.
//
// Determinism contract: windows are identified by floor(t / w) — a pure
// function of the sample — and each sweep point owns a private sampler
// (see runtime::RunSweep), so the per-point window list is independent
// of thread count and the merged TS_<name>.jsonl is byte-identical
// across --threads.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rcbr::obs {

/// Aggregate of the samples that landed in one window.
struct SeriesWindow {
  std::int64_t window = 0;  ///< floor(t / window_s)
  std::int64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double last = 0;  ///< sample with the largest arrival order in the window

  void Observe(double value) {
    if (count == 0) {
      min = value;
      max = value;
    } else {
      if (value < min) min = value;
      if (value > max) max = value;
    }
    ++count;
    sum += value;
    last = value;
  }
};

/// One named series: windowed aggregates, appended mostly in time order.
/// Thread-safe; samplers are typically per-sweep-point so contention is
/// the single sim thread plus the merge.
class TimeSeries {
 public:
  explicit TimeSeries(double window_s) : window_s_(window_s) {}

  double window_s() const { return window_s_; }

  /// Folds `value` into the window containing sim time `t`. Samples
  /// usually arrive in nondecreasing time; an out-of-order sample walks
  /// back to (or inserts) its window, so correctness never depends on
  /// monotonicity.
  void Sample(double t, double value);

  /// Copies the window list (sorted by window index).
  std::vector<SeriesWindow> Windows() const;

 private:
  const double window_s_;
  mutable std::mutex mutex_;
  std::vector<SeriesWindow> windows_;
};

/// Snapshot of every registered series, suitable for point-order merge.
struct TimeSeriesSnapshot {
  double window_s = 0;
  std::map<std::string, std::vector<SeriesWindow>> series;

  bool empty() const { return series.empty(); }
};

/// Registry of named TimeSeries sharing one window width. Mirrors
/// MetricsRegistry: GetSeries returns a stable reference for resolve-once
/// handles on hot paths, and builds a std::string only on registration.
class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(double window_s) : window_s_(window_s) {}

  double window_s() const { return window_s_; }

  TimeSeries& GetSeries(std::string_view name);

  TimeSeriesSnapshot Snapshot() const;

 private:
  const double window_s_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<TimeSeries>, std::less<>> series_;
};

}  // namespace rcbr::obs
