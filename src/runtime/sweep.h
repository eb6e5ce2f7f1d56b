// Deterministic parallel parameter sweeps — the engine behind every
// figure/table binary in bench/ (see DESIGN.md §runtime).
//
// A sweep is a named list of points (rows of named parameter values) and a
// point function mapping each point to named metric values. Points are
// independent by contract, so RunSweep executes them concurrently; each
// point draws randomness only from an RNG stream derived from
// (base_seed, point_index), which makes the full SweepResult bit-identical
// for every thread count, including 1.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/recorder.h"
#include "util/rng.h"

namespace rcbr::runtime {

/// What a sweep computes: the experiment name (also the stem of the
/// BENCH_<name>.json output), free-form preamble notes, the names of the
/// per-point input parameters and output metrics, and one row of parameter
/// values per point.
struct SweepSpec {
  std::string name;
  std::vector<std::string> notes;
  std::vector<std::string> parameters;
  std::vector<std::string> metrics;
  std::vector<std::vector<double>> points;
};

/// Everything one sweep point may depend on. `seed` is derived from
/// (base_seed, index) — never from the executing thread or from wall
/// clock — which is the whole determinism contract.
struct SweepContext {
  std::size_t index = 0;
  std::vector<double> parameters;
  std::uint64_t seed = 0;

  /// This point's private observability recorder (nullptr when the build
  /// disables obs). Pass it into simulator/scheduler options; metrics and
  /// events land in SweepResult merged by point index, so the merged
  /// snapshot and trace are identical for every thread count.
  obs::Recorder* recorder = nullptr;

  /// The point's private RNG stream.
  Rng MakeRng() const { return Rng(seed); }

  /// An independent substream of this point's stream, for points that need
  /// several decorrelated streams (e.g. one per replication).
  Rng MakeRng(std::uint64_t substream) const {
    return Rng::Stream(seed, substream);
  }
};

/// Maps one point to its metric values; must return exactly
/// spec.metrics.size() values. Called concurrently — it must not mutate
/// shared state.
using PointFn = std::function<std::vector<double>(const SweepContext&)>;

struct PointResult {
  std::vector<double> parameters;
  std::vector<double> metrics;
  std::uint64_t seed = 0;
  /// Wall-clock seconds spent evaluating this point.
  double seconds = 0;
};

/// One point's event-log head (retained trace prefix), tagged with the
/// point index.
struct PointEvents {
  std::size_t point = 0;
  std::vector<obs::TraceEvent> events;
  std::int64_t dropped = 0;
};

/// One point's sim-time time series, tagged with the point index.
struct PointSeries {
  std::size_t point = 0;
  obs::TimeSeriesSnapshot series;
};

/// One point's event-log ring postmortems, tagged with the point index.
struct PointFlight {
  std::size_t point = 0;
  std::vector<obs::FlightDump> dumps;
  std::int64_t suppressed = 0;
};

struct SweepResult {
  SweepSpec spec;
  std::uint64_t base_seed = 0;
  /// Worker threads actually used.
  std::size_t threads = 0;
  /// Wall-clock seconds for the whole sweep.
  double total_seconds = 0;
  /// One entry per spec point, in spec order.
  std::vector<PointResult> points;

  /// Per-point metrics merged in point-index order — deterministic for
  /// every thread count. Empty when nothing was recorded (or obs is off).
  obs::MetricsSnapshot metrics;
  /// Trace events of every point that recorded any, in point order; only
  /// populated when SweepOptions::recorder.event_capacity > 0.
  std::vector<PointEvents> events;
  /// Windowed time series of every point that sampled any, in point
  /// order; only populated when SweepOptions::recorder.ts_window_s > 0.
  std::vector<PointSeries> series;
  /// Flight dumps of every point whose ring was triggered, in point
  /// order; only populated when
  /// SweepOptions::recorder.flight_capacity > 0.
  std::vector<PointFlight> flight;
};

struct SweepOptions {
  std::uint64_t base_seed = 20260706;
  /// Worker threads; 0 means HardwareThreads().
  std::size_t threads = 0;
  /// What each point's private recorder carries: the event-log head and
  /// ring and the time-series window. Metrics are always captured — they
  /// are cheap and bounded.
  obs::RecorderOptions recorder;
  /// Print per-point completion to stderr ("# progress: ..."); stdout
  /// (table/JSON) is never touched, so piping stays clean.
  bool progress = false;
};

/// Runs every point of `spec` through `fn`, up to options.threads at a
/// time. Point i receives seed DeriveStreamSeed(base_seed, i). Results are
/// returned in spec order regardless of completion order. Throws
/// InvalidArgument on malformed specs (ragged parameter rows, metric count
/// mismatches); exceptions from `fn` propagate.
SweepResult RunSweep(const SweepSpec& spec, const PointFn& fn,
                     const SweepOptions& options = {});

/// Cartesian product of parameter axes, rows ordered with the last axis
/// fastest — the nested-loop order the bench tables always used.
std::vector<std::vector<double>> GridPoints(
    const std::vector<std::vector<double>>& axes);

/// Monotonic wall clock, in seconds.
double NowSeconds();

}  // namespace rcbr::runtime
