#include "runtime/sweep.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>

#include "runtime/thread_pool.h"
#include "util/error.h"

namespace rcbr::runtime {

SweepResult RunSweep(const SweepSpec& spec, const PointFn& fn,
                     const SweepOptions& options) {
  for (const std::vector<double>& point : spec.points) {
    Require(point.size() == spec.parameters.size(),
            "RunSweep: point arity != parameter count");
  }

  SweepResult result;
  result.spec = spec;
  result.base_seed = options.base_seed;
  result.threads =
      options.threads == 0 ? HardwareThreads() : options.threads;
  result.points.resize(spec.points.size());

  // One recorder per point: each point fn observes only through its own
  // recorder, and the merge below walks them in index order — the same
  // contract that makes the metric values thread-count-invariant.
  std::vector<std::unique_ptr<obs::Recorder>> recorders;
  if constexpr (obs::kEnabled) {
    recorders.reserve(spec.points.size());
    for (std::size_t i = 0; i < spec.points.size(); ++i) {
      recorders.push_back(std::make_unique<obs::Recorder>(options.recorder));
    }
  }

  std::atomic<std::size_t> completed{0};
  const double sweep_start = NowSeconds();
  ParallelFor(spec.points.size(), result.threads, [&](std::size_t i) {
    SweepContext context;
    context.index = i;
    context.parameters = spec.points[i];
    context.seed = DeriveStreamSeed(options.base_seed, i);
    if constexpr (obs::kEnabled) context.recorder = recorders[i].get();

    const double point_start = NowSeconds();
    std::vector<double> metrics = fn(context);
    const double elapsed = NowSeconds() - point_start;
    Require(metrics.size() == spec.metrics.size(),
            "RunSweep: point returned wrong metric count");

    PointResult& point = result.points[i];
    point.parameters = spec.points[i];
    point.metrics = std::move(metrics);
    point.seed = context.seed;
    point.seconds = elapsed;

    if (options.progress) {
      const std::size_t done =
          completed.fetch_add(1, std::memory_order_relaxed) + 1;
      std::fprintf(stderr, "# progress: %s %zu/%zu (point %zu, %.3f s)\n",
                   spec.name.c_str(), done, spec.points.size(), i, elapsed);
    }
  });
  result.total_seconds = NowSeconds() - sweep_start;

  if constexpr (obs::kEnabled) {
    std::int64_t trace_dropped = 0;
    std::int64_t truncated_points = 0;
    for (std::size_t i = 0; i < recorders.size(); ++i) {
      result.metrics.Merge(recorders[i]->metrics().Snapshot());
      const obs::EventLog* log = recorders[i]->events();
      if (log != nullptr) {
        PointEvents events{i, log->Head(), log->dropped()};
        if (events.dropped > 0) {
          trace_dropped += events.dropped;
          ++truncated_points;
        }
        if (!events.events.empty() || events.dropped > 0) {
          result.events.push_back(std::move(events));
        }
        PointFlight dumps{i, log->Dumps(), log->suppressed()};
        if (!dumps.dumps.empty() || dumps.suppressed > 0) {
          result.flight.push_back(std::move(dumps));
        }
      }
      const obs::TimeSeriesSampler* sampler = recorders[i]->time_series();
      if (sampler != nullptr) {
        PointSeries series{i, sampler->Snapshot()};
        if (!series.series.empty()) {
          result.series.push_back(std::move(series));
        }
      }
    }
    // Truncated traces must never be read as complete: surface the drop
    // totals next to the domain counters in obs_metrics.
    if (trace_dropped > 0) {
      result.metrics.counters["obs.trace_dropped_events"] += trace_dropped;
      result.metrics.counters["obs.trace_truncated_points"] +=
          truncated_points;
    }
  }
  return result;
}

std::vector<std::vector<double>> GridPoints(
    const std::vector<std::vector<double>>& axes) {
  std::vector<std::vector<double>> points = {{}};
  for (const std::vector<double>& axis : axes) {
    std::vector<std::vector<double>> extended;
    extended.reserve(points.size() * axis.size());
    for (const std::vector<double>& prefix : points) {
      for (double value : axis) {
        std::vector<double> row = prefix;
        row.push_back(value);
        extended.push_back(std::move(row));
      }
    }
    points = std::move(extended);
  }
  return points;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace rcbr::runtime
