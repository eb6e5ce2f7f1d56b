// The handle instrumented code holds: one Recorder bundles the metrics
// registry, an optional event log (the first-N trace prefix and the
// last-N flight ring in one object), and an optional sim-time time-series
// sampler. Each instrument has one job: counters count, spans hold
// distributions, time series hold trajectories, and the event log
// explains single events.
//
// Wiring pattern: every instrumented module takes an `obs::Recorder*`
// (default nullptr) through its options struct or constructor. Call sites
// go through the free helpers below, which are `if constexpr`-gated on
// obs::kEnabled — with -DRCBR_OBS=OFF the whole layer still type-checks
// but compiles to nothing.
//
// Threading: a Recorder is thread-safe throughout, but the intended use is
// one Recorder per sweep point (see runtime/sweep.h), used by whichever
// single worker runs that point and merged in point-index order
// afterwards; that is what keeps snapshots, traces, time series, and
// flight dumps deterministic.
#pragma once

#include <cstdint>
#include <optional>

#include "obs/enabled.h"
#include "obs/event_trace.h"
#include "obs/metrics.h"
#include "obs/time_series.h"

namespace rcbr::obs {

/// Which optional subsystems a Recorder carries. All default to off, so
/// `Recorder{}` stays the cheap metrics-only bundle.
struct RecorderOptions {
  /// Event-log head (trace prefix) size; 0 = no head.
  std::size_t event_capacity = 0;
  /// Time-series window width in sim seconds; 0 = no sampler.
  double ts_window_s = 0;
  /// Event-log ring (flight recorder) size; 0 = no ring.
  std::size_t flight_capacity = 0;
};

class Recorder {
 public:
  explicit Recorder(const RecorderOptions& options = {}) {
    if (options.event_capacity > 0 || options.flight_capacity > 0) {
      events_.emplace(options.event_capacity, options.flight_capacity);
    }
    if (options.ts_window_s > 0) time_series_.emplace(options.ts_window_s);
  }

  MetricsRegistry& metrics() { return metrics_; }

  /// The event log, or nullptr when both event_capacity and
  /// flight_capacity were 0.
  EventLog* events() { return events_ ? &*events_ : nullptr; }
  const EventLog* events() const { return events_ ? &*events_ : nullptr; }

  /// The time-series sampler, or nullptr when ts_window_s was 0.
  TimeSeriesSampler* time_series() {
    return time_series_ ? &*time_series_ : nullptr;
  }
  const TimeSeriesSampler* time_series() const {
    return time_series_ ? &*time_series_ : nullptr;
  }

  void Emit(const TraceEvent& event) {
    if (events_) events_->Record(event);
  }

 private:
  MetricsRegistry metrics_;
  std::optional<EventLog> events_;
  std::optional<TimeSeriesSampler> time_series_;
};

// ---- Call-site helpers -------------------------------------------------
// All of these accept a possibly-null recorder and vanish entirely under
// RCBR_OBS=OFF. Hot loops that update one counter many times should
// resolve it once with FindCounter (FindSeries, FindSpan) and test the
// pointer.

/// The counter named `name`, or nullptr when recording is off.
inline Counter* FindCounter(Recorder* recorder, const char* name) {
  if constexpr (kEnabled) {
    if (recorder != nullptr) return &recorder->metrics().GetCounter(name);
  }
  (void)recorder;
  (void)name;
  return nullptr;
}

inline void Count(Recorder* recorder, const char* name,
                  std::int64_t n = 1) {
  if constexpr (kEnabled) {
    if (recorder != nullptr) recorder->metrics().GetCounter(name).Add(n);
  }
}

/// The time series named `name`, or nullptr when the recorder has no
/// sampler (no --ts-dir, recording off). Sampling through the resolved
/// handle costs one branch when telemetry is disabled.
inline TimeSeries* FindSeries(Recorder* recorder, const char* name) {
  if constexpr (kEnabled) {
    if (recorder != nullptr && recorder->time_series() != nullptr) {
      return &recorder->time_series()->GetSeries(name);
    }
  }
  (void)recorder;
  (void)name;
  return nullptr;
}

/// The span histogram named `name`, or nullptr when recording is off.
inline SpanHistogram* FindSpan(Recorder* recorder, const char* name) {
  if constexpr (kEnabled) {
    if (recorder != nullptr) return &recorder->metrics().GetSpan(name);
  }
  (void)recorder;
  (void)name;
  return nullptr;
}

inline void Emit(Recorder* recorder, const TraceEvent& event) {
  if constexpr (kEnabled) {
    if (recorder != nullptr) recorder->Emit(event);
  }
}

/// Emit with the common shape spelled out, so call sites stay one line:
/// obs::Emit(r, t, EventKind::kRenegDeny, vci, {"old_bps", o}, {"new_bps", n});
inline void Emit(Recorder* recorder, double time, EventKind kind,
                 std::uint64_t id, TraceEvent::Field f0 = {},
                 TraceEvent::Field f1 = {}, TraceEvent::Field f2 = {},
                 TraceEvent::Field f3 = {}) {
  if constexpr (kEnabled) {
    if (recorder != nullptr) {
      recorder->Emit({time, kind, id, {f0, f1, f2, f3}});
    }
  }
}

/// Freezes the event log's ring into a postmortem dump attributed to the
/// given trigger event (also emitted into the dump header); a no-op
/// without a ring.
inline void TriggerFlight(Recorder* recorder, double time, EventKind kind,
                          std::uint64_t id, TraceEvent::Field f0 = {},
                          TraceEvent::Field f1 = {},
                          TraceEvent::Field f2 = {},
                          TraceEvent::Field f3 = {}) {
  if constexpr (kEnabled) {
    if (recorder != nullptr && recorder->events() != nullptr) {
      recorder->events()->Trigger({time, kind, id, {f0, f1, f2, f3}});
    }
  }
}

}  // namespace rcbr::obs
