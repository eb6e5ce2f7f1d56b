// The handle instrumented code holds: one Recorder bundles the metrics
// registry, an optional event tracer, the sim-time time-series sampler,
// the flight recorder, and the wall-clock profile.
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
#include <string>
#include <vector>

#include "obs/enabled.h"
#include "obs/event_trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "obs/time_series.h"

namespace rcbr::obs {

inline constexpr std::size_t kDefaultEventCapacity = 4096;

/// Which optional subsystems a Recorder carries. All default to off, so
/// `Recorder{}` stays the cheap metrics+profile bundle.
struct RecorderOptions {
  /// Trace buffer size; 0 = no tracer.
  std::size_t event_capacity = 0;
  /// Time-series window width in sim seconds; 0 = no sampler.
  double ts_window_s = 0;
  /// Span sampling: 1 = every span, N = every Nth, 0 = spans off.
  std::int64_t span_sample = 1;
  /// Flight-recorder ring size; 0 = no flight recorder.
  std::size_t flight_capacity = 0;
  /// Postmortem dumps kept before triggers are merely counted.
  std::size_t flight_max_dumps = FlightRecorder::kDefaultMaxDumps;
};

class Recorder {
 public:
  /// `event_capacity` = 0 builds a recorder without a tracer (metrics and
  /// profile only) — event Emit calls become drops without a buffer.
  explicit Recorder(std::size_t event_capacity = 0) {
    if (event_capacity > 0) tracer_.emplace(event_capacity);
  }

  explicit Recorder(const RecorderOptions& options)
      : span_sample_(options.span_sample) {
    if (options.event_capacity > 0) tracer_.emplace(options.event_capacity);
    if (options.ts_window_s > 0) time_series_.emplace(options.ts_window_s);
    if (options.flight_capacity > 0) {
      flight_.emplace(options.flight_capacity, options.flight_max_dumps);
    }
  }

  MetricsRegistry& metrics() { return metrics_; }
  ProfileRegistry& profile() { return profile_; }

  /// The tracer, or nullptr when constructed with event_capacity 0.
  EventTracer* tracer() { return tracer_ ? &*tracer_ : nullptr; }
  const EventTracer* tracer() const { return tracer_ ? &*tracer_ : nullptr; }

  /// The time-series sampler, or nullptr when ts_window_s was 0.
  TimeSeriesSampler* time_series() {
    return time_series_ ? &*time_series_ : nullptr;
  }
  const TimeSeriesSampler* time_series() const {
    return time_series_ ? &*time_series_ : nullptr;
  }

  /// The flight recorder, or nullptr when flight_capacity was 0.
  FlightRecorder* flight() { return flight_ ? &*flight_ : nullptr; }
  const FlightRecorder* flight() const {
    return flight_ ? &*flight_ : nullptr;
  }

  std::int64_t span_sample() const { return span_sample_; }

  void Emit(const TraceEvent& event) {
    if (tracer_) tracer_->Record(event);
    if (flight_) flight_->Record(event);
  }

 private:
  MetricsRegistry metrics_;
  ProfileRegistry profile_;
  std::optional<EventTracer> tracer_;
  std::optional<TimeSeriesSampler> time_series_;
  std::optional<FlightRecorder> flight_;
  std::int64_t span_sample_ = 1;
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

inline void SetGauge(Recorder* recorder, const char* name, double value) {
  if constexpr (kEnabled) {
    if (recorder != nullptr) recorder->metrics().GetGauge(name).Set(value);
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

inline void Sample(Recorder* recorder, const char* name, double t,
                   double value) {
  if constexpr (kEnabled) {
    if (recorder != nullptr && recorder->time_series() != nullptr) {
      recorder->time_series()->GetSeries(name).Sample(t, value);
    }
  }
}

/// The span histogram named `name` (carrying the recorder's sampling
/// knob), or nullptr when spans are off (--span-sample 0, recording off).
inline SpanHistogram* FindSpan(Recorder* recorder, const char* name) {
  if constexpr (kEnabled) {
    if (recorder != nullptr && recorder->span_sample() > 0) {
      return &recorder->metrics().GetSpan(name, recorder->span_sample());
    }
  }
  (void)recorder;
  (void)name;
  return nullptr;
}

inline void RecordSpan(Recorder* recorder, const char* name,
                       double seconds) {
  if constexpr (kEnabled) {
    if (recorder != nullptr && recorder->span_sample() > 0) {
      recorder->metrics().GetSpan(name, recorder->span_sample())
          .Record(seconds);
    }
  }
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

/// Freezes the flight ring into a postmortem dump attributed to the
/// given trigger event (also emitted into the dump header).
inline void TriggerFlight(Recorder* recorder, double time, EventKind kind,
                          std::uint64_t id, TraceEvent::Field f0 = {},
                          TraceEvent::Field f1 = {},
                          TraceEvent::Field f2 = {},
                          TraceEvent::Field f3 = {}) {
  if constexpr (kEnabled) {
    if (recorder != nullptr && recorder->flight() != nullptr) {
      recorder->flight()->Trigger({time, kind, id, {f0, f1, f2, f3}});
    }
  }
}

}  // namespace rcbr::obs
