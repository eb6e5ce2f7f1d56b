// Structured output for sweep results: the self-describing stdout table
// every harness has always printed, plus a machine-readable JSON document
// (BENCH_<name>.json) for the perf/results trajectory. The JSON schema is
// documented in DESIGN.md §runtime.
#pragma once

#include <string>
#include <vector>

#include "runtime/sweep.h"

namespace rcbr::runtime {

/// Prints `# key: value` metadata lines and column headers.
void PrintPreamble(const std::string& experiment,
                   const std::vector<std::string>& notes,
                   const std::vector<std::string>& columns);

/// Prints one row of right-aligned columns.
void PrintRow(const std::vector<double>& values);

/// The classic harness table: preamble (name, notes, parameter + metric
/// columns) followed by one row per point.
void PrintTable(const SweepResult& result);

/// Serializes a sweep result. Numbers are printed with round-trip
/// precision, so two results with bit-identical doubles serialize to
/// identical text.
std::string ToJson(const SweepResult& result);

/// ToJson with the run-provenance fields removed ("seconds",
/// "total_seconds", and "threads") — the portable part of a result,
/// identical across thread counts and hosts for a fixed seed.
std::string ToJsonWithoutTimings(const SweepResult& result);

/// Writes ToJson(result) to `<directory>/BENCH_<spec.name>.json` and
/// returns that path. Throws InvalidArgument if the file cannot be written.
std::string WriteJson(const SweepResult& result,
                      const std::string& directory = ".");

/// Serializes the captured trace events (see
/// SweepOptions::recorder.event_capacity) as JSONL, one event per line in
/// (point, seq) order, with a "trace_truncated" marker after any point
/// whose event-log head overflowed.
/// Deterministic: identical for every thread count.
std::string ToTraceJsonl(const SweepResult& result);

/// Writes ToTraceJsonl(result) to `<directory>/TRACE_<spec.name>.jsonl`
/// and returns that path. Throws InvalidArgument on write failure.
std::string WriteTrace(const SweepResult& result,
                       const std::string& directory = ".");

/// Serializes the windowed sim-time series (see
/// SweepOptions::recorder.ts_window_s) as JSONL, one window per line in
/// (point, series name, window) order:
///   {"point": P, "series": "...", "window": K, "t0": ..., "t1": ...,
///    "n": ..., "sum": ..., "min": ..., "max": ..., "last": ...}
/// Deterministic: identical for every thread count.
std::string ToTimeSeriesJsonl(const SweepResult& result);

/// Writes ToTimeSeriesJsonl(result) to `<directory>/TS_<spec.name>.jsonl`
/// and returns that path. Throws InvalidArgument on write failure.
std::string WriteTimeSeries(const SweepResult& result,
                            const std::string& directory = ".");

/// Serializes the flight postmortems (see
/// SweepOptions::recorder.flight_capacity) as JSONL in point order; empty
/// when no trigger fired. Deterministic: identical for every thread count.
std::string ToFlightJsonl(const SweepResult& result);

/// Writes ToFlightJsonl(result) to `<directory>/FLIGHT_<spec.name>.jsonl`
/// and returns that path (the file is written even when empty, so the
/// absence of postmortems is explicit). Throws InvalidArgument on write
/// failure.
std::string WriteFlight(const SweepResult& result,
                        const std::string& directory = ".");

}  // namespace rcbr::runtime
