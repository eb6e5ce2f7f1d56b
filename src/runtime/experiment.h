// Command-line harness shared by the figure/table binaries (one binary per
// reproduced experiment; see DESIGN.md experiment index).
//
// Every harness accepts:
//   --frames=N     length of the synthetic trace (default varies)
//   --seed=S       base seed (default 20260706); sweep point i runs on the
//                  derived stream (S, i), so results do not depend on the
//                  thread count
//   --threads=N    worker threads (default: the CPUs this process may use)
//   --quick        shrink the workload for smoke runs
//   --json-dir=D   directory for the BENCH_<name>.json output (default ".")
//   --no-json      skip writing the JSON document
//   --trace-dir=D  capture domain events and write TRACE_<name>.jsonl to D
//   --trace-events=N  events kept per point with --trace-dir (default
//                  4096; later events are counted as dropped)
//   --ts-dir=D     sample sim-time time series, write TS_<name>.jsonl to D
//   --ts-window=W  time-series window width in sim seconds (default 1.0)
//   --flight-events=N  arm an N-event flight recorder per point and write
//                  FLIGHT_<name>.jsonl postmortems on faults/overflows
//   --ladder-rungs=1,0.7,...  multi-resolution contract: comma-separated
//                  rate scales, best first (rung 0 must be 1), finite,
//                  positive and non-increasing
//   --ladder-utilities=1,0.8,...  per-rung delivered utility per second
//                  (finite, non-negative, same length as --ladder-rungs;
//                  default: the rung scales)
//   --progress     report per-point completion on stderr
// and emits both the classic self-describing stdout table and
// BENCH_<name>.json.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/sweep.h"

namespace rcbr::runtime {

struct ExperimentArgs {
  std::int64_t frames = 0;  // 0 = use the harness default
  std::uint64_t seed = 20260706;
  bool quick = false;
  std::size_t threads = 0;  // 0 = HardwareThreads()
  bool write_json = true;
  std::string json_dir = ".";
  /// Nonempty enables event tracing; TRACE_<name>.jsonl lands here.
  std::string trace_dir;
  /// Per-point event buffer when tracing (--trace-events=N to override).
  std::size_t trace_events = 4096;
  /// Nonempty enables the sim-time sampler; TS_<name>.jsonl lands here.
  std::string ts_dir;
  /// Time-series window width in sim seconds (only used with --ts-dir).
  double ts_window = 1.0;
  /// Nonzero arms a flight recorder of this many events per point;
  /// FLIGHT_<name>.jsonl lands in --trace-dir (or --json-dir without one).
  std::size_t flight_events = 0;
  /// Multi-resolution contract (--ladder-rungs): rate scales best-first,
  /// validated at parse time (rung 0 == 1, finite, positive,
  /// non-increasing). Empty = the harness's own default contract.
  std::vector<double> ladder_rungs;
  /// Per-rung utilities (--ladder-utilities); empty = use the scales.
  std::vector<double> ladder_utilities;
  bool progress = false;
};

/// Parses the shared flags strictly: unknown flags, positional arguments,
/// non-numeric or negative values for --frames/--seed/--threads/
/// --trace-events/--flight-events, a --ts-window that is not a finite
/// positive number, an explicitly requested --json-dir/--trace-dir/
/// --ts-dir that is not a writable directory, and an invalid ladder (empty list, NaN/negative entries, a first rung that
/// is not 1, increasing rung scales, or mismatched
/// --ladder-rungs/--ladder-utilities lengths) all throw InvalidArgument
/// with a message naming the offending flag.
ExperimentArgs ParseExperimentArgs(int argc, char** argv);

/// ParseExperimentArgs, but prints the error plus a usage summary to
/// stderr and exits with status 2 instead of throwing — what every
/// figure/table main() wants.
ExperimentArgs ParseExperimentArgsOrExit(int argc, char** argv);

/// The sweep options (seed, threads) implied by the parsed flags.
SweepOptions ToSweepOptions(const ExperimentArgs& args);

/// Runs the sweep, prints the table, and (unless --no-json) writes
/// BENCH_<spec.name>.json. Returns the full result for callers that want
/// to post-process.
SweepResult RunExperiment(const SweepSpec& spec, const PointFn& fn,
                          const ExperimentArgs& args);

}  // namespace rcbr::runtime
