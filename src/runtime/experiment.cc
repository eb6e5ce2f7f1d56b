#include "runtime/experiment.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "runtime/emit.h"
#include "util/error.h"
#include "util/flags.h"

namespace rcbr::runtime {

namespace {

/// Strict comma-separated doubles: every element must parse fully and be
/// finite; the list must be non-empty (a depth-0 ladder is an error, not
/// a default).
std::vector<double> ParseFlagDoubleList(const char* text, const char* flag) {
  Require(*text != '\0', std::string(flag) +
                             " expects a comma-separated list of numbers");
  std::vector<double> values;
  const char* cursor = text;
  while (true) {
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(cursor, &end);
    Require(end != cursor && (*end == '\0' || *end == ','),
            std::string(flag) + ": '" + text +
                "' is not a comma-separated list of numbers");
    Require(errno != ERANGE, std::string(flag) + ": '" + text +
                                 "' has an out-of-range element");
    Require(std::isfinite(value), std::string(flag) + ": '" + text +
                                      "' has a non-finite element");
    values.push_back(value);
    if (*end == '\0') break;
    cursor = end + 1;
    Require(*cursor != '\0', std::string(flag) + ": '" + text +
                                 "' has a trailing comma");
  }
  return values;
}

/// The ladder flags' cross-field contract (checked after the parse loop
/// so flag order on the command line does not matter).
void ValidateLadderFlags(const std::vector<double>& rungs,
                         const std::vector<double>& utilities) {
  if (!rungs.empty()) {
    Require(rungs.front() == 1.0,
            "--ladder-rungs: rung 0 must be the full ask (scale 1)");
    for (std::size_t r = 0; r < rungs.size(); ++r) {
      Require(rungs[r] > 0, "--ladder-rungs: scales must be positive");
      Require(rungs[r] <= 1.0, "--ladder-rungs: scales must be <= 1");
      Require(r == 0 || rungs[r] <= rungs[r - 1],
              "--ladder-rungs: scales must be non-increasing");
    }
  }
  if (!utilities.empty()) {
    Require(!rungs.empty(),
            "--ladder-utilities requires --ladder-rungs");
    Require(utilities.size() == rungs.size(),
            "--ladder-utilities must have one entry per rung");
    for (double u : utilities) {
      Require(u >= 0, "--ladder-utilities: utilities must be >= 0");
    }
  }
}

/// An explicitly requested output directory must exist and be writable
/// up front — failing at parse time beats running a long sweep and then
/// losing the report.
void RequireWritableDir(const std::string& dir, const char* flag) {
  namespace fs = std::filesystem;
  std::error_code ec;
  Require(fs::is_directory(dir, ec),
          std::string(flag) + ": '" + dir + "' is not a directory");
  Require(::access(dir.c_str(), W_OK) == 0,
          std::string(flag) + ": '" + dir + "' is not writable");
}

}  // namespace

ExperimentArgs ParseExperimentArgs(int argc, char** argv) {
  ExperimentArgs args;
  bool json_dir_set = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--frames=", 9) == 0) {
      args.frames = ParseFlagInt(arg + 9, "--frames");
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      args.seed = static_cast<std::uint64_t>(ParseFlagInt(arg + 7, "--seed"));
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      args.threads =
          static_cast<std::size_t>(ParseFlagInt(arg + 10, "--threads"));
    } else if (std::strcmp(arg, "--quick") == 0) {
      args.quick = true;
    } else if (std::strncmp(arg, "--json-dir=", 11) == 0) {
      args.json_dir = arg + 11;
      json_dir_set = true;
    } else if (std::strcmp(arg, "--no-json") == 0) {
      args.write_json = false;
    } else if (std::strncmp(arg, "--trace-dir=", 12) == 0) {
      args.trace_dir = arg + 12;
    } else if (std::strncmp(arg, "--trace-events=", 15) == 0) {
      args.trace_events =
          static_cast<std::size_t>(ParseFlagInt(arg + 15, "--trace-events"));
    } else if (std::strncmp(arg, "--ts-dir=", 9) == 0) {
      args.ts_dir = arg + 9;
    } else if (std::strncmp(arg, "--ts-window=", 12) == 0) {
      args.ts_window = ParseFlagPositiveDouble(arg + 12, "--ts-window");
    } else if (std::strncmp(arg, "--span-sample=", 14) == 0) {
      args.span_sample = ParseFlagInt(arg + 14, "--span-sample");
    } else if (std::strncmp(arg, "--flight-events=", 16) == 0) {
      args.flight_events =
          static_cast<std::size_t>(ParseFlagInt(arg + 16, "--flight-events"));
    } else if (std::strncmp(arg, "--ladder-rungs=", 15) == 0) {
      args.ladder_rungs = ParseFlagDoubleList(arg + 15, "--ladder-rungs");
    } else if (std::strncmp(arg, "--ladder-utilities=", 19) == 0) {
      args.ladder_utilities =
          ParseFlagDoubleList(arg + 19, "--ladder-utilities");
    } else if (std::strcmp(arg, "--progress") == 0) {
      args.progress = true;
    } else {
      throw InvalidArgument(std::string("unknown argument '") + arg +
                            "' (see the flag list in "
                            "src/runtime/experiment.h)");
    }
  }
  ValidateLadderFlags(args.ladder_rungs, args.ladder_utilities);
  if (json_dir_set && args.write_json) {
    RequireWritableDir(args.json_dir, "--json-dir");
  }
  if (!args.trace_dir.empty()) {
    RequireWritableDir(args.trace_dir, "--trace-dir");
  }
  if (!args.ts_dir.empty()) {
    RequireWritableDir(args.ts_dir, "--ts-dir");
  }
  return args;
}

ExperimentArgs ParseExperimentArgsOrExit(int argc, char** argv) {
  try {
    return ParseExperimentArgs(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "experiment",
                 e.what());
    std::fprintf(
        stderr,
        "usage: %s [--frames=N] [--seed=S] [--threads=N] [--quick]\n"
        "       [--json-dir=D] [--no-json] [--trace-dir=D]\n"
        "       [--trace-events=N] [--ts-dir=D] [--ts-window=W]\n"
        "       [--span-sample=N] [--flight-events=N]\n"
        "       [--ladder-rungs=1,0.7,...] [--ladder-utilities=1,0.8,...]\n"
        "       [--progress]\n",
        argc > 0 ? argv[0] : "experiment");
    std::exit(2);
  }
}

SweepOptions ToSweepOptions(const ExperimentArgs& args) {
  SweepOptions options;
  options.base_seed = args.seed;
  options.threads = args.threads;
  options.event_capacity = args.trace_dir.empty() ? 0 : args.trace_events;
  options.ts_window_s = args.ts_dir.empty() ? 0.0 : args.ts_window;
  options.span_sample = args.span_sample;
  options.flight_events = args.flight_events;
  options.progress = args.progress;
  return options;
}

SweepResult RunExperiment(const SweepSpec& spec, const PointFn& fn,
                          const ExperimentArgs& args) {
  SweepResult result = RunSweep(spec, fn, ToSweepOptions(args));
  PrintTable(result);
  if (args.write_json) {
    try {
      const std::string path = WriteJson(result, args.json_dir);
      std::printf("# json: %s (%.3f s on %zu threads)\n", path.c_str(),
                  result.total_seconds, result.threads);
    } catch (const Error& e) {
      // The table already went to stdout; losing the JSON side-output
      // should not abort the harness mid-report.
      std::fprintf(stderr, "# json write failed: %s\n", e.what());
    }
  }
  if (!args.trace_dir.empty()) {
    try {
      const std::string path = WriteTrace(result, args.trace_dir);
      std::printf("# trace: %s (%zu points with events)\n", path.c_str(),
                  result.events.size());
    } catch (const Error& e) {
      std::fprintf(stderr, "# trace write failed: %s\n", e.what());
    }
  }
  if (!args.ts_dir.empty()) {
    try {
      const std::string path = WriteTimeSeries(result, args.ts_dir);
      std::printf("# ts: %s (%zu points with series)\n", path.c_str(),
                  result.series.size());
    } catch (const Error& e) {
      std::fprintf(stderr, "# ts write failed: %s\n", e.what());
    }
  }
  if (args.flight_events > 0) {
    try {
      const std::string path = WriteFlight(
          result, args.trace_dir.empty() ? args.json_dir : args.trace_dir);
      std::size_t dumps = 0;
      for (const PointFlight& point : result.flight) {
        dumps += point.dumps.size();
      }
      std::printf("# flight: %s (%zu dumps)\n", path.c_str(), dumps);
    } catch (const Error& e) {
      std::fprintf(stderr, "# flight write failed: %s\n", e.what());
    }
  }
  return result;
}

}  // namespace rcbr::runtime
