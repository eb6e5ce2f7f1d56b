// Shared main() for the google-benchmark binaries (micro_hotpaths,
// micro_obs_overhead). They take the flags of every figure/table harness,
// parsed as strictly (runtime::ParseExperimentArgsOrExit: an unknown flag
// exits 2), so one sweep over all benches can pass the same flags:
//   --quick        a short minimum time per benchmark (0.01 s)
//   --json-dir=D   google-benchmark's JSON report as D/BENCH_<name>.json
//   --no-json      no JSON report
// --threads, --frames, --seed and the telemetry flags (--trace-dir,
// --ts-dir, --flight-events, ...) are validated and otherwise ignored: a
// microbenchmark times one thread and records no telemetry. Flags that
// start with --benchmark_ go to google-benchmark, which rejects the ones
// it does not know.
#pragma once

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "runtime/experiment.h"

namespace rcbr::bench {

inline int RunMicroBench(const char* name, int argc, char** argv) {
  std::vector<char*> shared = {argv[0]};
  std::vector<std::string> forwarded = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_", 12) == 0) {
      forwarded.emplace_back(argv[i]);
    } else {
      shared.push_back(argv[i]);
    }
  }
  const runtime::ExperimentArgs args = runtime::ParseExperimentArgsOrExit(
      static_cast<int>(shared.size()), shared.data());
  if (args.quick) forwarded.emplace_back("--benchmark_min_time=0.01");
  if (args.write_json) {
    forwarded.push_back("--benchmark_out=" + args.json_dir + "/BENCH_" +
                        name + ".json");
    forwarded.emplace_back("--benchmark_out_format=json");
  }

  std::vector<char*> gbench_argv;
  for (std::string& arg : forwarded) gbench_argv.push_back(arg.data());
  int gbench_argc = static_cast<int>(gbench_argv.size());
  benchmark::Initialize(&gbench_argc, gbench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(gbench_argc, gbench_argv.data())) {
    return 2;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace rcbr::bench
