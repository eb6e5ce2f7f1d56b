// Sec. IV-A runtime claim: the DP's cost explodes with the number of rate
// levels K. The paper reports ~20 min for K = 20 and "more than a day"
// for K = 100 on a 1995 UltraSparc; we reproduce the growth *shape* on
// the host (absolute times differ, the superlinear blowup must not).
#include <vector>

#include "core/schedule.h"
#include "experiment_lib.h"
#include "util/units.h"

int main(int argc, char** argv) {
  using namespace rcbr;
  const bench::Args args = bench::ParseArgs(argc, argv);
  const trace::FrameTrace movie = bench::MakeTrace(args, 7200);
  const auto& bits = movie.frame_bits();

  runtime::SweepSpec spec;
  spec.name = "tab1_dp_runtime";
  spec.notes = {
      "Sec. IV-A: DP runtime and trellis size vs number of rate levels K",
      "rates uniform within 48 kb/s and 2.4 Mb/s (paper's setup)",
      "paper shape: tractable at K ~ 20, superlinear blowup toward "
      "K = 100",
      "--threads=N parallelizes inside each DP solve; the K sweep itself "
      "runs sequentially so per-K runtimes stay honest"};
  spec.parameters = {"K"};
  spec.metrics = {"seconds", "peak_nodes", "total_nodes", "cost",
                  "record_bytes"};
  for (int k : args.quick ? std::vector<int>{5, 10, 20}
                          : std::vector<int>{5, 10, 20, 40, 100}) {
    spec.points.push_back({static_cast<double>(k)});
  }

  // The DP parallelizes internally across args.threads; the K sweep runs
  // one point at a time so each row's wall-clock is a clean measurement.
  bench::Args sweep_args = args;
  sweep_args.threads = 1;
  runtime::RunExperiment(
      spec,
      [&](const runtime::SweepContext& ctx) {
        const int k = static_cast<int>(ctx.parameters[0]);
        core::DpOptions options;
        // The paper's grid starts at 48 kb/s; prepend 0 so idle periods
        // can release bandwidth entirely, and convert kb/s -> bits/slot.
        options.rate_levels.push_back(0.0);
        const auto grid =
            core::UniformRateLevels(48.0 * kKilobit / movie.fps(),
                                    2400.0 * kKilobit / movie.fps(),
                                    static_cast<std::size_t>(k));
        options.rate_levels.insert(options.rate_levels.end(), grid.begin(),
                                   grid.end());
        options.buffer_bits = 300 * kKilobit;
        options.cost = {3000.0, 1.0 / movie.fps()};
        options.buffer_quantum_bits = 4.0 * kKilobit;
        options.threads = args.threads;
        options.recorder = ctx.recorder;
        options.obs_id = static_cast<std::uint64_t>(k);
        const double start = runtime::NowSeconds();
        const core::DpResult r = core::ComputeOptimalSchedule(bits, options);
        const double elapsed = runtime::NowSeconds() - start;
        return std::vector<double>{elapsed,
                                   static_cast<double>(r.peak_live_nodes),
                                   static_cast<double>(r.total_nodes),
                                   r.optimal_cost,
                                   static_cast<double>(r.peak_record_bytes)};
      },
      sweep_args);
  return 0;
}
