// Ablation: DP buffer-state quantization. DESIGN.md calls out the
// quantization knob as the speed/exactness tradeoff; this bench measures
// the cost error and the trellis shrinkage across quantum sizes.
#include <vector>

#include "experiment_lib.h"
#include "core/schedule.h"
#include "util/units.h"

int main(int argc, char** argv) {
  using namespace rcbr;
  const bench::Args args = bench::ParseArgs(argc, argv);
  const trace::FrameTrace movie = bench::MakeTrace(args, 4800);
  const auto& bits = movie.frame_bits();

  runtime::SweepSpec spec;
  spec.name = "ablation_dp_quantization";
  spec.notes = {
      "DP buffer quantization: cost excess and trellis size vs quantum",
      "quantum 0 = exact; quantization is conservative (cost can only "
      "grow) and the schedule stays feasible"};
  spec.parameters = {"quantum_kb"};
  spec.metrics = {"seconds", "total_nodes", "cost", "cost_excess_pct"};
  for (double quantum_kb : {0.0, 1.0, 4.0, 16.0, 64.0}) {
    spec.points.push_back({quantum_kb});
  }

  // Every excess is against the exact (quantum 0) cost, solved up front so
  // that the points stay independent.
  core::DpOptions exact = bench::PaperDpOptions(3000.0);
  exact.buffer_quantum_bits = 0;
  exact.threads = args.threads;
  const double exact_cost =
      core::ComputeOptimalSchedule(bits, exact).optimal_cost;
  // As in tab1_dp_runtime: --threads=N parallelizes inside each DP solve,
  // and the quanta run one at a time so each row's seconds stay honest.
  bench::Args sweep_args = args;
  sweep_args.threads = 1;
  runtime::RunExperiment(
      spec,
      [&](const runtime::SweepContext& ctx) {
        core::DpOptions options = bench::PaperDpOptions(3000.0);
        options.buffer_quantum_bits = ctx.parameters[0] * kKilobit;
        options.threads = args.threads;
        options.recorder = ctx.recorder;
        options.obs_id = ctx.index;
        const double start = runtime::NowSeconds();
        const core::DpResult r = core::ComputeOptimalSchedule(bits, options);
        const double elapsed = runtime::NowSeconds() - start;
        const double excess_pct =
            exact_cost > 0 ? 100.0 * (r.optimal_cost / exact_cost - 1.0) : 0.0;
        return std::vector<double>{elapsed,
                                   static_cast<double>(r.total_nodes),
                                   r.optimal_cost, excess_pct};
      },
      sweep_args);
  return 0;
}
