// Fig. 7: renegotiation failure probability of the memoryless
// certainty-equivalent MBAC vs normalized offered load, for several link
// capacities (multiples of the call mean rate). Target QoS: 1e-4
// (bench::kMbacTargetFailure).
// Paper shape: for small links the achieved failure probability is
// orders of magnitude above target; it improves with link size and grows
// with offered load.
#include <vector>

#include "admission/policies.h"
#include "experiment_lib.h"

int main(int argc, char** argv) {
  using namespace rcbr;
  const bench::Args args = bench::ParseArgs(argc, argv);
  const trace::FrameTrace movie = bench::MakeTrace(args, 14400);
  const bench::MbacSetup setup(movie);

  runtime::SweepSpec spec;
  spec.name = "fig7_memoryless_failure";
  spec.notes = {
      "Fig. 7: memoryless MBAC renegotiation failure probability",
      "target failure probability: 1e-4; link capacity in multiples of "
      "the call mean rate",
      "paper shape: small links violate the target by orders of "
      "magnitude; failure grows with load"};
  spec.parameters = {"capacity_x", "load"};
  spec.metrics = {"failure_prob", "target_ratio"};
  spec.points = runtime::GridPoints(
      {bench::MbacCapacities(args.quick), bench::MbacLoads(args.quick)});

  runtime::RunExperiment(
      spec,
      [&](const runtime::SweepContext& ctx) {
        admission::PolicyOptions options;
        options.target_failure_probability = bench::kMbacTargetFailure;
        options.rate_grid_bps = setup.rate_grid_bps;
        options.recorder = ctx.recorder;
        admission::MemorylessPolicy policy(options);
        const bench::MbacPoint p =
            bench::RunMbacPoint(setup, policy, ctx.parameters[0],
                                ctx.parameters[1], ctx.seed, args.quick,
                                ctx.recorder);
        return std::vector<double>{
            p.failure_probability,
            p.failure_probability / bench::kMbacTargetFailure};
      },
      args);
  return 0;
}
