// Sec. III-C scaling experiment: renegotiation failure probability vs
// path length, and the effect of call-level load balancing over alternate
// routes — the paper's stated open research question, answered on the
// multi-hop simulator.
//
// Part 0: a tagged RCBR stream crosses h independently loaded links
// (h = 1, 2, 4, 8); every link also carries its own single-hop background
// traffic. Failure grows with h (~ 1 - (1-p)^h).
// Part 1: the same offered load over one 4-hop path vs two alternate
// 4-hop paths with least-loaded call placement.
#include <vector>

#include "experiment_lib.h"
#include "sim/engine/simulation.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace rcbr;
  const bench::Args args = bench::ParseArgs(argc, argv);
  const trace::FrameTrace movie = bench::MakeTrace(args, 14400);
  const bench::MbacSetup setup(movie);
  const double duration = setup.profile.duration_seconds();
  const double link_capacity = 24 * setup.call_mean_bps;
  const double per_link_load = 0.85;
  const double lambda_bg =
      per_link_load * link_capacity / (setup.call_mean_bps * duration);

  runtime::SweepSpec spec;
  spec.name = "fig_hops_scaling";
  spec.notes = {
      "Sec. III-C: failure probability vs hop count; load balancing",
      "part 0: tagged class over h links, each with background load "
      "0.85; columns: hops, failure, blocking",
      "part 1: one fixed 4-hop path (row x=0) vs two alternate paths "
      "with least-loaded placement (x=1) at equal total load"};
  spec.parameters = {"part", "x"};
  spec.metrics = {"failure_prob", "blocking"};
  for (int hops : {1, 2, 4, 8}) {
    spec.points.push_back({0, static_cast<double>(hops)});
  }
  for (int balanced = 0; balanced <= 1; ++balanced) {
    spec.points.push_back({1, static_cast<double>(balanced)});
  }

  runtime::RunExperiment(
      spec,
      [&](const runtime::SweepContext& ctx) {
        sim::engine::SimulationOptions options;
        options.warmup_seconds = 3 * duration;
        options.sample_intervals = args.quick ? 4 : 20;
        options.interval_seconds = duration;
        options.admission_tolerance_bps = 1e-9;
        options.recorder = ctx.recorder;
        std::size_t tagged_class = 0;
        if (ctx.parameters[0] == 0) {
          // Part 0: failure vs hop count.
          const int hops = static_cast<int>(ctx.parameters[1]);
          options.link_capacities_bps.assign(static_cast<std::size_t>(hops),
                                             link_capacity);
          for (int l = 0; l < hops; ++l) {
            options.classes.push_back(
                {{{static_cast<std::size_t>(l)}}, lambda_bg, 0});
          }
          std::vector<std::size_t> route;
          for (int l = 0; l < hops; ++l) {
            route.push_back(static_cast<std::size_t>(l));
          }
          options.classes.push_back({{route}, lambda_bg / 10.0, 0});
          tagged_class = options.classes.size() - 1;
        } else {
          // Part 1: load balancing over two alternate 4-hop paths.
          options.link_capacities_bps.assign(8, link_capacity);
          const std::vector<std::size_t> path_a = {0, 1, 2, 3};
          const std::vector<std::size_t> path_b = {4, 5, 6, 7};
          // The tagged class may use both paths; its load alone drives the
          // network (no background), totaling 1.7x one path's
          // capacity-load.
          options.classes.push_back({{path_a, path_b}, 1.7 * lambda_bg, 0});
          options.least_loaded_routing = ctx.parameters[1] == 1;
        }
        Rng rng = ctx.MakeRng();
        const sim::engine::SimulationResult r =
            sim::engine::RunSimulation({setup.profile}, options, rng);
        const auto& tagged = r.per_class[tagged_class];
        return std::vector<double>{tagged.overall_failure_probability(),
                                   tagged.blocking_probability()};
      },
      args);
  return 0;
}
