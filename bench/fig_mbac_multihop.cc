// Extension experiment: the memory-based MBAC of Figs. 9/10 on a
// multi-hop topology with an imperfect signaling plane — the composition
// the paper treats separately in Sec. III-B (lossy RM cells), Sec. III-C
// (multi-hop renegotiation) and Sec. VI (measurement-based admission).
//
// A tagged class of RCBR calls crosses 4 links, each also loaded by its
// own single-hop background traffic; admission at the bottleneck uses the
// memory-based Chernoff estimator. Renegotiations ride a lossy RM-cell
// channel: each hop loses a cell with probability `loss`, and a lost
// rollback cell leaves that hop's reservation drifted until the periodic
// absolute-rate resync repairs it. Columns show how the failure target
// degrades with loss and how cheap resync wins the robustness back.
#include <vector>

#include "admission/policies.h"
#include "experiment_lib.h"
#include "sim/engine/simulation.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace rcbr;
  const bench::Args args = bench::ParseArgs(argc, argv);
  const trace::FrameTrace movie = bench::MakeTrace(args, 14400);
  const bench::MbacSetup setup(movie);
  const double duration = setup.profile.duration_seconds();
  const std::size_t hops = 4;
  const double link_capacity = 24 * setup.call_mean_bps;
  const double per_link_load = 0.85;
  const double lambda_bg =
      per_link_load * link_capacity / (setup.call_mean_bps * duration);

  runtime::SweepSpec spec;
  spec.name = "fig_mbac_multihop";
  spec.notes = {
      "memory-based MBAC + 4-hop signaling + lossy RM-cell channel "
      "(Secs. III-B, III-C, VI composed on the unified engine)",
      "tagged class crosses 4 links with background load 0.85 each; "
      "admission at the bottleneck uses the memory-based Chernoff "
      "estimator",
      "resync 0 = never: lost rollback cells let reservations drift; a "
      "short resync period repairs the ports between renegotiations"};
  spec.parameters = {"loss_prob", "resync_every"};
  spec.metrics = {"failure_prob", "blocking", "mean_util"};
  for (double loss : {0.0, 0.01, 0.05}) {
    for (double resync : {0.0, 8.0, 2.0}) {
      if (loss == 0.0 && resync != 0.0) continue;  // nothing to repair
      spec.points.push_back({loss, resync});
    }
  }

  runtime::RunExperiment(
      spec,
      [&](const runtime::SweepContext& ctx) {
        admission::PolicyOptions mbac;
        mbac.target_failure_probability = bench::kMbacTargetFailure;
        mbac.rate_grid_bps = setup.rate_grid_bps;
        mbac.recorder = ctx.recorder;
        admission::MemoryPolicy policy(mbac);

        sim::engine::SimulationOptions options;
        options.link_capacities_bps.assign(hops, link_capacity);
        for (std::size_t l = 0; l < hops; ++l) {
          sim::engine::TrafficClass bg;
          bg.candidate_routes = {{l}};
          bg.arrival_rate_per_s = lambda_bg;
          options.classes.push_back(bg);
        }
        sim::engine::TrafficClass tagged;
        std::vector<std::size_t> route;
        for (std::size_t l = 0; l < hops; ++l) route.push_back(l);
        tagged.candidate_routes = {route};
        tagged.arrival_rate_per_s = lambda_bg / 10.0;
        options.classes.push_back(tagged);

        options.warmup_seconds = 3 * duration;
        options.sample_intervals = args.quick ? 4 : 20;
        options.interval_seconds = duration;
        options.policy = &policy;
        options.recorder = ctx.recorder;
        options.signaling_recorder = ctx.recorder;
        options.per_hop_delay_s = 0.001;
        options.track_connections = true;
        options.cell_loss_probability = ctx.parameters[0];
        options.resync_every_cells =
            static_cast<std::int64_t>(ctx.parameters[1]);

        Rng rng = ctx.MakeRng();
        const sim::engine::SimulationResult r =
            sim::engine::RunSimulation({setup.profile}, options, rng);
        const sim::engine::ClassTotals& t = r.per_class.back();
        const double span =
            options.interval_seconds *
            static_cast<double>(options.sample_intervals);
        double util = 0;
        for (std::size_t l = 0; l < hops; ++l) {
          util += r.util_total[l] / (span * link_capacity);
        }
        return std::vector<double>{t.overall_failure_probability(),
                                   t.blocking_probability(),
                                   util / static_cast<double>(hops)};
      },
      args);
  return 0;
}
