// Ablation: GOP-aware vs plain AR(1) causal heuristic (the improvement
// the paper suggests as future work in Sec. IV-B). Both heuristics sweep
// their granularity Delta; the output is the same (interval, efficiency)
// tradeoff curve as Fig. 2, with the OPT curve's endpoint as reference.
#include <vector>

#include "experiment_lib.h"
#include "core/gop_heuristic.h"
#include "core/online_heuristic.h"
#include "core/schedule.h"
#include "util/units.h"

int main(int argc, char** argv) {
  using namespace rcbr;
  const bench::Args args = bench::ParseArgs(argc, argv);
  const trace::FrameTrace movie = bench::MakeTrace(args, 28800);
  const auto& bits = movie.frame_bits();
  const double mean_per_slot = movie.mean_rate() / movie.fps();

  bench::PrintPreamble(
      "ablation_gop_heuristic",
      {"GOP-aware heuristic vs plain AR(1) (paper's suggested "
       "improvement): efficiency vs renegotiation interval",
       "curve 0 = plain AR(1), curve 1 = GOP-aware; both sweep Delta "
       "(kb/s); B_l = 10 kb, B_h = 150 kb",
       "expected: curve 1 sits up-right of curve 0 (same efficiency at "
       "longer intervals)"},
      {"curve", "delta_kbps", "interval_s", "efficiency", "renegs"});

  for (double delta_kbps : {25.0, 50.0, 100.0, 200.0, 400.0}) {
    core::HeuristicOptions h;
    h.low_threshold_bits = 10 * kKilobit;
    h.high_threshold_bits = 150 * kKilobit;
    h.time_constant_slots = 5;
    h.granularity_bits_per_slot = delta_kbps * kKilobit / movie.fps();
    h.initial_rate_bits_per_slot = mean_per_slot;
    core::OnlineRateController ar1(h);
    core::GopAwareController gop(h, 12);
    core::RateController* curves[] = {&ar1, &gop};
    for (int curve = 0; curve < 2; ++curve) {
      const PiecewiseConstant schedule =
          core::ComputeHeuristicSchedule(bits, *curves[curve]);
      const core::ScheduleMetrics m = core::EvaluateSchedule(
          bits, schedule, 1e15, movie.slot_seconds(), {});
      bench::PrintRow({static_cast<double>(curve), delta_kbps,
                       m.mean_interval_seconds,
                       mean_per_slot / schedule.Mean(),
                       static_cast<double>(m.renegotiations)});
    }
  }
  return 0;
}
