// Parameterized property suites: invariants that must hold across sweeps
// of seeds and parameters (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "core/dp_scheduler.h"
#include "core/funnel_smoother.h"
#include "core/online_heuristic.h"
#include "admission/deterministic.h"
#include "core/schedule.h"
#include "ldev/chernoff.h"
#include "sim/cell_mux.h"
#include "sim/fluid_queue.h"
#include "sim/scenarios.h"
#include "trace/vbr_synthesizer.h"
#include "util/rng.h"

namespace rcbr {
namespace {

std::vector<double> RandomWorkload(std::uint64_t seed, std::size_t slots,
                                   double peak) {
  Rng rng(seed);
  std::vector<double> workload(slots);
  for (double& a : workload) a = rng.Uniform(0.0, peak);
  return workload;
}

// ---------------------------------------------------------------------
// DP schedules: feasibility and cost-reporting invariants across seeds
// and buffer sizes.
class DpProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(DpProperty, ScheduleFeasibleAndCostConsistent) {
  const auto [seed, buffer] = GetParam();
  const auto workload = RandomWorkload(seed, 120, 10.0);
  core::DpOptions options;
  options.rate_levels = core::UniformRateLevels(0.0, 10.0, 11);
  options.buffer_bits = buffer;
  options.cost = {2.0, 1.0};
  const core::DpResult r = core::ComputeOptimalSchedule(workload, options);
  const core::ScheduleMetrics m = core::EvaluateSchedule(
      workload, r.schedule, buffer, 1.0, options.cost);
  EXPECT_TRUE(m.feasible);
  EXPECT_NEAR(m.cost, r.optimal_cost, 1e-6);
  // Every scheduled rate must be on the grid.
  for (const Step& s : r.schedule.steps()) {
    const double idx = s.value / 1.0;
    EXPECT_NEAR(idx, std::round(idx), 1e-9);
  }
}

TEST_P(DpProperty, OptimalCostDominatedByAnyHeuristicSchedule) {
  // The DP cost is a lower bound over *grid* schedules: compare against
  // the grid-snapped funnel schedule when that snap is feasible.
  const auto [seed, buffer] = GetParam();
  const auto workload = RandomWorkload(seed, 120, 10.0);
  core::DpOptions options;
  options.rate_levels = core::UniformRateLevels(0.0, 10.0, 11);
  options.buffer_bits = buffer;
  options.cost = {2.0, 1.0};
  const core::DpResult r = core::ComputeOptimalSchedule(workload, options);

  const PiecewiseConstant funnel =
      core::ComputeFunnelSchedule(workload, buffer);
  // Snap up to the grid (conservative).
  std::vector<Step> snapped;
  for (const Step& s : funnel.steps()) {
    snapped.push_back({s.start, std::ceil(s.value - 1e-12)});
  }
  const PiecewiseConstant candidate(std::move(snapped), funnel.length());
  const core::ScheduleMetrics m = core::EvaluateSchedule(
      workload, candidate, buffer, 1.0, options.cost);
  if (m.feasible) {
    EXPECT_LE(r.optimal_cost, m.cost + 1e-9);
  }
}

TEST_P(DpProperty, DrainedSchedulesSurviveRotation) {
  // The rotation-safety argument behind final_buffer_bits = 0: any
  // circular shift of (workload, schedule) remains feasible.
  const auto [seed, buffer] = GetParam();
  const auto workload = RandomWorkload(seed + 100, 120, 10.0);
  core::DpOptions options;
  options.rate_levels = core::UniformRateLevels(0.0, 10.0, 11);
  options.buffer_bits = buffer;
  options.cost = {2.0, 1.0};
  options.final_buffer_bits = 0.0;
  const core::DpResult r = core::ComputeOptimalSchedule(workload, options);
  Rng rng(seed + 200);
  for (int k = 0; k < 5; ++k) {
    const auto shift = rng.UniformInt(0, 119);
    std::vector<double> rotated(workload.size());
    for (std::size_t t = 0; t < workload.size(); ++t) {
      rotated[t] = workload[(t + static_cast<std::size_t>(shift)) %
                            workload.size()];
    }
    const core::ScheduleMetrics m = core::EvaluateSchedule(
        rotated, r.schedule.Rotate(shift), buffer, 1.0, options.cost);
    EXPECT_TRUE(m.feasible) << "shift " << shift;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DpProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(0.0, 3.0, 12.0, 50.0)));

// ---------------------------------------------------------------------
// Queue conservation: arrivals = served + lost + final occupancy.
class QueueProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueProperty, BitConservation) {
  const auto workload = RandomWorkload(GetParam(), 500, 8.0);
  Rng rng(GetParam() + 1000);
  const double buffer = rng.Uniform(0.0, 20.0);
  const double rate = rng.Uniform(0.5, 8.0);
  sim::SlottedQueue queue(buffer);
  double served = 0;
  for (double a : workload) {
    const double before = queue.occupancy_bits();
    const double lost = queue.Step(a, rate);
    // Served this slot = before + a - lost - after.
    served += before + a - lost - queue.occupancy_bits();
  }
  EXPECT_NEAR(queue.arrived_bits(),
              served + queue.lost_bits() + queue.occupancy_bits(), 1e-6);
  EXPECT_GE(queue.max_occupancy_bits(), queue.occupancy_bits());
  EXPECT_LE(queue.max_occupancy_bits(), buffer + 1e-12);
}

TEST_P(QueueProperty, LossMonotoneInRate) {
  const auto workload = RandomWorkload(GetParam(), 400, 8.0);
  double prev = 1e300;
  for (double rate = 1.0; rate <= 8.0; rate += 1.0) {
    const double lost = sim::DrainConstant(workload, rate, 5.0).lost_bits;
    EXPECT_LE(lost, prev + 1e-9);
    prev = lost;
  }
}

TEST_P(QueueProperty, LossMonotoneInBuffer) {
  const auto workload = RandomWorkload(GetParam(), 400, 8.0);
  double prev = 1e300;
  for (double buffer = 0.0; buffer <= 40.0; buffer += 8.0) {
    const double lost = sim::DrainConstant(workload, 3.0, buffer).lost_bits;
    EXPECT_LE(lost, prev + 1e-9);
    prev = lost;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, QueueProperty,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u));

// ---------------------------------------------------------------------
// RCBR mux: capacity monotonicity and degradation bounds.
class MuxProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MuxProperty, LossMonotoneInCapacity) {
  Rng rng(GetParam());
  constexpr int kN = 4;
  std::vector<std::vector<double>> arrivals;
  std::vector<PiecewiseConstant> requests;
  for (int i = 0; i < kN; ++i) {
    arrivals.push_back(RandomWorkload(GetParam() * 10 + i, 300, 6.0));
    // Request the 30-slot block averages, snapped up.
    std::vector<Step> steps;
    for (std::int64_t b = 0; b < 10; ++b) {
      double sum = 0;
      for (std::int64_t t = b * 30; t < (b + 1) * 30; ++t) {
        sum += arrivals.back()[static_cast<std::size_t>(t)];
      }
      steps.push_back({b * 30, std::ceil(sum / 30.0)});
    }
    requests.push_back(PiecewiseConstant(std::move(steps), 300));
  }
  double prev = 1e300;
  for (double capacity : {4.0, 8.0, 12.0, 16.0, 24.0}) {
    const sim::RcbrMuxResult r =
        sim::RcbrScenario(arrivals, requests, capacity, 10.0);
    EXPECT_LE(r.lost_bits(), prev + 1e-9) << "capacity " << capacity;
    prev = r.lost_bits();
  }
}

TEST_P(MuxProperty, AmpleCapacityMatchesDedicatedQueues) {
  constexpr int kN = 3;
  std::vector<std::vector<double>> arrivals;
  std::vector<PiecewiseConstant> requests;
  for (int i = 0; i < kN; ++i) {
    arrivals.push_back(RandomWorkload(GetParam() * 7 + i, 200, 5.0));
    requests.push_back(PiecewiseConstant::Constant(3.0, 200));
  }
  // Capacity >= sum of all requests: grants always full, so each source
  // behaves exactly like a dedicated queue at its requested rate.
  const sim::RcbrMuxResult mux =
      sim::RcbrScenario(arrivals, requests, 3.0 * kN, 6.0);
  for (int i = 0; i < kN; ++i) {
    const sim::DrainResult solo =
        sim::DrainConstant(arrivals[static_cast<std::size_t>(i)], 3.0, 6.0);
    EXPECT_NEAR(mux.per_source[static_cast<std::size_t>(i)].lost_bits,
                solo.lost_bits, 1e-9);
  }
  EXPECT_EQ(mux.failed_renegotiations(), 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MuxProperty,
                         ::testing::Values(21u, 22u, 23u, 24u));

// ---------------------------------------------------------------------
// Chernoff estimates: monotone and consistent across a parameter sweep.
class ChernoffProperty
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ChernoffProperty, ExponentNonNegativeAndMonotone) {
  const auto [p_high, high_rate] = GetParam();
  const ldev::DiscreteDistribution d({1.0, high_rate},
                                     {1.0 - p_high, p_high});
  double prev = 0;
  const double mean = d.Mean();
  for (double c = mean; c <= high_rate; c += (high_rate - mean) / 16) {
    const double i = ldev::ChernoffExponent(d, c);
    EXPECT_GE(i, -1e-12);
    EXPECT_GE(i, prev - 1e-9);
    prev = i;
  }
}

TEST_P(ChernoffProperty, AdmissibleCountConsistent) {
  const auto [p_high, high_rate] = GetParam();
  const ldev::DiscreteDistribution d({1.0, high_rate},
                                     {1.0 - p_high, p_high});
  const double capacity = 40.0;
  const std::int64_t n = ldev::MaxAdmissibleCalls(d, capacity, 1e-4);
  if (n > 0) {
    EXPECT_LE(ldev::ChernoffOverflowProbability(d, n, capacity), 1e-4);
  }
  EXPECT_GT(ldev::ChernoffOverflowProbability(d, n + 1, capacity), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChernoffProperty,
    ::testing::Combine(::testing::Values(0.05, 0.2, 0.5),
                       ::testing::Values(2.0, 4.0, 10.0)));

// ---------------------------------------------------------------------
// Synthesizer: calibration invariants across seeds.
class SynthProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SynthProperty, MeanExactPeakBounded) {
  trace::VbrModel model;
  model.target_mean_rate_bps = 374e3;
  Rng rng(GetParam());
  const trace::FrameTrace t = trace::SynthesizeVbr(model, 20000, rng);
  EXPECT_NEAR(t.mean_rate(), 374e3, 1.0);
  EXPECT_GT(t.peak_rate(), t.mean_rate());
  EXPECT_LT(t.peak_rate(), 40.0 * t.mean_rate());
  for (std::int64_t i = 0; i < t.frame_count(); ++i) {
    ASSERT_GE(t.bits(i), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SynthProperty,
                         ::testing::Values(31u, 32u, 33u, 34u, 35u));

// ---------------------------------------------------------------------
// Online heuristic: across granularities, the schedule covers the mean
// and the renegotiation count decreases with Delta.
class HeuristicProperty : public ::testing::TestWithParam<double> {};

TEST_P(HeuristicProperty, CoarserGranularityFewerRenegotiations) {
  const auto workload = RandomWorkload(77, 3000, 10.0);
  core::HeuristicOptions h;
  h.low_threshold_bits = 2.0;
  h.high_threshold_bits = 12.0;
  h.time_constant_slots = 5;
  h.initial_rate_bits_per_slot = 5.0;
  h.granularity_bits_per_slot = GetParam();
  const PiecewiseConstant fine =
      core::ComputeHeuristicSchedule(workload, h);
  h.granularity_bits_per_slot = GetParam() * 4;
  const PiecewiseConstant coarse =
      core::ComputeHeuristicSchedule(workload, h);
  EXPECT_LE(coarse.change_count(), fine.change_count());
}

INSTANTIATE_TEST_SUITE_P(Sweep, HeuristicProperty,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0));

// ---------------------------------------------------------------------
// Cell-level mux: across loads, the analytic bound dominates simulation
// and the dimensioned buffer honors the target.
class CellMuxProperty : public ::testing::TestWithParam<double> {};

TEST_P(CellMuxProperty, BoundDominatesAndDimensions) {
  const double utilization = GetParam();
  const std::int64_t period = 80;
  const auto n = static_cast<std::int64_t>(utilization * period);
  Rng rng(71);
  const sim::CellMuxResult mc = sim::SimulateCellMux(n, period, 1500, rng);
  for (std::int64_t q : {1, 3, 6}) {
    EXPECT_GE(sim::CellMuxTailBound(n, period, q) * 1.001, mc.Tail(q))
        << "q " << q;
  }
  const std::int64_t cells = sim::CellsForLossTarget(n, period, 1e-4);
  EXPECT_LE(mc.Tail(cells), 1e-3);  // MC noise floor above the target
}

INSTANTIATE_TEST_SUITE_P(Sweep, CellMuxProperty,
                         ::testing::Values(0.5, 0.7, 0.9));

// ---------------------------------------------------------------------
// Leaky-bucket envelopes: SigmaForRho is the tightest valid envelope.
class EnvelopeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EnvelopeProperty, TightAndValid) {
  const auto workload = RandomWorkload(GetParam(), 400, 9.0);
  for (double rho : {1.0, 3.0, 5.0, 8.0}) {
    const double sigma = admission::SigmaForRho(workload, rho);
    // Valid: a queue drained at rho never exceeds sigma.
    const sim::DrainResult r =
        sim::DrainConstant(workload, rho, sigma);
    EXPECT_DOUBLE_EQ(r.lost_bits, 0.0) << "rho " << rho;
    // Tight: shaving sigma loses bits.
    if (sigma > 1.0) {
      EXPECT_GT(sim::DrainConstant(workload, rho, sigma - 1.0).lost_bits,
                0.0)
          << "rho " << rho;
    }
  }
}

TEST_P(EnvelopeProperty, DeterministicAdmissionNeverExceedsMeanBound) {
  const auto workload = RandomWorkload(GetParam() + 500, 400, 9.0);
  double mean = 0;
  for (double a : workload) mean += a;
  mean /= static_cast<double>(workload.size());
  const double capacity = 50.0;
  for (double rho : {5.0, 7.0, 9.0}) {
    const auto envelope = admission::EnvelopeAtRate(workload, rho);
    const std::int64_t n =
        admission::MaxDeterministicCalls(envelope, capacity, 200.0);
    // rho >= mean, so the deterministic count is below the mean bound.
    EXPECT_LE(static_cast<double>(n), capacity / mean + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EnvelopeProperty,
                         ::testing::Values(81u, 82u, 83u, 84u));

}  // namespace
}  // namespace rcbr
