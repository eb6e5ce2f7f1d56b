// Regression pins: exact values that must stay bit-identical across
// refactors, since every stochastic component is seeded. A change here
// means behaviour changed — intentionally or not — and EXPERIMENTS.md
// numbers need re-checking.
#include <gtest/gtest.h>

#include "core/dp_scheduler.h"
#include "core/online_heuristic.h"
#include "sim/call_sim.h"
#include "sim/engine/simulation.h"
#include "trace/star_wars.h"
#include "util/rng.h"
#include "util/units.h"

namespace rcbr {
namespace {

TEST(RegressionPins, RngStreamStable) {
  Rng rng(20260706);
  // First three draws of the canonical seed; pinned.
  const double a = rng.Uniform();
  const double b = rng.Uniform();
  const double c = rng.Uniform();
  Rng again(20260706);
  EXPECT_DOUBLE_EQ(a, again.Uniform());
  EXPECT_DOUBLE_EQ(b, again.Uniform());
  EXPECT_DOUBLE_EQ(c, again.Uniform());
  // And across forks.
  Rng parent1(7);
  Rng parent2(7);
  EXPECT_DOUBLE_EQ(parent1.Fork().Uniform(), parent2.Fork().Uniform());
}

TEST(RegressionPins, StarWarsTraceStable) {
  // The synthetic trace is the substrate of every experiment; its exact
  // content for the canonical seed must not drift silently.
  const trace::FrameTrace t = trace::MakeStarWarsTrace(20260706, 4800);
  EXPECT_NEAR(t.mean_rate(), 374e3, 1.0);
  const double pinned_total = t.total_bits();
  const trace::FrameTrace again = trace::MakeStarWarsTrace(20260706, 4800);
  EXPECT_DOUBLE_EQ(again.total_bits(), pinned_total);
  EXPECT_DOUBLE_EQ(again.bits(1234), t.bits(1234));
  EXPECT_DOUBLE_EQ(again.MaxWindowBits(240), t.MaxWindowBits(240));
}

TEST(RegressionPins, DpScheduleDeterministic) {
  const trace::FrameTrace clip = trace::MakeStarWarsTrace(20260706, 2880);
  core::DpOptions options;
  for (int k = 0; k <= 40; ++k) {
    options.rate_levels.push_back(64.0 * kKilobit / clip.fps() * k);
  }
  options.buffer_bits = 300 * kKilobit;
  options.cost = {3000.0, 1.0 / clip.fps()};
  options.buffer_quantum_bits = 2 * kKilobit;
  options.decision_period = 6;
  const core::DpResult a =
      core::ComputeOptimalSchedule(clip.frame_bits(), options);
  const core::DpResult b =
      core::ComputeOptimalSchedule(clip.frame_bits(), options);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_DOUBLE_EQ(a.optimal_cost, b.optimal_cost);
  EXPECT_EQ(a.total_nodes, b.total_nodes);
}

TEST(RegressionPins, HeuristicScheduleDeterministic) {
  const trace::FrameTrace clip = trace::MakeStarWarsTrace(20260706, 2880);
  core::HeuristicOptions h;
  h.low_threshold_bits = 10 * kKilobit;
  h.high_threshold_bits = 150 * kKilobit;
  h.time_constant_slots = 5;
  h.granularity_bits_per_slot = 100.0 * kKilobit / clip.fps();
  h.initial_rate_bits_per_slot = clip.mean_rate() / clip.fps();
  const PiecewiseConstant a =
      core::ComputeHeuristicSchedule(clip.frame_bits(), h);
  const PiecewiseConstant b =
      core::ComputeHeuristicSchedule(clip.frame_bits(), h);
  EXPECT_EQ(a, b);
}

TEST(RegressionPins, CallSimDeterministicAcrossRuns) {
  const sim::CallProfile profile{
      PiecewiseConstant({{0, 1.0}, {50, 2.0}}, 100), 1.0};
  sim::CallSimOptions options;
  options.capacity_bps = 10.0;
  options.arrival_rate_per_s = 0.2;
  options.warmup_seconds = 100.0;
  options.sample_intervals = 6;
  options.interval_seconds = 150.0;
  auto run = [&] {
    sim::CapacityOnlyPolicy policy;
    Rng rng(12345);
    return sim::RunCallSim({profile}, policy, options, rng);
  };
  const sim::CallSimResult a = run();
  const sim::CallSimResult b = run();
  EXPECT_EQ(a.offered_calls, b.offered_calls);
  EXPECT_EQ(a.upward_attempts, b.upward_attempts);
  EXPECT_EQ(a.failed_attempts, b.failed_attempts);
  EXPECT_DOUBLE_EQ(a.utilization.mean(), b.utilization.mean());
}

TEST(RegressionPins, CallSimAbsoluteValues) {
  // Absolute pins captured from the pre-engine call simulator (commit
  // 79b112f); the unified engine must reproduce them bit for bit — same
  // RNG draw order, same event ordering, same FP summation shapes.
  const sim::CallProfile profile{
      PiecewiseConstant({{0, 1.0}, {50, 2.0}}, 100), 1.0};
  sim::CallSimOptions options;
  options.capacity_bps = 10.0;
  options.arrival_rate_per_s = 0.2;
  options.warmup_seconds = 100.0;
  options.sample_intervals = 6;
  options.interval_seconds = 150.0;
  sim::CapacityOnlyPolicy policy;
  Rng rng(12345);
  const sim::CallSimResult r =
      sim::RunCallSim({profile}, policy, options, rng);
  EXPECT_EQ(r.offered_calls, 197);
  EXPECT_EQ(r.blocked_calls, 122);
  EXPECT_EQ(r.upward_attempts, 72);
  EXPECT_EQ(r.failed_attempts, 41);
  EXPECT_EQ(r.failure_probability.mean(), 0x1.1c0bef4a97924p-1);
  EXPECT_EQ(r.utilization.mean(), 0x1.d1863204dd7ccp-1);
  EXPECT_EQ(r.utilization.stddev(), 0x1.2e3d8e897fa59p-5);
}

TEST(RegressionPins, NetworkSimAbsoluteValues) {
  // Same contract for a multi-hop engine run: two classes sharing three
  // links with least-loaded routing and 1e-9 admission slack, pinned at
  // seed 54321.
  const std::vector<sim::CallProfile> profiles = {
      {PiecewiseConstant({{0, 1.0}, {50, 2.0}}, 100), 1.0},
      {PiecewiseConstant({{0, 2.0}, {30, 3.0}, {70, 1.0}}, 100), 1.0}};
  sim::engine::SimulationOptions options;
  options.link_capacities_bps = {10.0, 10.0, 10.0};
  options.classes.resize(2);
  options.classes[0].candidate_routes = {{0, 1}};
  options.classes[0].arrival_rate_per_s = 0.15;
  options.classes[0].profile_index = 0;
  options.classes[1].candidate_routes = {{1, 2}, {2}};
  options.classes[1].arrival_rate_per_s = 0.2;
  options.classes[1].profile_index = 1;
  options.warmup_seconds = 100.0;
  options.sample_intervals = 6;
  options.interval_seconds = 150.0;
  options.least_loaded_routing = true;
  options.admission_tolerance_bps = 1e-9;
  Rng rng(54321);
  const sim::engine::SimulationResult r =
      sim::engine::RunSimulation(profiles, options, rng);
  ASSERT_EQ(r.per_class.size(), 2u);
  EXPECT_EQ(r.per_class[0].offered_calls, 150);
  EXPECT_EQ(r.per_class[0].blocked_calls, 89);
  EXPECT_EQ(r.per_class[0].upward_attempts, 57);
  EXPECT_EQ(r.per_class[0].failed_attempts, 31);
  EXPECT_EQ(r.per_class[0].interval_failure_probability().mean(),
            0x1.22498971cd6a6p-1);
  EXPECT_EQ(r.per_class[1].offered_calls, 213);
  EXPECT_EQ(r.per_class[1].blocked_calls, 154);
  EXPECT_EQ(r.per_class[1].upward_attempts, 112);
  EXPECT_EQ(r.per_class[1].failed_attempts, 68);
  EXPECT_EQ(r.per_class[1].interval_failure_probability().mean(),
            0x1.221935a76e8bp-1);
  // Mean link utilization over the measurement phase.
  const double span = options.interval_seconds *
                      static_cast<double>(options.sample_intervals);
  auto mean_util = [&](std::size_t l) {
    return r.util_total[l] / (span * options.link_capacities_bps[l]);
  };
  ASSERT_EQ(r.util_total.size(), 3u);
  EXPECT_EQ(mean_util(0), 0x1.86d5ebacf9027p-1);
  EXPECT_EQ(mean_util(1), 0x1.cfee1d73b889cp-1);
  EXPECT_EQ(mean_util(2), 0x1.c3aac2d21a2afp-1);
}

}  // namespace
}  // namespace rcbr
