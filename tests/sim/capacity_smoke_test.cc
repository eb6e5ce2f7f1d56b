// Tier-2 capacity smoke: one RunSimulation driving millions of events
// through the calendar queue, the SoA call store, and the tracked ports,
// with a same-seed determinism re-check. This is the scaled-down stand-in
// for bench/macro_capacity's 10^6-call point, kept out of tier1 because
// it takes seconds, not milliseconds (run with `ctest -L tier2`).
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/engine/simulation.h"
#include "util/piecewise.h"
#include "util/rng.h"

namespace rcbr::sim::engine {
namespace {

constexpr std::int64_t kSlots = 128;
constexpr double kTargetCalls = 20000.0;

SimulationOptions CapacityOptions(bool tracked) {
  SimulationOptions options;
  options.link_capacities_bps = {2.0 * kTargetCalls * 1.1 + 24.0};
  options.classes.resize(1);
  options.classes[0].candidate_routes = {{0}};
  options.classes[0].arrival_rate_per_s =
      kTargetCalls / static_cast<double>(kSlots);
  options.classes[0].profile_index = 0;
  options.warmup_seconds = static_cast<double>(kSlots);
  options.sample_intervals = 3;
  options.interval_seconds = static_cast<double>(kSlots);
  options.track_connections = tracked;
  options.expected_peak_calls =
      static_cast<std::size_t>(kTargetCalls * 1.1) + 64;
  return options;
}

std::vector<CallProfile> CapacityProfiles() {
  // Alternating two-rate schedule: 32 renegotiations per call, so the
  // event count is ~118x the call count (arrival + 31 transitions +
  // departure, x4 intervals of expected concurrency turnover).
  std::vector<Step> steps;
  for (std::int64_t t = 0; t < kSlots; t += 4) {
    steps.push_back({t, (t / 4) % 2 == 0 ? 1.0 : 3.0});
  }
  return {{PiecewiseConstant(std::move(steps), kSlots), 1.0}};
}

TEST(CapacitySmoke, MillionsOfEventsSustainedAndDeterministic) {
  const std::vector<CallProfile> profiles = CapacityProfiles();
  const SimulationOptions options = CapacityOptions(/*tracked=*/false);

  Rng rng(20260809);
  const SimulationResult first = RunSimulation(profiles, options, rng);

  // ~20k concurrent calls x ~118 events each across the measured span.
  EXPECT_GT(first.events_processed, 2'000'000);
  EXPECT_GT(first.peak_concurrent_calls, 18'000);
  const ClassTotals& totals = first.per_class.front();
  EXPECT_GT(totals.offered_calls, 70'000);
  // Capacity was sized for the whole population: nothing blocks.
  EXPECT_EQ(totals.blocked_calls, 0);

  // Same seed, fresh run: bit-identical outcome counters and utilization.
  Rng rng2(20260809);
  const SimulationResult second = RunSimulation(profiles, options, rng2);
  EXPECT_EQ(second.events_processed, first.events_processed);
  EXPECT_EQ(second.peak_concurrent_calls, first.peak_concurrent_calls);
  EXPECT_EQ(second.per_class.front().offered_calls, totals.offered_calls);
  EXPECT_EQ(second.util_total, first.util_total);
}

TEST(CapacitySmoke, TrackedPortsAtScale) {
  // Same run with per-VCI audit tables on: exercises VciTable growth,
  // backshift deletion, and the resync-free tracked path at ~20k live
  // connections; tracking must not change call outcomes.
  const std::vector<CallProfile> profiles = CapacityProfiles();
  Rng rng(20260809);
  const SimulationResult tracked =
      RunSimulation(profiles, CapacityOptions(/*tracked=*/true), rng);
  Rng rng2(20260809);
  const SimulationResult untracked =
      RunSimulation(profiles, CapacityOptions(/*tracked=*/false), rng2);
  EXPECT_EQ(tracked.events_processed, untracked.events_processed);
  EXPECT_EQ(tracked.per_class.front().offered_calls,
            untracked.per_class.front().offered_calls);
  EXPECT_EQ(tracked.util_total, untracked.util_total);
}

}  // namespace
}  // namespace rcbr::sim::engine
