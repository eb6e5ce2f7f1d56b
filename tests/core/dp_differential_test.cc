// Differential tests: ComputeOptimalSchedule against the brute-force
// reference DP (tests/core/dp_reference.h) across the option space —
// buffer and delay bounds, quantization, decision periods, and the
// terminal state. Instances use integer-lattice workloads and rate grids,
// so both implementations compute exactly and costs must agree tightly.
#include <cmath>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/dp_scheduler.h"
#include "core/schedule.h"
#include "dp_reference.h"
#include "util/error.h"
#include "util/rng.h"

namespace rcbr::core {
namespace {

DpOptions RandomLatticeOptions(Rng& rng, int trial) {
  DpOptions options;
  const int k = 2 + trial % 3;
  double level = 0.0;
  for (int i = 0; i < k; ++i) {
    options.rate_levels.push_back(level);
    level += 1.0 + std::floor(rng.Uniform(0.0, 3.0));
  }
  options.buffer_bits = 4.0 + std::floor(rng.Uniform(0.0, 30.0));
  options.cost = {std::floor(rng.Uniform(0.0, 7.0)),
                  0.5 * (1.0 + std::floor(rng.Uniform(0.0, 4.0)))};
  switch (trial % 5) {
    case 1:
      options.buffer_quantum_bits = trial % 2 == 0 ? 1.0 : 0.5;
      break;
    case 2:
      options.decision_period = 2 + static_cast<std::int64_t>(
                                        rng.Uniform(0.0, 2.0));
      break;
    case 3:
      options.delay_bound_slots =
          static_cast<std::int64_t>(rng.Uniform(0.0, 5.0));
      if (trial % 10 == 3) options.buffer_bits = 0;
      break;
    case 4:
      options.final_buffer_bits = std::floor(rng.Uniform(0.0, 4.0));
      break;
    default:
      break;
  }
  return options;
}

TEST(DpDifferential, MatchesBruteForceAcrossOptionSpace) {
  Rng rng(20260809);
  int feasible_cases = 0;
  for (int trial = 0; trial < 460; ++trial) {
    const DpOptions options = RandomLatticeOptions(rng, trial);
    const int slots = 8 + static_cast<int>(rng.Uniform(0.0, 17.0));
    std::vector<double> workload(static_cast<std::size_t>(slots));
    for (double& a : workload) a = std::floor(rng.Uniform(0.0, 9.0));

    const std::optional<double> want =
        reference::ReferenceOptimalCost(workload, options);
    std::optional<DpResult> got;
    try {
      got = ComputeOptimalSchedule(workload, options);
    } catch (const Infeasible&) {
    }
    ASSERT_EQ(want.has_value(), got.has_value()) << "trial " << trial;
    if (!want.has_value()) continue;
    ++feasible_cases;
    EXPECT_NEAR(got->optimal_cost, *want, 1e-9 * (1.0 + std::abs(*want)))
        << "trial " << trial;

    // The emitted schedule must realize the claimed cost feasibly.
    if (options.delay_bound_slots >= 0) {
      EXPECT_TRUE(MeetsDelayBound(workload, got->schedule,
                                  options.delay_bound_slots))
          << "trial " << trial;
    } else {
      const ScheduleMetrics metrics = EvaluateSchedule(
          workload, got->schedule, options.buffer_bits, 1.0, options.cost);
      EXPECT_TRUE(metrics.feasible) << "trial " << trial;
      EXPECT_NEAR(metrics.cost, got->optimal_cost,
                  1e-9 * (1.0 + std::abs(got->optimal_cost)))
          << "trial " << trial;
    }
  }
  // The ISSUE's bar: at least 200 feasible differential cases.
  EXPECT_GE(feasible_cases, 200);
}

}  // namespace
}  // namespace rcbr::core
