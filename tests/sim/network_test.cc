// Multi-hop call-level simulation (Sec. III-C) on the engine: calls
// reserve on every link of their route, renegotiations are
// all-or-nothing across the route, and least-loaded routing is the
// call-level load balancing the paper hypothesizes about.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "sim/engine/simulation.h"
#include "util/error.h"

namespace rcbr::sim {
namespace {

using engine::RunSimulation;
using engine::SimulationOptions;
using engine::SimulationResult;

CallProfile TwoLevel(double lo, double hi, std::int64_t slots = 100) {
  return {PiecewiseConstant({{0, lo}, {slots / 2, hi}}, slots), 1.0};
}

SimulationOptions BaseOptions() {
  SimulationOptions options;
  options.link_capacities_bps = {10.0, 10.0};
  options.warmup_seconds = 100.0;
  options.sample_intervals = 5;
  options.interval_seconds = 200.0;
  options.admission_tolerance_bps = 1e-9;
  return options;
}

/// Time-average reserved/capacity per link over the measurement phase.
std::vector<double> MeanLinkUtilization(const SimulationOptions& options,
                                       const SimulationResult& r) {
  const double span = options.interval_seconds *
                      static_cast<double>(options.sample_intervals);
  std::vector<double> util;
  for (std::size_t l = 0; l < r.util_total.size(); ++l) {
    util.push_back(r.util_total[l] /
                   (span * options.link_capacities_bps[l]));
  }
  return util;
}

TEST(NetworkSim, Validation) {
  const std::vector<CallProfile> pool = {TwoLevel(1.0, 2.0)};
  Rng rng(1);
  SimulationOptions options = BaseOptions();
  EXPECT_THROW(RunSimulation({}, options, rng), InvalidArgument);
  EXPECT_THROW(RunSimulation(pool, options, rng), InvalidArgument);  // no classes
  options.classes.push_back({{{0, 5}}, 0.1, 0});  // link 5 out of range
  EXPECT_THROW(RunSimulation(pool, options, rng), InvalidArgument);
  options.classes.clear();
  options.classes.push_back({{{0}}, 0.1, 3});  // bad profile index
  EXPECT_THROW(RunSimulation(pool, options, rng), InvalidArgument);
  options.classes.clear();
  options.classes.push_back({{{0}}, 0.1, 0});
  EXPECT_NO_THROW(RunSimulation(pool, options, rng));
}

TEST(NetworkSim, SingleLinkMatchesExpectations) {
  const std::vector<CallProfile> pool = {TwoLevel(1.0, 2.0)};
  SimulationOptions options = BaseOptions();
  options.link_capacities_bps = {8.0};
  options.classes.push_back({{{0}}, 0.08, 0});
  Rng rng(3);
  const SimulationResult r = RunSimulation(pool, options, rng);
  const std::vector<double> util = MeanLinkUtilization(options, r);
  ASSERT_EQ(r.per_class.size(), 1u);
  EXPECT_GT(r.per_class[0].offered_calls, 0);
  EXPECT_GT(r.per_class[0].upward_attempts, 0);
  ASSERT_EQ(util.size(), 1u);
  EXPECT_GT(util[0], 0.0);
  EXPECT_LE(util[0], 1.0 + 1e-9);
}

TEST(NetworkSim, MoreHopsMoreFailures) {
  // Sec. III-C: the tagged class crossing h congested links fails at
  // least as often as the class crossing one of them.
  const std::vector<CallProfile> pool = {TwoLevel(1.0, 2.0)};
  SimulationOptions options = BaseOptions();
  options.link_capacities_bps = {8.0, 8.0, 8.0, 8.0};
  // Background single-hop load on every link.
  for (std::size_t l = 0; l < 4; ++l) {
    options.classes.push_back({{{l}}, 0.05, 0});
  }
  options.classes.push_back({{{0}}, 0.01, 0});          // 1-hop tagged
  options.classes.push_back({{{0, 1, 2, 3}}, 0.01, 0}); // 4-hop tagged
  Rng rng(5);
  const SimulationResult r = RunSimulation(pool, options, rng);
  const double one_hop = r.per_class[4].overall_failure_probability();
  const double four_hop = r.per_class[5].overall_failure_probability();
  EXPECT_GE(four_hop, one_hop);
  EXPECT_GT(four_hop, 0.0);
}

TEST(NetworkSim, AmpleCapacityNoFailuresNoBlocks) {
  const std::vector<CallProfile> pool = {TwoLevel(1.0, 2.0)};
  SimulationOptions options = BaseOptions();
  options.link_capacities_bps = {1e6, 1e6};
  options.classes.push_back({{{0, 1}}, 0.05, 0});
  Rng rng(7);
  const SimulationResult r = RunSimulation(pool, options, rng);
  EXPECT_EQ(r.per_class[0].blocked_calls, 0);
  EXPECT_EQ(r.per_class[0].failed_attempts, 0);
}

TEST(NetworkSim, LoadBalancingUsesBothRoutes) {
  // Two parallel links; one class with both as candidates. Least-loaded
  // routing must spread reservations across them.
  const std::vector<CallProfile> pool = {TwoLevel(1.0, 2.0)};
  SimulationOptions options = BaseOptions();
  options.link_capacities_bps = {10.0, 10.0};
  options.classes.push_back({{{0}, {1}}, 0.15, 0});
  options.least_loaded_routing = true;
  Rng rng(9);
  const SimulationResult r = RunSimulation(pool, options, rng);
  const std::vector<double> util = MeanLinkUtilization(options, r);
  EXPECT_GT(util[0], 0.05);
  EXPECT_GT(util[1], 0.05);
  EXPECT_LT(std::abs(util[0] - util[1]), 0.2);
}

TEST(NetworkSim, FirstFitPilesOntoPrimaryRoute) {
  // Without load balancing the first candidate is used whenever it fits,
  // so the alternate stays (almost) idle at moderate load.
  const std::vector<CallProfile> pool = {TwoLevel(1.0, 1.0)};
  SimulationOptions options = BaseOptions();
  options.link_capacities_bps = {20.0, 20.0};
  options.classes.push_back({{{0}, {1}}, 0.05, 0});
  options.least_loaded_routing = false;
  Rng rng(11);
  const SimulationResult r = RunSimulation(pool, options, rng);
  const std::vector<double> util = MeanLinkUtilization(options, r);
  EXPECT_GT(util[0], 5.0 * std::max(util[1], 1e-6));
}

TEST(NetworkSim, LoadBalancingReducesFailures) {
  // The paper's hypothesis: alternate routes + call-level balancing can
  // compensate the per-hop failure growth.
  const std::vector<CallProfile> pool = {TwoLevel(1.0, 3.0)};
  SimulationOptions options = BaseOptions();
  options.link_capacities_bps = {12.0, 12.0};
  options.classes.push_back({{{0}, {1}}, 0.12, 0});
  Rng a(13);
  options.least_loaded_routing = false;
  const SimulationResult unbalanced = RunSimulation(pool, options, a);
  Rng b(13);
  options.least_loaded_routing = true;
  const SimulationResult balanced = RunSimulation(pool, options, b);
  EXPECT_LE(balanced.per_class[0].overall_failure_probability(),
            unbalanced.per_class[0].overall_failure_probability() + 1e-9);
}

TEST(NetworkSim, ReservationsNeverExceedCapacity) {
  const std::vector<CallProfile> pool = {TwoLevel(2.0, 5.0)};
  SimulationOptions options = BaseOptions();
  options.link_capacities_bps = {9.0, 7.0};
  options.classes.push_back({{{0, 1}}, 0.2, 0});
  Rng rng(15);
  const SimulationResult r = RunSimulation(pool, options, rng);
  const std::vector<double> util = MeanLinkUtilization(options, r);
  for (double u : util) {
    EXPECT_LE(u, 1.0 + 1e-9);
  }
  EXPECT_GT(r.per_class[0].blocked_calls, 0);
}

}  // namespace
}  // namespace rcbr::sim
