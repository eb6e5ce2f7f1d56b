#include "sim/fluid_queue.h"

#include <limits>

#include <gtest/gtest.h>

#include "util/error.h"

namespace rcbr::sim {
namespace {

TEST(SlottedQueue, LindleyRecursion) {
  SlottedQueue q(kInfiniteBuffer);
  q.Step(10.0, 4.0);
  EXPECT_DOUBLE_EQ(q.occupancy_bits(), 6.0);
  q.Step(2.0, 4.0);
  EXPECT_DOUBLE_EQ(q.occupancy_bits(), 4.0);
  q.Step(0.0, 10.0);
  EXPECT_DOUBLE_EQ(q.occupancy_bits(), 0.0);  // clamps at zero
  EXPECT_DOUBLE_EQ(q.lost_bits(), 0.0);
}

TEST(SlottedQueue, OverflowCountsLoss) {
  SlottedQueue q(5.0);
  const double lost = q.Step(12.0, 2.0);
  EXPECT_DOUBLE_EQ(lost, 5.0);  // 12 - 2 = 10, cap 5
  EXPECT_DOUBLE_EQ(q.occupancy_bits(), 5.0);
  EXPECT_DOUBLE_EQ(q.lost_bits(), 5.0);
  EXPECT_DOUBLE_EQ(q.arrived_bits(), 12.0);
  EXPECT_DOUBLE_EQ(q.LossFraction(), 5.0 / 12.0);
}

TEST(SlottedQueue, MaxOccupancyTracked) {
  SlottedQueue q(kInfiniteBuffer);
  q.Step(10.0, 0.0);
  q.Step(0.0, 8.0);
  EXPECT_DOUBLE_EQ(q.max_occupancy_bits(), 10.0);
}

TEST(SlottedQueue, ZeroBufferLosesEverythingAboveService) {
  SlottedQueue q(0.0);
  q.Step(7.0, 3.0);
  EXPECT_DOUBLE_EQ(q.lost_bits(), 4.0);
  EXPECT_DOUBLE_EQ(q.occupancy_bits(), 0.0);
}

TEST(SlottedQueue, ResetClearsState) {
  SlottedQueue q(5.0);
  q.Step(12.0, 2.0);
  q.Reset();
  EXPECT_DOUBLE_EQ(q.occupancy_bits(), 0.0);
  EXPECT_DOUBLE_EQ(q.lost_bits(), 0.0);
  EXPECT_DOUBLE_EQ(q.arrived_bits(), 0.0);
  EXPECT_DOUBLE_EQ(q.LossFraction(), 0.0);
}

TEST(SlottedQueue, Validation) {
  EXPECT_THROW(SlottedQueue(-1.0), InvalidArgument);
  SlottedQueue q(1.0);
  EXPECT_THROW(q.Step(-1.0, 0.0), InvalidArgument);
  EXPECT_THROW(q.Step(0.0, -1.0), InvalidArgument);
}

TEST(SlottedQueue, RejectsNaNInputs) {
  // NaN would silently poison the Lindley recursion (every comparison is
  // false), so it must fail fast instead.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(SlottedQueue{nan}, InvalidArgument);
  SlottedQueue q(1.0);
  EXPECT_THROW(q.Step(nan, 0.0), InvalidArgument);
  EXPECT_THROW(q.Step(0.0, nan), InvalidArgument);
}

TEST(DrainConstant, NoLossAtPeakRate) {
  const std::vector<double> workload = {5, 1, 9, 3};
  const DrainResult r = DrainConstant(workload, 9.0, 0.0);
  EXPECT_DOUBLE_EQ(r.lost_bits, 0.0);
  EXPECT_DOUBLE_EQ(r.arrived_bits, 18.0);
}

TEST(DrainConstant, KnownLoss) {
  const std::vector<double> workload = {10, 10};
  const DrainResult r = DrainConstant(workload, 4.0, 2.0);
  // Slot 1: q = 10-4 = 6 -> cap 2, lose 4. Slot 2: 2+10-4 = 8 -> lose 6.
  EXPECT_DOUBLE_EQ(r.lost_bits, 10.0);
  EXPECT_DOUBLE_EQ(r.loss_fraction(), 0.5);
}

TEST(DrainSchedule, MatchesConstantWhenFlat) {
  const std::vector<double> workload = {5, 1, 9, 3};
  const auto flat = PiecewiseConstant::Constant(4.0, 4);
  const DrainResult a = DrainSchedule(workload, flat, 6.0);
  const DrainResult b = DrainConstant(workload, 4.0, 6.0);
  EXPECT_DOUBLE_EQ(a.lost_bits, b.lost_bits);
  EXPECT_DOUBLE_EQ(a.max_occupancy_bits, b.max_occupancy_bits);
}

TEST(DrainSchedule, StepRateTracksWorkload) {
  const std::vector<double> workload = {10, 10, 2, 2};
  const PiecewiseConstant schedule({{0, 10.0}, {2, 2.0}}, 4);
  const DrainResult r = DrainSchedule(workload, schedule, 0.0);
  EXPECT_DOUBLE_EQ(r.lost_bits, 0.0);
}

TEST(DrainSchedule, LengthMismatchThrows) {
  const std::vector<double> workload = {1, 2, 3};
  const auto flat = PiecewiseConstant::Constant(1.0, 4);
  EXPECT_THROW(DrainSchedule(workload, flat, 1.0), InvalidArgument);
}

}  // namespace
}  // namespace rcbr::sim
