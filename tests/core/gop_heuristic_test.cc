#include "core/gop_heuristic.h"

#include <optional>

#include <gtest/gtest.h>

#include "core/online_heuristic.h"
#include "core/schedule.h"
#include "trace/star_wars.h"
#include "util/error.h"
#include "util/rng.h"

namespace rcbr::core {
namespace {

// A four-frame GOP, e.g. IBBP.
constexpr std::size_t kGop = 4;

HeuristicOptions BaseOptions() {
  HeuristicOptions options;
  options.low_threshold_bits = 2.0;
  options.high_threshold_bits = 10.0;
  options.time_constant_slots = 5;
  options.granularity_bits_per_slot = 1.0;
  options.initial_rate_bits_per_slot = 4.0;
  return options;
}

TEST(GopAwareController, Validation) {
  HeuristicOptions bad = BaseOptions();
  EXPECT_THROW((GopAwareController{bad, 0}), InvalidArgument);
  bad = BaseOptions();
  bad.granularity_bits_per_slot = 0;
  EXPECT_THROW((GopAwareController{bad, kGop}), InvalidArgument);
  bad = BaseOptions();
  bad.low_threshold_bits = 20.0;
  EXPECT_THROW((GopAwareController{bad, kGop}), InvalidArgument);
}

TEST(GopAwareController, PeriodicPatternIsInvisible) {
  // A strictly periodic workload matching the configured pattern should
  // never trigger a renegotiation once the per-position estimators have
  // locked on: the pattern-average is constant.
  HeuristicOptions options = BaseOptions();
  // Pattern IBBP with sizes 10,2,2,6: mean 5.
  options.initial_rate_bits_per_slot = 5.0;
  GopAwareController c(options, kGop);
  const double pattern[4] = {10.0, 2.0, 2.0, 6.0};
  for (int t = 0; t < 400; ++t) {
    c.Step(pattern[t % 4], c.current_rate());
  }
  EXPECT_EQ(c.renegotiations(), 0);
  EXPECT_NEAR(c.estimate_bits_per_slot(), 5.0, 0.1);
}

TEST(GopAwareController, TracksSceneChange) {
  HeuristicOptions options = BaseOptions();
  options.initial_rate_bits_per_slot = 5.0;
  GopAwareController c(options, kGop);
  const double quiet[4] = {10.0, 2.0, 2.0, 6.0};   // mean 5
  const double action[4] = {30.0, 6.0, 6.0, 18.0}; // mean 15
  for (int t = 0; t < 100; ++t) c.Step(quiet[t % 4], c.current_rate());
  EXPECT_EQ(c.renegotiations(), 0);
  bool went_up = false;
  for (int t = 0; t < 100 && !went_up; ++t) {
    const auto request = c.Step(action[t % 4], c.current_rate());
    if (request.has_value() && *request > 5.0) went_up = true;
  }
  EXPECT_TRUE(went_up);
}

TEST(GopAwareController, RespectsRateCap) {
  HeuristicOptions options = BaseOptions();
  options.max_rate_bits_per_slot = 7.0;
  GopAwareController c(options, kGop);
  for (int t = 0; t < 200; ++t) {
    const auto request = c.Step(50.0, c.current_rate());
    if (request.has_value()) {
      EXPECT_LE(*request, 7.0);
    }
  }
}

TEST(GopAwareController, DeniedRequestRollsBack) {
  HeuristicOptions options = BaseOptions();
  GopAwareController c(options, kGop);
  for (int t = 0; t < 50; ++t) {
    const auto request = c.Step(20.0, 4.0);
    if (request.has_value()) {
      EXPECT_DOUBLE_EQ(c.current_rate(), *request);
      c.OnRequestDenied(4.0);
      EXPECT_DOUBLE_EQ(c.current_rate(), 4.0);
      return;
    }
  }
  FAIL() << "controller never triggered";
}

TEST(GopAwareController, DenialCooldownSuppressesRetriggers) {
  HeuristicOptions options = BaseOptions();
  options.denial_cooldown_slots = 5;
  GopAwareController c(options, kGop);
  // Drive the buffer far above B_h so eq. 8 fires every slot.
  std::optional<double> request;
  int slot = 0;
  while (!request.has_value()) {
    request = c.Step(50.0, 4.0);
    ++slot;
    ASSERT_LT(slot, 10);
  }
  c.OnRequestDenied(4.0);
  // The trigger condition still holds on every following slot, but the
  // cooldown keeps the source quiet for exactly 5 slots.
  for (int k = 0; k < 5; ++k) {
    EXPECT_FALSE(c.Step(50.0, 4.0).has_value()) << "quiet slot " << k;
  }
  EXPECT_TRUE(c.Step(50.0, 4.0).has_value());
}

TEST(GopHeuristicSchedule, FeasibleAndTracksWorkload) {
  const trace::FrameTrace clip = trace::MakeStarWarsTrace(21, 4800);
  HeuristicOptions options;
  options.low_threshold_bits = 10e3;
  options.high_threshold_bits = 150e3;
  options.time_constant_slots = 5;
  options.granularity_bits_per_slot = 64e3 / clip.fps();
  options.initial_rate_bits_per_slot = clip.mean_rate() / clip.fps();
  GopAwareController controller(options, 12);
  const PiecewiseConstant schedule =
      ComputeHeuristicSchedule(clip.frame_bits(), controller);
  const ScheduleMetrics m = EvaluateSchedule(
      clip.frame_bits(), schedule, 1e15, clip.slot_seconds(), {});
  EXPECT_TRUE(m.feasible);
  EXPECT_GT(m.bandwidth_efficiency, 0.5);
}

TEST(GopHeuristicSchedule, FewerRenegotiationsThanPlainAr1AtSameEfficiency) {
  // The headline claim of the extension: on GOP-structured traffic the
  // pattern-aware estimator renegotiates less for at least comparable
  // efficiency.
  const trace::FrameTrace clip = trace::MakeStarWarsTrace(23, 9600);
  const double delta = 64e3 / clip.fps();
  const double initial = clip.mean_rate() / clip.fps();

  HeuristicOptions plain;
  plain.low_threshold_bits = 10e3;
  plain.high_threshold_bits = 150e3;
  plain.time_constant_slots = 5;
  plain.granularity_bits_per_slot = delta;
  plain.initial_rate_bits_per_slot = initial;
  const PiecewiseConstant ar1 =
      ComputeHeuristicSchedule(clip.frame_bits(), plain);

  GopAwareController aware(plain, 12);
  const PiecewiseConstant gop =
      ComputeHeuristicSchedule(clip.frame_bits(), aware);

  EXPECT_LT(gop.change_count(), ar1.change_count());
  const double ar1_eff = initial / ar1.Mean();
  const double gop_eff = initial / gop.Mean();
  EXPECT_GE(gop_eff, ar1_eff - 0.05);
}

}  // namespace
}  // namespace rcbr::core
