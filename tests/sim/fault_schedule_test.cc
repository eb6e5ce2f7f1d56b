// FaultSchedule: the one compiler of a FaultPlan's combination rules.
//
// The WallClockScheduleTest cases pin it at slot-tick scale, the clock
// the daemon's impairment proxy keys off frame slot stamps (its
// determinism rests on these boundaries being pure tick arithmetic).
// The FaultScheduleTest cases pin what both scales share, and check that
// the seconds-scale FaultTimeline the simulator advances and the
// tick-scale schedule the proxy queries agree on one plan.

#include "sim/fault/fault_schedule.h"

#include <cstdint>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "sim/fault/fault_timeline.h"
#include "util/error.h"
#include "util/rng.h"

namespace rcbr::sim::fault {
namespace {

constexpr double kForever = std::numeric_limits<double>::infinity();

FaultEvent Burst(double t, double dur, double loss, double delay = 0) {
  FaultEvent e;
  e.time_s = t;
  e.kind = FaultKind::kRmLossBurst;
  e.duration_s = dur;
  e.loss_probability = loss;
  e.extra_delay_s = delay;
  return e;
}

FaultEvent At(double t, FaultKind kind, std::size_t link = 0) {
  FaultEvent e;
  e.time_s = t;
  e.kind = kind;
  e.link = link;
  return e;
}

double LossAt(const FaultSchedule& schedule, double t) {
  return schedule.ConditionsAt(t).extra_loss_probability;
}

double DelayAt(const FaultSchedule& schedule, double t) {
  return schedule.ConditionsAt(t).extra_delay_s;
}

TEST(WallClockScheduleTest, EmptyPlanImpairsNothing) {
  const FaultSchedule schedule(FaultPlan{}, 100.0);
  EXPECT_EQ(LossAt(schedule, 0), 0.0);
  EXPECT_EQ(DelayAt(schedule, 123), 0.0);
  EXPECT_FALSE(schedule.LinkDownAt(0, 0));
  EXPECT_TRUE(schedule.CrashesIn(-1, 1000).empty());
  EXPECT_TRUE(schedule.TransitionsIn(-kForever, kForever).empty());
}

TEST(WallClockScheduleTest, BurstWindowBoundariesAreHalfOpen) {
  FaultPlan plan;
  plan.Add(Burst(1.0, 0.5, 0.3, 2.0));
  const FaultSchedule schedule(plan, 100.0);  // tick = 10 ms
  // [1.0, 1.5) s -> ticks [100, 150).
  EXPECT_EQ(LossAt(schedule, 99), 0.0);
  EXPECT_EQ(LossAt(schedule, 100), 0.3);
  EXPECT_EQ(LossAt(schedule, 149), 0.3);
  EXPECT_EQ(LossAt(schedule, 150), 0.0);
  EXPECT_EQ(DelayAt(schedule, 120), 2.0);
  EXPECT_EQ(DelayAt(schedule, 150), 0.0);
  // The window opens and closes at those ticks.
  const auto transitions = schedule.TransitionsIn(-kForever, kForever);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0].time, 100.0);
  EXPECT_FALSE(transitions[0].burst_end);
  EXPECT_EQ(transitions[1].time, 150.0);
  EXPECT_TRUE(transitions[1].burst_end);
}

TEST(WallClockScheduleTest, OverlappingBurstsCombineByMax) {
  FaultPlan plan;
  plan.Add(Burst(0.0, 1.0, 0.2, 5.0));
  plan.Add(Burst(0.5, 1.0, 0.6, 1.0));
  const FaultSchedule schedule(plan, 10.0);
  EXPECT_EQ(LossAt(schedule, 2), 0.2);
  EXPECT_EQ(LossAt(schedule, 7), 0.6);   // max, not sum
  EXPECT_EQ(DelayAt(schedule, 7), 5.0);  // max per axis
  EXPECT_EQ(LossAt(schedule, 12), 0.6);  // closing one keeps the other
  EXPECT_EQ(DelayAt(schedule, 12), 1.0);
  EXPECT_EQ(LossAt(schedule, 15), 0.0);
}

TEST(WallClockScheduleTest, ZeroDurationBurstIsDropped) {
  FaultPlan plan;
  plan.Add(Burst(1.0, 0.0, 1.0));
  plan.Add(Burst(2.0, 0.005, 1.0));  // inside one 10 ms tick
  const FaultSchedule schedule(plan, 100.0);
  EXPECT_EQ(LossAt(schedule, 100), 0.0);
  EXPECT_EQ(LossAt(schedule, 200), 0.0);
  // Each burst still starts (the timeline counts it); no window ends.
  for (const FaultTransition& t :
       schedule.TransitionsIn(-kForever, kForever)) {
    EXPECT_FALSE(t.burst_end);
    EXPECT_EQ(t.conditions.extra_loss_probability, 0.0);
  }
}

TEST(WallClockScheduleTest, DownUpPairsArePerLink) {
  FaultPlan plan;
  plan.Add(At(1.0, FaultKind::kLinkDown, 0));
  plan.Add(At(2.0, FaultKind::kLinkUp, 0));
  plan.Add(At(1.5, FaultKind::kLinkDown, 1));
  plan.Add(At(1.8, FaultKind::kLinkUp, 1));
  const FaultSchedule schedule(plan, 10.0);
  EXPECT_FALSE(schedule.LinkDownAt(0, 9));
  EXPECT_TRUE(schedule.LinkDownAt(0, 10));
  EXPECT_TRUE(schedule.LinkDownAt(0, 19));
  EXPECT_FALSE(schedule.LinkDownAt(0, 20));
  EXPECT_FALSE(schedule.LinkDownAt(1, 10));
  EXPECT_TRUE(schedule.LinkDownAt(1, 15));
  EXPECT_FALSE(schedule.LinkDownAt(1, 18));
}

TEST(WallClockScheduleTest, UnpairedDownLastsForever) {
  FaultPlan plan;
  plan.Add(At(1.0, FaultKind::kLinkDown, 0));
  const FaultSchedule schedule(plan, 10.0);
  EXPECT_TRUE(schedule.LinkDownAt(0, 10));
  EXPECT_TRUE(schedule.LinkDownAt(0, 1000000));
}

TEST(WallClockScheduleTest, CrashesInIsHalfOpenOnTheLeft) {
  FaultPlan plan;
  plan.Add(At(0.0, FaultKind::kControllerCrash, 0));
  plan.Add(At(1.0, FaultKind::kControllerCrash, 1));
  plan.Add(At(1.0, FaultKind::kControllerCrash, 2));
  const FaultSchedule schedule(plan, 10.0);
  EXPECT_EQ(schedule.CrashesIn(-kForever, kForever).size(), 3u);
  // Tick-0 crash needs after = -1.
  EXPECT_EQ(schedule.CrashesIn(-1, 0).size(), 1u);
  EXPECT_TRUE(schedule.CrashesIn(0, 9).empty());
  // Same-tick crashes fire together, in schedule order.
  const std::vector<std::size_t> at_ten = schedule.CrashesIn(9, 10);
  ASSERT_EQ(at_ten.size(), 2u);
  EXPECT_EQ(at_ten[0], 1u);
  EXPECT_EQ(at_ten[1], 2u);
  // A watermark that already passed them reports nothing.
  EXPECT_TRUE(schedule.CrashesIn(10, 100).empty());
}

TEST(FaultScheduleTest, RepeatedDownAndSpuriousUpChangeNothing) {
  FaultPlan plan;
  plan.Add(At(0.5, FaultKind::kLinkUp, 0));    // spurious: link is up
  plan.Add(At(1.0, FaultKind::kLinkDown, 0));
  plan.Add(At(2.0, FaultKind::kLinkDown, 0));  // already down
  plan.Add(At(3.0, FaultKind::kLinkUp, 0));
  plan.Add(At(4.0, FaultKind::kLinkUp, 0));    // already up
  const FaultSchedule schedule(plan, 10.0);
  EXPECT_FALSE(schedule.LinkDownAt(0, 5));
  EXPECT_TRUE(schedule.LinkDownAt(0, 10));
  EXPECT_TRUE(schedule.LinkDownAt(0, 25));
  EXPECT_FALSE(schedule.LinkDownAt(0, 30));
  EXPECT_FALSE(schedule.LinkDownAt(0, 1000));
  // Only the down at tick 10 and the up at tick 30 are transitions.
  const auto transitions = schedule.TransitionsIn(-kForever, kForever);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0].event.kind, FaultKind::kLinkDown);
  EXPECT_EQ(transitions[0].time, 10.0);
  EXPECT_EQ(transitions[1].event.kind, FaultKind::kLinkUp);
  EXPECT_EQ(transitions[1].time, 30.0);
}

TEST(FaultScheduleTest, BurstEndsBeforeASameTimeEvent) {
  FaultPlan plan;
  plan.Add(Burst(1.0, 2.0, 0.7));
  plan.Add(At(3.0, FaultKind::kControllerCrash, 0));
  plan.Add(Burst(3.0, 1.0, 0.4));
  const FaultSchedule schedule(plan);  // seconds
  const auto transitions = schedule.TransitionsIn(2.0, 3.0);
  ASSERT_EQ(transitions.size(), 3u);
  // The first burst is over when the crash fires; the second, later in
  // plan order, has not started yet.
  EXPECT_TRUE(transitions[0].burst_end);
  EXPECT_EQ(transitions[1].event.kind, FaultKind::kControllerCrash);
  EXPECT_EQ(transitions[1].conditions.extra_loss_probability, 0.0);
  EXPECT_EQ(transitions[2].conditions.extra_loss_probability, 0.4);
  EXPECT_EQ(LossAt(schedule, 2.999), 0.7);
  EXPECT_EQ(LossAt(schedule, 3.0), 0.4);
}

TEST(FaultScheduleTest, RejectsBadTicksPerSecond) {
  EXPECT_THROW(FaultSchedule(FaultPlan{}, 0.0), InvalidArgument);
  EXPECT_THROW(FaultSchedule(FaultPlan{}, kForever), InvalidArgument);
}

// A seeded plan whose every time is k / kTicksPerSecond. The tick rate is
// a power of two, so k / tps and (k / tps) * tps are exact and the plan
// means the same at both scales.
constexpr double kTicksPerSecond = 8.0;
constexpr std::size_t kLinks = 3;
constexpr std::int64_t kPlanTicks = 200;

FaultPlan GridPlan(std::uint64_t seed) {
  Rng rng(seed);
  FaultPlan plan;
  for (int i = 0; i < 60; ++i) {
    const double t =
        static_cast<double>(rng.UniformInt(0, kPlanTicks)) / kTicksPerSecond;
    const auto link = static_cast<std::size_t>(rng.UniformInt(0, kLinks - 1));
    switch (rng.UniformInt(0, 3)) {
      case 0:
        plan.Add(Burst(t,
                       static_cast<double>(rng.UniformInt(0, 12)) /
                           kTicksPerSecond,
                       rng.Uniform(), rng.Uniform(0.0, 0.5)));
        break;
      case 1:
        plan.Add(At(t, FaultKind::kLinkDown, link));
        break;
      case 2:
        plan.Add(At(t, FaultKind::kLinkUp, link));
        break;
      default:
        plan.Add(At(t, FaultKind::kControllerCrash, link));
        break;
    }
  }
  return plan;
}

TEST(FaultScheduleTest, SecondsTimelineMatchesTickScheduleOnAPowerOfTwoGrid) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const FaultPlan plan = GridPlan(seed);
    FaultTimeline timeline(&plan, kLinks);
    const FaultSchedule ticks(plan, kTicksPerSecond);
    std::vector<std::size_t> crashed;
    const auto record_crashes = [&](const FaultEvent& event, double) {
      if (event.kind == FaultKind::kControllerCrash) {
        crashed.push_back(event.link);
      }
    };
    for (std::int64_t k = 0; k <= kPlanTicks + 16; ++k) {
      const double tick = static_cast<double>(k);
      crashed.clear();
      timeline.AdvanceTo(tick / kTicksPerSecond, record_crashes);
      ASSERT_EQ(timeline.conditions().extra_loss_probability,
                LossAt(ticks, tick))
          << "seed " << seed << " tick " << k;
      ASSERT_EQ(timeline.conditions().extra_delay_s, DelayAt(ticks, tick))
          << "seed " << seed << " tick " << k;
      for (std::size_t link = 0; link < kLinks; ++link) {
        ASSERT_EQ(timeline.link_up(link), !ticks.LinkDownAt(link, tick))
            << "seed " << seed << " tick " << k << " link " << link;
      }
      ASSERT_EQ(crashed, ticks.CrashesIn(tick - 1, tick))
          << "seed " << seed << " tick " << k;
    }
  }
}

}  // namespace
}  // namespace rcbr::sim::fault
