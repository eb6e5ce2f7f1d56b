#include "sim/call_sim.h"

#include <map>

#include <gtest/gtest.h>

#include "obs/recorder.h"
#include "sim/engine/simulation.h"
#include "util/error.h"

namespace rcbr::sim {
namespace {

CallProfile FlatProfile(double rate_bps, std::int64_t slots,
                        double slot_seconds = 1.0) {
  return {PiecewiseConstant::Constant(rate_bps, slots), slot_seconds};
}

CallProfile TwoLevelProfile(double lo, double hi, std::int64_t slots,
                            double slot_seconds = 1.0) {
  // First half at lo, second half at hi.
  return {PiecewiseConstant({{0, lo}, {slots / 2, hi}}, slots),
          slot_seconds};
}

CallSimOptions BaseOptions() {
  CallSimOptions options;
  options.capacity_bps = 10.0;
  options.arrival_rate_per_s = 0.5;
  options.warmup_seconds = 50.0;
  options.sample_intervals = 5;
  options.interval_seconds = 100.0;
  return options;
}

TEST(CallSim, Validation) {
  CapacityOnlyPolicy policy;
  Rng rng(1);
  CallSimOptions options = BaseOptions();
  EXPECT_THROW(RunCallSim({}, policy, options, rng), InvalidArgument);
  const std::vector<CallProfile> pool = {FlatProfile(1.0, 10)};
  options.capacity_bps = 0;
  EXPECT_THROW(RunCallSim(pool, policy, options, rng), InvalidArgument);
  options = BaseOptions();
  options.arrival_rate_per_s = 0;
  EXPECT_THROW(RunCallSim(pool, policy, options, rng), InvalidArgument);
  options = BaseOptions();
  options.sample_intervals = 0;
  EXPECT_THROW(RunCallSim(pool, policy, options, rng), InvalidArgument);
}

TEST(CallSim, FlatCallsNeverRenegotiate) {
  const std::vector<CallProfile> pool = {FlatProfile(1.0, 20)};
  CapacityOnlyPolicy policy;
  Rng rng(2);
  const CallSimResult r = RunCallSim(pool, policy, BaseOptions(), rng);
  EXPECT_EQ(r.upward_attempts, 0);
  EXPECT_EQ(r.failed_attempts, 0);
  EXPECT_GT(r.offered_calls, 0);
}

TEST(CallSim, UtilizationBetweenZeroAndOne) {
  const std::vector<CallProfile> pool = {FlatProfile(1.0, 20)};
  CapacityOnlyPolicy policy;
  Rng rng(3);
  const CallSimResult r = RunCallSim(pool, policy, BaseOptions(), rng);
  EXPECT_GE(r.utilization.min(), 0.0);
  EXPECT_LE(r.utilization.max(), 1.0 + 1e-9);
  EXPECT_GT(r.utilization.mean(), 0.0);
}

TEST(CallSim, HeavyLoadBlocksCalls) {
  // Each call wants the whole link for 1000 s; arrivals every ~2 s.
  const std::vector<CallProfile> pool = {FlatProfile(10.0, 1000)};
  CapacityOnlyPolicy policy;
  Rng rng(4);
  const CallSimResult r = RunCallSim(pool, policy, BaseOptions(), rng);
  EXPECT_GT(r.blocked_calls, 0);
  EXPECT_GT(r.blocking_probability(), 0.5);
}

TEST(CallSim, RenegotiationFailuresUnderContention) {
  // Calls double their rate halfway; with a tight link some upward
  // renegotiations must fail.
  const std::vector<CallProfile> pool = {TwoLevelProfile(1.0, 2.0, 100)};
  CapacityOnlyPolicy policy;
  CallSimOptions options = BaseOptions();
  options.capacity_bps = 8.0;
  options.arrival_rate_per_s = 0.2;
  options.warmup_seconds = 200.0;
  options.sample_intervals = 10;
  options.interval_seconds = 200.0;
  Rng rng(5);
  const CallSimResult r = RunCallSim(pool, policy, options, rng);
  EXPECT_GT(r.upward_attempts, 0);
  EXPECT_GT(r.failed_attempts, 0);
  EXPECT_GT(r.overall_failure_probability(), 0.0);
  EXPECT_LT(r.overall_failure_probability(), 1.0);
}

TEST(CallSim, FailedCallKeepsOldRate) {
  // One call occupying 6/10; a second call at 3 requesting 8 must fail
  // its upgrade yet keep running at 3 (reserved never exceeds capacity).
  const std::vector<CallProfile> pool = {TwoLevelProfile(3.0, 8.0, 1000)};
  CapacityOnlyPolicy policy;
  CallSimOptions options = BaseOptions();
  options.capacity_bps = 10.0;
  options.arrival_rate_per_s = 0.05;
  Rng rng(6);
  const CallSimResult r = RunCallSim(pool, policy, options, rng);
  // Utilization can never exceed 1 if grants respect capacity.
  EXPECT_LE(r.utilization.max(), 1.0 + 1e-9);
}

TEST(CallSim, DeterministicGivenSeed) {
  const std::vector<CallProfile> pool = {TwoLevelProfile(1.0, 2.0, 50)};
  CapacityOnlyPolicy p1;
  CapacityOnlyPolicy p2;
  Rng a(7);
  Rng b(7);
  const CallSimResult r1 = RunCallSim(pool, p1, BaseOptions(), a);
  const CallSimResult r2 = RunCallSim(pool, p2, BaseOptions(), b);
  EXPECT_EQ(r1.offered_calls, r2.offered_calls);
  EXPECT_EQ(r1.blocked_calls, r2.blocked_calls);
  EXPECT_EQ(r1.upward_attempts, r2.upward_attempts);
  EXPECT_DOUBLE_EQ(r1.utilization.mean(), r2.utilization.mean());
}

TEST(CallSim, SampleCountMatchesIntervals) {
  const std::vector<CallProfile> pool = {FlatProfile(1.0, 20)};
  CapacityOnlyPolicy policy;
  CallSimOptions options = BaseOptions();
  options.sample_intervals = 7;
  Rng rng(8);
  const CallSimResult r = RunCallSim(pool, policy, options, rng);
  EXPECT_EQ(r.failure_probability.count(), 7u);
  EXPECT_EQ(r.utilization.count(), 7u);
}

TEST(CallSim, PolicyRejectionsBecomeBlocks) {
  class RejectAll final : public AdmissionPolicy {
   public:
    bool Admit(double, const LinkView&, double) override { return false; }
    void OnAdmitted(double, std::uint64_t, double) override {
      FAIL() << "admitted despite rejection";
    }
    void OnRateChange(double, std::uint64_t, double, double) override {}
    void OnDeparture(double, std::uint64_t, double) override {}
  };
  const std::vector<CallProfile> pool = {FlatProfile(1.0, 20)};
  RejectAll policy;
  Rng rng(9);
  const CallSimResult r = RunCallSim(pool, policy, BaseOptions(), rng);
  EXPECT_EQ(r.blocked_calls, r.offered_calls);
  EXPECT_DOUBLE_EQ(r.utilization.mean(), 0.0);
}

TEST(CallSim, PolicySeesConsistentLinkView) {
  // The notifications are a policy's only view of the calls: at every
  // decision the rates it was told about must add up to the link's
  // reservation. Under a depth-3 ladder the saturated link downgrades
  // arrivals and promotes them again as capacity frees up, so every kind
  // of reservation change is covered.
  class Checker final : public AdmissionPolicy {
   public:
    bool Admit(double now, const LinkView& view, double rate) override {
      return AdmitAtRung(now, view, rate, 0);
    }
    bool AdmitAtRung(double, const LinkView& view, double,
                     std::size_t) override {
      EXPECT_GE(view.reserved_bps, -1e-9);
      EXPECT_LE(view.reserved_bps, view.capacity_bps + 1e-9);
      double sum = 0;
      for (const auto& [id, rate] : rates_) sum += rate;
      EXPECT_NEAR(sum, view.reserved_bps, 1e-6);
      return true;
    }
    void OnAdmitted(double, std::uint64_t id, double rate) override {
      EXPECT_TRUE(rates_.emplace(id, rate).second) << id;
    }
    void OnRateChange(double, std::uint64_t id, double old_rate,
                      double new_rate) override {
      const auto it = rates_.find(id);
      ASSERT_NE(it, rates_.end()) << id;
      EXPECT_EQ(it->second, old_rate) << id;
      it->second = new_rate;
    }
    void OnDeparture(double, std::uint64_t id, double rate) override {
      const auto it = rates_.find(id);
      ASSERT_NE(it, rates_.end()) << id;
      EXPECT_EQ(it->second, rate) << id;
      rates_.erase(it);
    }

   private:
    std::map<std::uint64_t, double> rates_;
  };
  const std::vector<CallProfile> pool = {TwoLevelProfile(1.0, 2.0, 50)};
  {
    Checker policy;
    Rng rng(10);
    RunCallSim(pool, policy, BaseOptions(), rng);
  }
  CallSimOptions options = BaseOptions();
  options.ladder = RateLadder::FromScales({1.0, 0.75, 0.5}, {1.0, 0.8, 0.5});
  Checker policy;
  Rng rng(10);
  const CallSimResult r = RunCallSim(pool, policy, options, rng);
  EXPECT_GT(r.downgraded_admits, 0);
  EXPECT_GT(r.upgrades, 0);
}

TEST(CallSim, IsOneEngineRun) {
  // RunCallSim is the single-link engine run: same counters, same spans,
  // same trace events, byte for byte.
  const std::vector<CallProfile> pool = {TwoLevelProfile(1.0, 3.0, 40),
                                         TwoLevelProfile(2.0, 1.0, 30)};
  const CallSimOptions options = BaseOptions();
  auto snapshot = [](obs::Recorder& recorder) {
    std::string trace;
    obs::AppendJsonl(0, recorder.events()->Head(), trace);
    return trace + recorder.metrics().Snapshot().ToJson();
  };

  obs::Recorder via_driver({.event_capacity = 4096});
  CallSimOptions driver_options = options;
  driver_options.recorder = &via_driver;
  CapacityOnlyPolicy p1;
  Rng a(11);
  RunCallSim(pool, p1, driver_options, a);

  obs::Recorder direct({.event_capacity = 4096});
  engine::SimulationOptions sim;
  sim.link_capacities_bps = {options.capacity_bps};
  sim.classes.resize(1);
  sim.classes[0].candidate_routes = {{0}};
  sim.classes[0].arrival_rate_per_s = options.arrival_rate_per_s;
  sim.classes[0].uniform_profile_pick = true;
  sim.warmup_seconds = options.warmup_seconds;
  sim.sample_intervals = options.sample_intervals;
  sim.interval_seconds = options.interval_seconds;
  sim.admission_tolerance_bps = 0;
  CapacityOnlyPolicy p2;
  sim.policy = &p2;
  sim.recorder = &direct;
  Rng b(11);
  engine::RunSimulation(pool, sim, b);

  EXPECT_EQ(snapshot(via_driver), snapshot(direct));
  if constexpr (obs::kEnabled) {
    EXPECT_NE(snapshot(direct).find("reneg_deny"), std::string::npos);
    EXPECT_NE(snapshot(direct).find("engine.offered_calls"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace rcbr::sim
