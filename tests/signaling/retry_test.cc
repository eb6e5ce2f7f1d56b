#include "signaling/retry.h"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "signaling/path.h"
#include "util/error.h"
#include "util/rng.h"

namespace rcbr::signaling {
namespace {

class RetryTest : public ::testing::Test {
 protected:
  void Build(std::vector<double> capacities, double per_hop_delay_s = 0.001) {
    ports_.clear();
    for (double c : capacities) {
      ports_.push_back(std::make_unique<PortController>(c));
    }
    std::vector<PortController*> raw;
    for (auto& p : ports_) raw.push_back(p.get());
    path_ = std::make_unique<SignalingPath>(std::move(raw), per_hop_delay_s);
  }

  std::vector<std::unique_ptr<PortController>> ports_;
  std::unique_ptr<SignalingPath> path_;
};

TEST_F(RetryTest, Validation) {
  Build({1e6});
  Rng rng(1);
  RetryOptions retry;
  LossyChannelOptions channel;
  EXPECT_THROW(RetryingRenegotiator(nullptr, 1, 0.0, retry, channel, &rng),
               InvalidArgument);
  EXPECT_THROW(
      RetryingRenegotiator(path_.get(), 1, 0.0, retry, channel, nullptr),
      InvalidArgument);
  retry.timeout_s = 0;
  EXPECT_THROW(
      RetryingRenegotiator(path_.get(), 1, 0.0, retry, channel, &rng),
      InvalidArgument);
  retry = {};
  retry.max_retries = -1;
  EXPECT_THROW(
      RetryingRenegotiator(path_.get(), 1, 0.0, retry, channel, &rng),
      InvalidArgument);
  retry = {};
  retry.backoff_multiplier = 0.5;
  EXPECT_THROW(
      RetryingRenegotiator(path_.get(), 1, 0.0, retry, channel, &rng),
      InvalidArgument);
  retry = {};
  retry.jitter_fraction = 1.0;
  EXPECT_THROW(
      RetryingRenegotiator(path_.get(), 1, 0.0, retry, channel, &rng),
      InvalidArgument);
  retry = {};
  channel.cell_loss_probability = 1.0;
  EXPECT_THROW(
      RetryingRenegotiator(path_.get(), 1, 0.0, retry, channel, &rng),
      InvalidArgument);
  // The rescind and repair resyncs need per-VCI rates on every hop.
  PortController untracked(1e6, /*track_connections=*/false);
  SignalingPath mixed({ports_[0].get(), &untracked}, 0.001);
  EXPECT_THROW(RetryingRenegotiator(&mixed, 1, 0.0, {}, {}, &rng),
               InvalidArgument);
}

TEST_F(RetryTest, LosslessAcceptsOnFirstAttempt) {
  Build({1e6, 1e6});
  ASSERT_TRUE(path_->SetupConnection(1, 1e5));
  Rng rng(2);
  RetryingRenegotiator source(path_.get(), 1, 1e5, {}, {}, &rng);
  const RenegotiationOutcome out = source.Renegotiate(2e5, 0.0);
  EXPECT_TRUE(out.accepted);
  EXPECT_FALSE(out.timed_out);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_DOUBLE_EQ(out.latency_s, path_->RoundTripSeconds());
  EXPECT_DOUBLE_EQ(source.granted_rate_bps(), 2e5);
  EXPECT_DOUBLE_EQ(source.MaxAbsDriftBps(), 0.0);
  EXPECT_EQ(source.stats().timeouts, 0);
  EXPECT_EQ(source.stats().retries, 0);
}

TEST_F(RetryTest, TotalOutageExhaustsRetriesWithoutDrift) {
  Build({1e9, 1e9});
  ASSERT_TRUE(path_->SetupConnection(1, 1e5));
  Rng rng(3);
  RetryOptions retry;
  retry.max_retries = 2;
  retry.jitter_fraction = 0;
  // Fault-driven outage: every cell is lost in flight.
  ChannelConditions outage;
  outage.extra_loss_probability = 1.0;
  LossyChannelOptions channel;
  channel.conditions = &outage;
  RetryingRenegotiator source(path_.get(), 1, 1e5, retry, channel, &rng);
  const RenegotiationOutcome out = source.Renegotiate(5e5, 0.0);
  EXPECT_FALSE(out.accepted);
  EXPECT_TRUE(out.timed_out);
  EXPECT_EQ(out.attempts, 3);  // first try + 2 retries
  EXPECT_EQ(source.stats().timeouts, 3);
  EXPECT_EQ(source.stats().retries, 2);
  EXPECT_EQ(source.stats().abandoned, 1);
  // Each timeout resynced at the acknowledged rate before retrying, so the
  // abandoned request leaves every hop exactly where it started.
  EXPECT_DOUBLE_EQ(source.granted_rate_bps(), 1e5);
  for (std::size_t k = 0; k < path_->hop_count(); ++k) {
    EXPECT_DOUBLE_EQ(ports_[k]->TrackedRate(1), 1e5) << "hop " << k;
  }
  EXPECT_DOUBLE_EQ(source.MaxAbsDriftBps(), 0.0);
}

TEST_F(RetryTest, NoJitterBackoffLatencyIsExact) {
  Build({1e9});
  ASSERT_TRUE(path_->SetupConnection(1, 1e5));
  Rng rng(4);
  RetryOptions retry;
  retry.timeout_s = 0.05;
  retry.max_retries = 2;
  retry.backoff_base_s = 0.02;
  retry.backoff_multiplier = 2.0;
  retry.jitter_fraction = 0;
  ChannelConditions outage;
  outage.extra_loss_probability = 1.0;
  LossyChannelOptions channel;
  channel.conditions = &outage;
  RetryingRenegotiator source(path_.get(), 1, 1e5, retry, channel, &rng);
  const RenegotiationOutcome out = source.Renegotiate(5e5, 0.0);
  // 3 timeout waits plus backoffs of 0.02 and 0.04 between attempts.
  EXPECT_DOUBLE_EQ(out.latency_s, 3 * 0.05 + 0.02 + 0.04);
}

TEST_F(RetryTest, ExplicitDenialIsNeverRetried) {
  Build({1e9, 2e5});
  ASSERT_TRUE(path_->SetupConnection(1, 1e5));
  Rng rng(5);
  RetryOptions retry;
  retry.max_retries = 5;
  RetryingRenegotiator source(path_.get(), 1, 1e5, retry, {}, &rng);
  const double hop0_before = ports_[0]->utilization_bps();
  const RenegotiationOutcome out = source.Renegotiate(5e5, 0.0);
  EXPECT_FALSE(out.accepted);
  EXPECT_FALSE(out.timed_out);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(source.stats().denials, 1);
  EXPECT_EQ(source.stats().retries, 0);
  // Upstream rollback is byte-exact (same machinery as SignalingPath).
  EXPECT_EQ(ports_[0]->utilization_bps(), hop0_before);
  EXPECT_DOUBLE_EQ(source.granted_rate_bps(), 1e5);
}

TEST_F(RetryTest, DelaySpikeRescindsLateGrant) {
  // The response arrives, but a fault-window delay pushes it past the
  // deadline: the source has moved on, so the stale grant must not stand.
  Build({1e9});
  ASSERT_TRUE(path_->SetupConnection(1, 1e5));
  Rng rng(6);
  RetryOptions retry;
  retry.timeout_s = 0.05;
  retry.max_retries = 1;
  retry.jitter_fraction = 0;
  ChannelConditions spike;
  spike.extra_delay_s = 1.0;  // rtt + 1s >> timeout
  LossyChannelOptions channel;
  channel.conditions = &spike;
  RetryingRenegotiator source(path_.get(), 1, 1e5, retry, channel, &rng);
  const RenegotiationOutcome out = source.Renegotiate(5e5, 0.0);
  EXPECT_FALSE(out.accepted);
  EXPECT_TRUE(out.timed_out);
  EXPECT_EQ(source.stats().timeouts, 2);
  // The port granted each attempt, then the rescinding resync took it back.
  EXPECT_GT(ports_[0]->stats().delta_accepted, 0);
  EXPECT_DOUBLE_EQ(ports_[0]->TrackedRate(1), 1e5);
  EXPECT_DOUBLE_EQ(ports_[0]->utilization_bps(), 1e5);
}

TEST_F(RetryTest, LossyChannelNeverLeavesDriftBehind) {
  // The central invariant of the acked design: whatever happens inside one
  // Renegotiate call (loss mid-path, denial, success), every hop is back
  // in sync with the acknowledged rate by the time it returns.
  Build({1e9, 1e9, 3e5});
  ASSERT_TRUE(path_->SetupConnection(1, 1e5));
  Rng rng(7);
  RetryOptions retry;
  retry.max_retries = 2;
  LossyChannelOptions channel;
  channel.cell_loss_probability = 0.3;
  RetryingRenegotiator source(path_.get(), 1, 1e5, retry, channel, &rng);
  Rng workload(8);
  for (int i = 0; i < 500; ++i) {
    source.Renegotiate(workload.Uniform(5e4, 5e5), static_cast<double>(i));
    // Granted deltas accumulate in the port with FP round-off; "in sync"
    // means within round-off, not bit-equal (a resync makes it exact).
    ASSERT_NEAR(source.MaxAbsDriftBps(), 0.0, 1e-6) << "step " << i;
  }
  // The loss rate must actually have exercised the timeout/retry path.
  EXPECT_GT(source.stats().timeouts, 50);
  EXPECT_GT(source.stats().retries, 50);
  EXPECT_GT(source.stats().denials, 0);
}

TEST_F(RetryTest, ResyncRepairsCrashedController) {
  Build({1e9, 1e9});
  ASSERT_TRUE(path_->SetupConnection(1, 1e5));
  Rng rng(9);
  RetryingRenegotiator source(path_.get(), 1, 1e5, {}, {}, &rng);
  ASSERT_TRUE(source.Renegotiate(3e5, 0.0).accepted);
  ports_[1]->CrashRestart();
  EXPECT_DOUBLE_EQ(ports_[1]->utilization_bps(), 0.0);
  EXPECT_DOUBLE_EQ(source.DriftBps(1), -3e5);
  source.Resync(1.0);
  EXPECT_DOUBLE_EQ(ports_[1]->TrackedRate(1), 3e5);
  EXPECT_DOUBLE_EQ(ports_[1]->utilization_bps(), 3e5);
  EXPECT_DOUBLE_EQ(source.MaxAbsDriftBps(), 0.0);
  EXPECT_EQ(ports_[1]->stats().crashes, 1);
}

TEST_F(RetryTest, PeriodicResyncAfterGrants) {
  Build({1e9});
  ASSERT_TRUE(path_->SetupConnection(1, 0.0));
  Rng rng(10);
  RetryOptions retry;
  retry.resync_every_grants = 2;
  RetryingRenegotiator source(path_.get(), 1, 0.0, retry, {}, &rng);
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(
        source.Renegotiate(1e4 * i, static_cast<double>(i)).accepted);
  }
  EXPECT_EQ(source.stats().resyncs, 3);
}

TEST_F(RetryTest, SameSeedSameOutcomes) {
  // Loss and jitter draws come from the caller's stream in a fixed order,
  // so two identically seeded histories are identical.
  auto run = [](std::uint64_t seed) {
    std::vector<std::unique_ptr<PortController>> ports;
    ports.push_back(std::make_unique<PortController>(1e9));
    ports.push_back(std::make_unique<PortController>(4e5));
    SignalingPath path({ports[0].get(), ports[1].get()}, 0.001);
    path.SetupConnection(1, 1e5);
    Rng rng(seed);
    LossyChannelOptions channel;
    channel.cell_loss_probability = 0.25;
    RetryingRenegotiator source(&path, 1, 1e5, {}, channel, &rng);
    Rng workload(99);
    std::vector<double> history;
    for (int i = 0; i < 200; ++i) {
      source.Renegotiate(workload.Uniform(5e4, 5e5),
                         static_cast<double>(i));
      history.push_back(source.granted_rate_bps());
    }
    history.push_back(static_cast<double>(source.stats().timeouts));
    history.push_back(static_cast<double>(source.stats().retries));
    history.push_back(static_cast<double>(source.stats().denials));
    return history;
  };
  EXPECT_EQ(run(1234), run(1234));
}

// --- The shared backoff contract (also drives net/client reconnects). ---

TEST(BackoffSeconds, ExactWithoutJitter) {
  RetryOptions retry;
  retry.backoff_base_s = 0.02;
  retry.backoff_multiplier = 2.0;
  retry.jitter_fraction = 0;
  // No jitter, no rng draw: passing nullptr must be safe.
  EXPECT_DOUBLE_EQ(BackoffSeconds(retry, 0, nullptr), 0.02);
  EXPECT_DOUBLE_EQ(BackoffSeconds(retry, 1, nullptr), 0.04);
  EXPECT_DOUBLE_EQ(BackoffSeconds(retry, 2, nullptr), 0.08);
  EXPECT_DOUBLE_EQ(BackoffSeconds(retry, 10, nullptr), 0.02 * 1024.0);
}

TEST(BackoffSeconds, JitterAtMaxBackoffStaysBoundedAndDeterministic) {
  RetryOptions retry;
  retry.backoff_base_s = 0.02;
  retry.backoff_multiplier = 2.0;
  retry.jitter_fraction = 0.5;
  // Attempt 30 is far past any real retry budget — the max-backoff
  // regime where a jitter bug (overflow, sign flip) would surface.
  const double nominal = 0.02 * std::pow(2.0, 30.0);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const double backoff = BackoffSeconds(retry, 30, &rng);
    EXPECT_GE(backoff, nominal * 0.5);
    EXPECT_LE(backoff, nominal * 1.5);
  }
  // Bitwise determinism: same seed, same draw sequence.
  Rng a(11), b(11);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(BackoffSeconds(retry, i, &a), BackoffSeconds(retry, i, &b));
  }
}

// --- Wall-clock boundary cases of the retry budget. ---

TEST_F(RetryTest, ZeroRetryBudgetIsASingleTryWithCleanRescind) {
  Build({1e9});
  ASSERT_TRUE(path_->SetupConnection(1, 1e5));
  Rng rng(6);
  RetryOptions retry;
  retry.max_retries = 0;  // one shot, no backoff ever drawn
  retry.jitter_fraction = 0;
  ChannelConditions outage;
  outage.extra_loss_probability = 1.0;
  LossyChannelOptions channel;
  channel.conditions = &outage;
  RetryingRenegotiator source(path_.get(), 1, 1e5, retry, channel, &rng);
  const RenegotiationOutcome out = source.Renegotiate(5e5, 0.0);
  EXPECT_FALSE(out.accepted);
  EXPECT_TRUE(out.timed_out);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(source.stats().retries, 0);
  EXPECT_EQ(source.stats().abandoned, 1);
  // The budget was exactly one timeout wait: no backoff in the latency.
  EXPECT_DOUBLE_EQ(out.latency_s, retry.timeout_s);
  EXPECT_DOUBLE_EQ(ports_[0]->TrackedRate(1), 1e5);
  EXPECT_DOUBLE_EQ(source.MaxAbsDriftBps(), 0.0);
}

TEST_F(RetryTest, ResponseAtTheExactDeadlineIsAccepted) {
  // The deadline comparison is rtt <= timeout: a response landing on the
  // boundary is a grant, one epsilon past it is a timeout.
  Build({1e9}, /*per_hop_delay_s=*/0.025);
  ASSERT_TRUE(path_->SetupConnection(1, 1e5));
  Rng rng(8);
  RetryOptions retry;
  retry.timeout_s = path_->RoundTripSeconds();  // boundary, exactly
  retry.max_retries = 0;
  retry.jitter_fraction = 0;
  LossyChannelOptions channel;
  RetryingRenegotiator source(path_.get(), 1, 1e5, retry, channel, &rng);
  const RenegotiationOutcome out = source.Renegotiate(5e5, 0.0);
  EXPECT_TRUE(out.accepted);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(source.stats().timeouts, 0);

  // Now push the delivery one whisker past the deadline: lost-late.
  ChannelConditions spike;
  spike.extra_delay_s = 1e-9;
  LossyChannelOptions late_channel;
  late_channel.conditions = &spike;
  RetryingRenegotiator late(path_.get(), 1, source.granted_rate_bps(), retry,
                            late_channel, &rng);
  const RenegotiationOutcome out2 = late.Renegotiate(1e5, 1.0);
  EXPECT_FALSE(out2.accepted);
  EXPECT_TRUE(out2.timed_out);
  EXPECT_EQ(late.stats().timeouts, 1);
  // The lost-late grant was rescinded: no drift anywhere.
  EXPECT_DOUBLE_EQ(late.MaxAbsDriftBps(), 0.0);
}

// --- The acked-rung discipline (crash-during-pending-upgrade gap). ---

TEST_F(RetryTest, TimedOutUpgradeProbeKeepsTheWaiterSeat) {
  Build({1e9});
  ASSERT_TRUE(path_->SetupConnection(1, 1e5, /*rung=*/2));
  ASSERT_TRUE(ports_[0]->IsUpgradeWaiter(1));
  Rng rng(9);
  RetryOptions retry;
  retry.max_retries = 1;
  retry.jitter_fraction = 0;
  ChannelConditions outage;
  outage.extra_loss_probability = 1.0;
  LossyChannelOptions channel;
  channel.conditions = &outage;
  RetryingRenegotiator source(path_.get(), 1, 1e5, retry, channel, &rng);
  source.set_rung(2);

  // Probe toward full resolution without committing to it.
  source.SetRequestedRung(0);
  const RenegotiationOutcome out = source.Renegotiate(4e5, 0.0);
  EXPECT_FALSE(out.accepted);
  // Every timeout rescinded with a resync carrying the *acknowledged*
  // rung 2 — not the probe's rung 0, which would have silently removed
  // the call from the upgrade queue while it is still degraded.
  EXPECT_EQ(source.acked_rung(), 2u);
  EXPECT_TRUE(ports_[0]->IsUpgradeWaiter(1));
  EXPECT_DOUBLE_EQ(ports_[0]->TrackedRate(1), 1e5);
}

TEST_F(RetryTest, GrantedUpgradeProbePromotesTheAckedRung) {
  Build({1e9});
  ASSERT_TRUE(path_->SetupConnection(1, 1e5, /*rung=*/2));
  Rng rng(10);
  LossyChannelOptions channel;  // lossless
  RetryingRenegotiator source(path_.get(), 1, 1e5, {}, channel, &rng);
  source.set_rung(2);
  source.SetRequestedRung(0);
  const RenegotiationOutcome out = source.Renegotiate(4e5, 0.0);
  EXPECT_TRUE(out.accepted);
  EXPECT_EQ(source.acked_rung(), 0u);
  EXPECT_EQ(source.rung(), 0u);
  // Rung 0 means fully promoted: the waiter seat is gone.
  EXPECT_FALSE(ports_[0]->IsUpgradeWaiter(1));
}

TEST_F(RetryTest, CrashDuringPendingUpgradeResyncRebuildsTheAckedRung) {
  Build({1e9});
  ASSERT_TRUE(path_->SetupConnection(1, 1e5, /*rung=*/1));
  Rng rng(12);
  RetryOptions retry;
  retry.max_retries = 0;
  retry.jitter_fraction = 0;
  ChannelConditions outage;
  LossyChannelOptions channel;
  channel.conditions = &outage;
  RetryingRenegotiator source(path_.get(), 1, 1e5, retry, channel, &rng);
  source.set_rung(1);

  // The controller crashes while an upgrade probe is pending (probe
  // requested, response never to come because the table is gone).
  source.SetRequestedRung(0);
  ports_[0]->CrashRestart();
  EXPECT_FALSE(ports_[0]->IsUpgradeWaiter(1));  // crash wiped the seat
  outage.extra_loss_probability = 1.0;
  const RenegotiationOutcome out = source.Renegotiate(4e5, 0.0);
  EXPECT_FALSE(out.accepted);

  // The repair resync rebuilds the contract at the acknowledged rung —
  // the call is a rung-1 waiter again, not a phantom rung-0 call.
  outage.extra_loss_probability = 0.0;
  source.Resync(1.0);
  EXPECT_DOUBLE_EQ(ports_[0]->TrackedRate(1), 1e5);
  EXPECT_TRUE(ports_[0]->IsUpgradeWaiter(1));
  EXPECT_EQ(source.acked_rung(), 1u);
  // The still-pending probe remains pending: requested rung unchanged.
  EXPECT_EQ(source.rung(), 0u);
}

// --- The shared acknowledged-request loop (also drives net/client). ---

// One hook call as LoopCalls records it, e.g. "a2" (built piecewise:
// GCC 12 warns -Wrestrict, falsely, on "a" + std::to_string(k)).
std::string HookCall(char hook, std::int64_t k) {
  std::string call(1, hook);
  call += std::to_string(k);
  return call;
}

// Runs RetryLoop over a scripted attempt sequence and returns its hook
// calls in order: "a<k>" attempt, "t<k>" on_timeout, "b<k>" on_backoff.
std::vector<std::string> LoopCalls(std::int64_t max_retries,
                                   std::vector<AttemptEnd> script,
                                   bool link_survives, Rng* rng,
                                   AttemptEnd* end) {
  RetryOptions retry;
  retry.max_retries = max_retries;
  Rng mirror = *rng;
  std::vector<std::string> calls;
  *end = RetryLoop(
      retry, rng,
      [&](std::int64_t k) {
        calls.push_back(HookCall('a', k));
        return static_cast<std::size_t>(k) < script.size()
                   ? script[static_cast<std::size_t>(k)]
                   : AttemptEnd::kTimedOut;
      },
      [&](std::int64_t k) {
        calls.push_back(HookCall('t', k));
        return link_survives;
      },
      [&](std::int64_t k, double backoff) {
        calls.push_back(HookCall('b', k));
        EXPECT_EQ(backoff, BackoffSeconds(retry, k, &mirror));
      });
  // The loop drew from `rng` exactly once per on_backoff call (the
  // mirror replayed those draws), so nothing after the last attempt.
  EXPECT_EQ(rng->Uniform(), mirror.Uniform());
  return calls;
}

TEST(RetryLoop, RescindsEveryTimeoutAndBacksOffOnlyBetweenAttempts) {
  for (const std::int64_t budget : {0, 1, 3}) {
    SCOPED_TRACE(budget);
    Rng rng(21);
    AttemptEnd end = AttemptEnd::kAnswered;
    const std::vector<std::string> calls =
        LoopCalls(budget, {}, /*link_survives=*/true, &rng, &end);
    EXPECT_EQ(end, AttemptEnd::kTimedOut);
    std::vector<std::string> expected;
    for (std::int64_t k = 0; k <= budget; ++k) {
      expected.push_back(HookCall('a', k));
      expected.push_back(HookCall('t', k));
      if (k < budget) expected.push_back(HookCall('b', k));
    }
    EXPECT_EQ(calls, expected);
  }
}

TEST(RetryLoop, AnswerOrAbortEndsTheLoopWithoutRescind) {
  Rng rng(22);
  AttemptEnd end = AttemptEnd::kTimedOut;
  EXPECT_EQ(LoopCalls(3, {AttemptEnd::kTimedOut, AttemptEnd::kAnswered},
                      true, &rng, &end),
            (std::vector<std::string>{"a0", "t0", "b0", "a1"}));
  EXPECT_EQ(end, AttemptEnd::kAnswered);
  EXPECT_EQ(LoopCalls(3, {AttemptEnd::kAborted}, true, &rng, &end),
            (std::vector<std::string>{"a0"}));
  EXPECT_EQ(end, AttemptEnd::kAborted);
}

TEST(RetryLoop, DeadLinkOnTimeoutStopsBeforeAnyBackoff) {
  for (const std::int64_t budget : {0, 1, 3}) {
    SCOPED_TRACE(budget);
    Rng rng(23);
    AttemptEnd end = AttemptEnd::kAnswered;
    EXPECT_EQ(LoopCalls(budget, {}, /*link_survives=*/false, &rng, &end),
              (std::vector<std::string>{"a0", "t0"}));
    EXPECT_EQ(end, AttemptEnd::kAborted);
  }
}

}  // namespace
}  // namespace rcbr::signaling
