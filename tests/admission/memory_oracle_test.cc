// Differential tests: the incremental MemoryPolicy against the
// from-scratch ReferenceMemoryPolicy, over a long seeded operation stream
// and over hand-built cases where rounding in the per-level sums would
// show.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "admission/policies.h"
#include "obs/recorder.h"
#include "reference_memory_policy.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace rcbr::admission {
namespace {

using testing::ReferenceMemoryPolicy;

// engine_mbac's grid: 41 levels, 64 kb/s apart.
constexpr double kTopRate = 2.56e6;

PolicyOptions Options(obs::Recorder* recorder) {
  PolicyOptions options;
  options.target_failure_probability = 1e-4;
  options.rate_grid_bps = UniformGrid(0.0, kTopRate, 41);
  options.recorder = recorder;
  return options;
}

/// A recorder whose event-log head holds every decision of these tests.
obs::RecorderOptions AllDecisions() { return {.event_capacity = 1 << 16}; }

/// The "failure_est" of every admission event in the recorder's head, in
/// decision order.
std::vector<double> FailureEstimates(const obs::Recorder& recorder) {
  std::vector<double> estimates;
  const obs::EventLog* log = recorder.events();
  EXPECT_EQ(log->dropped(), 0);
  for (const obs::TraceEvent& event : log->Head()) {
    if (event.kind != obs::EventKind::kAdmitAccept &&
        event.kind != obs::EventKind::kAdmitReject) {
      continue;
    }
    for (const obs::TraceEvent::Field& field : event.fields) {
      if (field.name != nullptr &&
          std::string_view(field.name) == "failure_est") {
        estimates.push_back(field.value);
      }
    }
  }
  return estimates;
}

/// The estimate of the latest decision.
double LastFailureEstimate(const obs::Recorder& recorder) {
  const std::vector<double> estimates = FailureEstimates(recorder);
  EXPECT_FALSE(estimates.empty());
  return estimates.empty() ? -1.0 : estimates.back();
}

/// Drives any number of policies through the same seeded stream of
/// admits, rate changes (zero-length holds included), departures and
/// unknown-id updates, with a nondecreasing clock.
class CallChurn {
 public:
  explicit CallChurn(std::uint64_t seed) : rng_(seed) {}

  double now() const { return now_; }
  std::size_t live() const { return live_.size(); }

  /// One state update, the same on every policy.
  void Step(const std::vector<sim::AdmissionPolicy*>& policies) {
    now_ += rng_.Bernoulli(0.3) ? 0.0 : rng_.Exponential(1.0);
    const double u = rng_.Uniform();
    const double rate = rng_.Uniform(0.0, 1.05 * kTopRate);
    if (live_.empty() || (u < 0.2 && live_.size() < 150)) {
      // Now and then a duplicate admit, which the policies ignore.
      const bool duplicate = !live_.empty() && rng_.Bernoulli(0.02);
      const std::uint64_t id = duplicate ? live_[Pick()] : next_id_++;
      for (auto* p : policies) p->OnAdmitted(now_, id, rate);
      if (!duplicate) live_.push_back(id);
    } else if (u < 0.8) {
      const std::uint64_t id = rng_.Bernoulli(0.05) ? next_id_ + 7
                                                    : live_[Pick()];
      for (auto* p : policies) p->OnRateChange(now_, id, 0.0, rate);
    } else {
      if (rng_.Bernoulli(0.05)) {
        for (auto* p : policies) p->OnDeparture(now_, next_id_ + 7, rate);
        return;
      }
      const std::size_t k = Pick();
      for (auto* p : policies) p->OnDeparture(now_, live_[k], rate);
      live_[k] = live_.back();
      live_.pop_back();
    }
  }

  /// Departs every live call.
  void Drain(const std::vector<sim::AdmissionPolicy*>& policies) {
    for (std::uint64_t id : live_) {
      for (auto* p : policies) p->OnDeparture(now_, id, 0.0);
    }
    live_.clear();
  }

  Rng& rng() { return rng_; }

 private:
  std::size_t Pick() {
    return static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(live_.size()) - 1));
  }

  Rng rng_;
  double now_ = 0;
  std::uint64_t next_id_ = 1;
  std::vector<std::uint64_t> live_;
};

struct Decision {
  double capacity_bps;
  double rate_bps;
  std::size_t rung;
};

Decision RandomDecision(Rng& rng, std::size_t live) {
  // Capacities around the load of the live calls keep both outcomes common.
  const double per_call = rng.Uniform(0.9e6, 2.4e6);
  const std::size_t rung = static_cast<std::size_t>(rng.UniformInt(0, 2));
  const double rate = rng.Uniform(0.0, kTopRate);
  return {per_call * static_cast<double>(live + 1),
          rate * (1.0 - 0.25 * static_cast<double>(rung)), rung};
}

bool Decide(sim::AdmissionPolicy& policy, double now, const Decision& d) {
  const sim::LinkView view{d.capacity_bps, 0.0};
  return d.rung == 0 ? policy.Admit(now, view, d.rate_bps)
                     : policy.AdmitAtRung(now, view, d.rate_bps, d.rung);
}

TEST(Memory, MatchesFromScratchOracle) {
  obs::Recorder fast_rec(AllDecisions());
  obs::Recorder slow_rec(AllDecisions());
  MemoryPolicy fast(Options(&fast_rec));
  ReferenceMemoryPolicy slow(Options(&slow_rec));
  CallChurn churn(20260514);
  std::int64_t accepts = 0;
  std::int64_t rejects = 0;
  for (int op = 0; op < 100000; ++op) {
    if (churn.rng().Bernoulli(0.25)) {
      const Decision d = RandomDecision(churn.rng(), churn.live());
      const bool admit = Decide(fast, churn.now(), d);
      ASSERT_EQ(admit, Decide(slow, churn.now(), d))
          << "op " << op << " rung " << d.rung;
      ++(admit ? accepts : rejects);
    } else {
      churn.Step({&fast, &slow});
    }
  }
  // Both outcomes must be well exercised for the comparison to mean much.
  EXPECT_GT(accepts, 2000);
  EXPECT_GT(rejects, 2000);
  if constexpr (obs::kEnabled) {
    // Every Chernoff decision's estimate, in order.
    const std::vector<double> a = FailureEstimates(fast_rec);
    const std::vector<double> b = FailureEstimates(slow_rec);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_GT(a.size(), 4000u);
    for (std::size_t k = 0; k < a.size(); ++k) {
      const double scale = std::max(std::abs(a[k]), std::abs(b[k]));
      const double relative =
          scale > 0 ? std::abs(a[k] - b[k]) / scale : 0.0;
      ASSERT_LE(relative, 1e-12)
          << "decision " << k << ": " << a[k] << " vs " << b[k];
    }
  }
}

// Rounding must not put mass on a level the from-scratch merge leaves
// empty: a top level with even 1e-15 s of mass raises the support's
// maximum, and the Chernoff estimate jumps from 0. The times below leave
// such a rounding residue in the per-level sums (found by search).
TEST(Memory, EmptyLevelsWeighNothing) {
  const double mid = 1.28e6;
  // With all pooled mass at `mid`, a link of `calls + 1` times a bit more
  // than `mid` cannot overflow: the estimate is 0 unless a level above
  // `mid` has mass.
  const auto decision = [&](double calls) {
    return Decision{(calls + 1.0) * (mid + 0.01 * (kTopRate - mid)), 0.0,
                    0};
  };
  {
    // Closed mass: two calls alternate between the top level and 0, then
    // depart; their closed holds at the top cancel only up to rounding.
    obs::Recorder fast_rec(AllDecisions());
    obs::Recorder slow_rec(AllDecisions());
    MemoryPolicy fast(Options(&fast_rec));
    ReferenceMemoryPolicy slow(Options(&slow_rec));
    const std::vector<sim::AdmissionPolicy*> both = {&fast, &slow};
    for (auto* p : both) {
      p->OnAdmitted(0.0, 9, mid);
      p->OnAdmitted(10.2, 2, kTopRate);
      p->OnRateChange(18.7, 2, kTopRate, 0.0);
      p->OnAdmitted(22.3, 1, kTopRate);
      p->OnRateChange(23.9, 1, kTopRate, 0.0);
      p->OnRateChange(31.0, 1, 0.0, kTopRate);
      p->OnRateChange(43.5, 2, 0.0, kTopRate);
      p->OnRateChange(69.8, 2, kTopRate, 0.0);
      p->OnRateChange(80.4, 1, kTopRate, 0.0);
      p->OnDeparture(90.0, 1, 0.0);
      p->OnDeparture(90.0, 2, 0.0);
    }
    EXPECT_TRUE(Decide(slow, 90.0, decision(1)));
    EXPECT_TRUE(Decide(fast, 90.0, decision(1)));
    if constexpr (obs::kEnabled) {
      EXPECT_EQ(LastFailureEstimate(slow_rec), 0.0);
      EXPECT_EQ(LastFailureEstimate(fast_rec), 0.0);
    }
  }
  {
    // Open mass: three calls at the top level depart at the instant a
    // fourth enters it, so every open interval left there is empty.
    obs::Recorder fast_rec(AllDecisions());
    obs::Recorder slow_rec(AllDecisions());
    MemoryPolicy fast(Options(&fast_rec));
    ReferenceMemoryPolicy slow(Options(&slow_rec));
    const std::vector<sim::AdmissionPolicy*> both = {&fast, &slow};
    for (auto* p : both) {
      p->OnAdmitted(0.0, 9, mid);
      p->OnAdmitted(0.2, 1, kTopRate);
      p->OnAdmitted(23.2, 2, kTopRate);
      p->OnAdmitted(29.2, 3, kTopRate);
      p->OnAdmitted(38.8, 4, kTopRate);
      for (std::uint64_t id = 1; id <= 3; ++id) {
        p->OnDeparture(38.8, id, kTopRate);
      }
    }
    EXPECT_TRUE(Decide(slow, 38.8, decision(2)));
    EXPECT_TRUE(Decide(fast, 38.8, decision(2)));
    if constexpr (obs::kEnabled) {
      EXPECT_EQ(LastFailureEstimate(slow_rec), 0.0);
      EXPECT_EQ(LastFailureEstimate(fast_rec), 0.0);
    }
  }
}

// Long-lived calls pile up closed and open mass far beyond the simulated
// time, so every short hold that comes and goes at their levels rounds in
// a plain running sum; once they depart, what remains must not carry the
// rounding of all that churn.
TEST(Memory, ChurnLeavesNoDrift) {
  obs::Recorder fast_rec(AllDecisions());
  obs::Recorder slow_rec(AllDecisions());
  MemoryPolicy fast(Options(&fast_rec));
  ReferenceMemoryPolicy slow(Options(&slow_rec));
  const std::vector<sim::AdmissionPolicy*> both = {&fast, &slow};
  const double mid = 1.28e6;
  constexpr std::uint64_t kLongCalls = 400;
  for (auto* p : both) {
    p->OnAdmitted(0.0, 1, mid);
    for (std::uint64_t k = 0; k < kLongCalls; ++k) {
      p->OnAdmitted(0.0, 100000 + k, kTopRate);  // two hours at the top
    }
    for (std::uint64_t k = 0; k < kLongCalls; ++k) {
      p->OnRateChange(7200.0, 100000 + k, kTopRate, 0.0);
    }
  }
  // Short calls, ten at a time: each holds the top level for a random
  // spell, drops to 0, and departs 5 s after it arrived.
  Rng rng(11);
  double now = 7200.0;
  for (std::uint64_t id = 3; id < 40000; ++id, now += 0.5) {
    const double hold = rng.Uniform(0.05, 0.45);
    for (auto* p : both) {
      if (id >= 13) p->OnDeparture(now, id - 10, 0.0);
      p->OnAdmitted(now, id, kTopRate);
      p->OnRateChange(now + hold, id, kTopRate, 0.0);
    }
  }
  for (auto* p : both) {
    for (std::uint64_t k = 0; k < kLongCalls; ++k) {
      p->OnDeparture(now, 100000 + k, 0.0);
    }
  }
  // Calls 1 and the last ten short ones remain.
  for (double per_call : {1.3e6, 1.5e6, 2.0e6}) {
    const Decision d{12.0 * per_call, 0.0, 0};
    EXPECT_EQ(Decide(fast, now, d), Decide(slow, now, d));
    if constexpr (obs::kEnabled) {
      const double a = LastFailureEstimate(fast_rec);
      const double b = LastFailureEstimate(slow_rec);
      EXPECT_LE(std::abs(a - b), 1e-12 * std::max(a, b)) << a << " vs " << b;
    }
  }
}

TEST(Memory, AggregateDrainsToEmpty) {
  obs::Recorder used_rec(AllDecisions());
  MemoryPolicy used(Options(&used_rec));
  CallChurn churn(7);
  for (int op = 0; op < 20000; ++op) churn.Step({&used});
  churn.Drain({&used});

  // Drained: decides like a policy that never saw a call.
  MemoryPolicy empty(Options(nullptr));
  const Decision first = RandomDecision(churn.rng(), 0);
  EXPECT_EQ(Decide(used, churn.now(), first),
            Decide(empty, churn.now(), first));

  // Re-populated: every decision and failure estimate matches, bit for
  // bit, a fresh policy fed the same calls — no residue of the drained
  // aggregate survives.
  for (int round = 0; round < 2; ++round) {
    obs::Recorder fresh_rec(AllDecisions());
    MemoryPolicy fresh(Options(&fresh_rec));
    const std::size_t used_before = FailureEstimates(used_rec).size();
    for (int op = 0; op < 5000; ++op) {
      if (churn.rng().Bernoulli(0.25)) {
        const Decision d = RandomDecision(churn.rng(), churn.live());
        ASSERT_EQ(Decide(used, churn.now(), d),
                  Decide(fresh, churn.now(), d))
            << "round " << round << " op " << op;
      } else {
        churn.Step({&used, &fresh});
      }
    }
    churn.Drain({&used, &fresh});
    if constexpr (obs::kEnabled) {
      const std::vector<double> a = FailureEstimates(used_rec);
      const std::vector<double> b = FailureEstimates(fresh_rec);
      ASSERT_EQ(a.size() - used_before, b.size());
      EXPECT_GT(b.size(), 500u);
      for (std::size_t k = 0; k < b.size(); ++k) {
        ASSERT_EQ(a[used_before + k], b[k])
            << "round " << round << " decision " << k;
      }
    }
  }
}

}  // namespace
}  // namespace rcbr::admission
