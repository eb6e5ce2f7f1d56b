#include "admission/policies.h"

#include <gtest/gtest.h>

#include "admission/descriptor.h"
#include "util/error.h"
#include "util/rng.h"

namespace rcbr::admission {
namespace {

ldev::DiscreteDistribution Demand() {
  return {{1e6, 4e6}, {0.8, 0.2}};
}

PolicyOptions Options() {
  PolicyOptions options;
  options.target_failure_probability = 1e-3;
  options.rate_grid_bps = UniformGrid(0.0, 5e6, 11);  // 0.5 Mb/s steps
  return options;
}

sim::LinkView View(double capacity, const std::vector<double>& rates) {
  double reserved = 0;
  for (double r : rates) reserved += r;
  return {capacity, reserved};
}

/// Tells `policy` about one new call per entry of `rates`, with ids
/// `first_id`, `first_id + 1`, ...
void AdmitCalls(sim::AdmissionPolicy& policy,
                const std::vector<double>& rates, std::uint64_t first_id = 0) {
  for (double r : rates) policy.OnAdmitted(0.0, first_id++, r);
}

TEST(PerfectKnowledge, PrecomputesMaxCalls) {
  PerfectKnowledgePolicy policy(Demand(), 80e6, 1e-3);
  EXPECT_GT(policy.max_calls(), 20);  // mean 1.6 -> 50 calls at mean
  EXPECT_LT(policy.max_calls(), 50);
}

TEST(PerfectKnowledge, AdmitsUpToMaxThenBlocks) {
  PerfectKnowledgePolicy policy(Demand(), 80e6, 1e-3);
  const std::vector<double> rates;
  const auto view = View(80e6, rates);
  const std::int64_t max = policy.max_calls();
  for (std::int64_t i = 0; i < max; ++i) {
    ASSERT_TRUE(policy.Admit(0.0, view, 1e6)) << i;
    policy.OnAdmitted(0.0, static_cast<std::uint64_t>(i), 1e6);
  }
  EXPECT_FALSE(policy.Admit(0.0, view, 1e6));
  // A departure frees one slot.
  policy.OnDeparture(0.0, 0, 1e6);
  EXPECT_TRUE(policy.Admit(0.0, view, 1e6));
}

TEST(Memoryless, AdmitsWhenEmpty) {
  MemorylessPolicy policy(Options());
  const std::vector<double> rates;
  EXPECT_TRUE(policy.Admit(0.0, View(10e6, rates), 1e6));
}

TEST(Memoryless, UsesInstantaneousSnapshot) {
  MemorylessPolicy policy(Options());
  // All current calls at their low rate: the snapshot estimate sees a
  // deterministic 1 Mb/s call and admits aggressively.
  const std::vector<double> low(8, 1e6);
  AdmitCalls(policy, low);
  EXPECT_TRUE(policy.Admit(0.0, View(10e6, low), 1e6));
  // All calls at their peak: the snapshot sees 4 Mb/s calls; one more
  // call would estimate certain overflow on a 33 Mb/s link.
  const std::vector<double> high(8, 4e6);
  for (std::uint64_t id = 0; id < 8; ++id) {
    policy.OnRateChange(1.0, id, 1e6, 4e6);
  }
  EXPECT_FALSE(policy.Admit(1.0, View(33e6, high), 1e6));
}

TEST(Memoryless, ThisIsTheNonRobustnessMechanism) {
  // The paper's Sec. VI point: when every active call happens to reserve
  // its low rate, the memoryless estimate concludes calls are cheap even
  // though their true marginal has a heavy 4 Mb/s tail. The policy admits
  // N calls whose true peak demand (N * 4 Mb/s) far exceeds capacity.
  MemorylessPolicy policy(Options());
  std::vector<double> rates;
  const double capacity = 20e6;
  while (rates.size() < 30 &&
         policy.Admit(0.0, View(capacity, rates), 1e6)) {
    policy.OnAdmitted(0.0, rates.size(), 1e6);
    rates.push_back(1e6);
  }
  const double true_peak_demand = static_cast<double>(rates.size()) * 4e6;
  EXPECT_GT(true_peak_demand, capacity * 2);  // badly over-admitted
}

TEST(AdmitAtRung, RungZeroIsExactlyTheScalarTest) {
  // The ladder loop's rung-0 probe must reproduce Admit bit-for-bit —
  // the depth-1 byte-identity pins rest on this dispatch.
  const std::vector<double> low(8, 1e6);
  const std::vector<double> high(8, 4e6);
  const auto same_decision = [](const std::vector<double>& rates,
                                double capacity) {
    MemorylessPolicy a(Options());
    MemorylessPolicy b(Options());
    AdmitCalls(a, rates);
    AdmitCalls(b, rates);
    EXPECT_EQ(a.Admit(0.0, View(capacity, rates), 1e6),
              b.AdmitAtRung(0.0, View(capacity, rates), 1e6, 0));
  };
  same_decision(low, 10e6);
  same_decision(high, 33e6);
}

TEST(AdmitAtRung, DefaultIsScalarConservative) {
  // A policy that does not override AdmitAtRung never admits below the
  // full ask: rung 0 defers to Admit, deeper rungs refuse.
  PerfectKnowledgePolicy policy(Demand(), 80e6, 1e-3);
  const std::vector<double> rates;
  const auto view = View(80e6, rates);
  EXPECT_TRUE(policy.AdmitAtRung(0.0, view, 1e6, 0));
  EXPECT_FALSE(policy.AdmitAtRung(0.0, view, 0.5e6, 1));
  EXPECT_FALSE(policy.AdmitAtRung(0.0, view, 0.5e6, 2));
}

TEST(AdmitAtRung, DowngradedRungUsesResidualCapacity) {
  // All active calls at their peak: the snapshot refuses another full
  // 4 Mb/s ask, but a downgraded rung small enough to fit the residual
  // capacity as a constant load passes — blocking becomes downgrading.
  MemorylessPolicy policy(Options());
  const std::vector<double> high(8, 4e6);
  AdmitCalls(policy, high);
  const auto view = View(36e6, high);
  EXPECT_FALSE(policy.AdmitAtRung(0.0, view, 4e6, 0));
  EXPECT_TRUE(policy.AdmitAtRung(0.0, view, 2e6, 1));
}

TEST(AdmitAtRung, DeeperRungsAreMonotone) {
  // The residual test is monotone in the rung rate: if rate r passes,
  // every smaller rate passes too.
  MemorylessPolicy policy(Options());
  const std::vector<double> high(8, 4e6);
  AdmitCalls(policy, high);
  const auto view = View(36e6, high);
  bool passed = false;
  for (double rate : {4e6, 3e6, 2e6, 1e6, 0.5e6}) {
    const bool ok = policy.AdmitAtRung(0.0, view, rate, 1);
    EXPECT_TRUE(!passed || ok) << "monotonicity broken at " << rate;
    passed = passed || ok;
  }
  EXPECT_TRUE(passed);
}

TEST(AdmitAtRung, MemoryPolicyDowngradesAgainstPooledHistory) {
  MemoryPolicy policy(Options());
  // Ten calls with a long history at 4 Mb/s: the pooled marginal sees
  // expensive calls, refusing another full ask on a 44 Mb/s link.
  std::vector<double> rates;
  for (std::uint64_t id = 0; id < 10; ++id) {
    policy.OnAdmitted(0.0, id, 4e6);
    rates.push_back(4e6);
  }
  const auto view = View(44e6, rates);
  EXPECT_FALSE(policy.AdmitAtRung(1000.0, view, 4e6, 0));
  // The economy rung fits the residual capacity as a constant load.
  EXPECT_TRUE(policy.AdmitAtRung(1000.0, view, 1e6, 1));
}

TEST(Memoryless, Validation) {
  PolicyOptions bad = Options();
  bad.rate_grid_bps = {};
  EXPECT_THROW(MemorylessPolicy{bad}, InvalidArgument);
  bad = Options();
  bad.target_failure_probability = 0.0;
  EXPECT_THROW(MemorylessPolicy{bad}, InvalidArgument);
}

TEST(Memory, AccumulatesCallHistory) {
  MemoryPolicy policy(Options());
  // One call alternating 1 <-> 4 Mb/s with 80/20 time split over a long
  // history; the pooled estimate should reflect the true marginal.
  policy.OnAdmitted(0.0, 1, 1e6);
  double now = 0;
  rcbr::Rng rng(3);
  double current = 1e6;
  for (int k = 0; k < 400; ++k) {
    const double hold = current == 1e6 ? 8.0 : 2.0;
    now += hold;
    const double next = current == 1e6 ? 4e6 : 1e6;
    policy.OnRateChange(now, 1, current, next);
    current = next;
  }
  // The memory estimate must now know the 4 Mb/s tail: admitting onto a
  // link that fits only low rates must be rejected.
  std::vector<double> rates = {current};
  EXPECT_FALSE(policy.Admit(now, View(6e6, rates), 1e6));
  // A link with room for peaks is fine.
  EXPECT_TRUE(policy.Admit(now, View(40e6, rates), 1e6));
}

TEST(Memory, RobustWhereMemorylessIsNot) {
  // Same trap as ThisIsTheNonRobustnessMechanism: calls currently at low
  // rate, but each call's *history* shows the 4 Mb/s episodes. The memory
  // scheme must stop admitting much earlier.
  const double capacity = 20e6;
  MemoryPolicy memory(Options());
  MemorylessPolicy memoryless(Options());

  std::vector<double> rates;
  std::uint64_t id = 0;
  int memory_admitted = 0;
  for (; memory_admitted < 30; ++memory_admitted) {
    if (!memory.Admit(1000.0, View(capacity, rates), 1e6)) break;
    ++id;
    // Build this call's history: admitted at t=0-ish, spent 80% at 1 Mb/s
    // and 20% at 4 Mb/s, currently low.
    memory.OnAdmitted(0.0, id, 1e6);
    memory.OnRateChange(800.0, id, 1e6, 4e6);
    memory.OnRateChange(1000.0, id, 4e6, 1e6);
    rates.push_back(1e6);
  }
  int memoryless_admitted = 0;
  std::vector<double> low;
  for (; memoryless_admitted < 30; ++memoryless_admitted) {
    if (!memoryless.Admit(1000.0, View(capacity, low), 1e6)) break;
    // Every call the memoryless scheme sees is at its low rate now.
    memoryless.OnAdmitted(1000.0, low.size(), 1e6);
    low.push_back(1e6);
  }
  EXPECT_LT(memory_admitted, memoryless_admitted);
  // The memory scheme should stay near the perfect-knowledge count.
  PerfectKnowledgePolicy perfect(Demand(), capacity, 1e-3);
  EXPECT_LE(memory_admitted, perfect.max_calls() + 2);
}

TEST(Memory, DepartedCallsForgotten) {
  MemoryPolicy policy(Options());
  policy.OnAdmitted(0.0, 1, 4e6);
  policy.OnDeparture(100.0, 1, 4e6);
  // With no calls left the policy admits (nothing to estimate from).
  const std::vector<double> rates;
  EXPECT_TRUE(policy.Admit(200.0, View(5e6, rates), 1e6));
}

TEST(Memory, OpenIntervalCountedAtAdmit) {
  MemoryPolicy policy(Options());
  policy.OnAdmitted(0.0, 1, 4e6);
  // No rate change has happened, but 100 s at 4 Mb/s must already weigh
  // in: a second call cannot fit a 5 Mb/s link where peaks collide.
  const std::vector<double> rates = {4e6};
  EXPECT_FALSE(policy.Admit(100.0, View(5e6, rates), 1e6));
}

TEST(AgedMemory, Validation) {
  EXPECT_THROW(AgedMemoryPolicy(Options(), 0.0), InvalidArgument);
  PolicyOptions bad = Options();
  bad.rate_grid_bps = {};
  EXPECT_THROW(AgedMemoryPolicy(bad, 100.0), InvalidArgument);
}

TEST(AgedMemory, LongTauBehavesLikeMemory) {
  // With tau far beyond the history span, the aged estimate matches the
  // unaged one: both must reject the same over-subscription.
  AgedMemoryPolicy aged(Options(), 1e9);
  MemoryPolicy memory(Options());
  for (std::uint64_t id = 1; id <= 6; ++id) {
    aged.OnAdmitted(0.0, id, 1e6);
    memory.OnAdmitted(0.0, id, 1e6);
    aged.OnRateChange(800.0, id, 1e6, 4e6);
    memory.OnRateChange(800.0, id, 1e6, 4e6);
    aged.OnRateChange(1000.0, id, 4e6, 1e6);
    memory.OnRateChange(1000.0, id, 4e6, 1e6);
  }
  const std::vector<double> rates(6, 1e6);
  const auto view = View(10e6, rates);
  EXPECT_EQ(aged.Admit(1000.0, view, 1e6), memory.Admit(1000.0, view, 1e6));
}

TEST(AgedMemory, ShortTauForgetsOldPeaks) {
  // A call peaked long ago and has been quiet since; with a short tau the
  // estimator forgets the peak and admits, where the unaged memory does
  // not.
  PolicyOptions options = Options();
  AgedMemoryPolicy aged(options, /*tau=*/50.0);
  MemoryPolicy memory(options);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    aged.OnAdmitted(0.0, id, 4e6);
    memory.OnAdmitted(0.0, id, 4e6);
    aged.OnRateChange(100.0, id, 4e6, 1e6);
    memory.OnRateChange(100.0, id, 4e6, 1e6);
  }
  // 10000 s of quiet at 1 Mb/s follow.
  const std::vector<double> rates(4, 1e6);
  const auto view = View(8e6, rates);
  const bool aged_admits = aged.Admit(10100.0, view, 1e6);
  const bool memory_admits = memory.Admit(10100.0, view, 1e6);
  EXPECT_TRUE(aged_admits);
  EXPECT_FALSE(memory_admits);
}

TEST(AgedMemory, DepartedCallsForgotten) {
  AgedMemoryPolicy aged(Options(), 100.0);
  aged.OnAdmitted(0.0, 1, 4e6);
  aged.OnDeparture(50.0, 1, 4e6);
  const std::vector<double> rates;
  EXPECT_TRUE(aged.Admit(60.0, View(5e6, rates), 1e6));
}

TEST(Memory, UnknownCallRateChangeIgnored) {
  MemoryPolicy policy(Options());
  policy.OnRateChange(10.0, 42, 1e6, 2e6);  // never admitted: no crash
  policy.OnDeparture(10.0, 42, 2e6);
  const std::vector<double> rates;
  EXPECT_TRUE(policy.Admit(20.0, View(10e6, rates), 1e6));
}

}  // namespace
}  // namespace rcbr::admission
