// A Chernoff admission decision allocates nothing: every estimating
// policy reads its own pooled histogram in place and the tilting-point
// solve runs on the stack. Recording the decision into a metrics-only
// recorder allocates nothing either once its counters exist. This binary
// replaces the global allocation functions to count the calls made while
// a decision runs.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "admission/policies.h"
#include "ldev/chernoff.h"
#include "obs/recorder.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace {

std::atomic<std::int64_t> g_allocations{0};

// Out of line, so the compiler never pairs a new-expression with the
// free() inside.
[[gnu::noinline]] void Release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }

namespace rcbr::admission {
namespace {

/// The number of allocations `decide` makes.
template <typename Decide>
std::int64_t AllocationsDuring(Decide decide) {
  const std::int64_t before = g_allocations.load();
  decide();
  return g_allocations.load() - before;
}

PolicyOptions Options() {
  PolicyOptions options;
  options.target_failure_probability = 1e-4;
  options.rate_grid_bps = UniformGrid(0.0, 2.56e6, 41);
  return options;
}

/// 200 calls, each through 20 rate changes on the grid.
void Churn(sim::AdmissionPolicy& policy) {
  Rng rng(11);
  double now = 0;
  for (std::uint64_t id = 0; id < 200; ++id) {
    double rate = rng.Uniform(0.0, 2.56e6);
    policy.OnAdmitted(now, id, rate);
    for (int change = 0; change < 20; ++change) {
      now += rng.Exponential(0.05);
      const double next = rng.Uniform(0.0, 2.56e6);
      policy.OnRateChange(now, id, rate, next);
      rate = next;
    }
  }
}

/// The three estimating policies, reporting to `recorder`.
std::vector<std::unique_ptr<sim::AdmissionPolicy>> EstimatingPolicies(
    obs::Recorder* recorder) {
  PolicyOptions options = Options();
  options.recorder = recorder;
  std::vector<std::unique_ptr<sim::AdmissionPolicy>> policies;
  policies.push_back(std::make_unique<MemoryPolicy>(options));
  policies.push_back(std::make_unique<MemorylessPolicy>(options));
  policies.push_back(std::make_unique<AgedMemoryPolicy>(options, 30.0));
  return policies;
}

/// Decisions at per-call capacities from below the mean to above the
/// peak, at every rung of a 3-rung ladder; returns the accepts.
std::int64_t DecideAcrossCapacities(sim::AdmissionPolicy& policy) {
  std::int64_t accepts = 0;
  for (double per_call = 0.8e6; per_call < 2.8e6; per_call += 0.1e6) {
    const sim::LinkView view{per_call * 201, 0.0};
    accepts += policy.Admit(1e4, view, 1.28e6);
    accepts += policy.AdmitAtRung(1e4, view, 0.96e6, 1);
    accepts += policy.AdmitAtRung(1e4, view, 0.64e6, 2);
  }
  return accepts;
}

TEST(DecisionAllocation, EstimatingPoliciesDecideWithoutAllocating) {
  for (auto& policy : EstimatingPolicies(nullptr)) {
    Churn(*policy);
    std::int64_t accepts = 0;
    const std::int64_t allocations =
        AllocationsDuring([&] { accepts = DecideAcrossCapacities(*policy); });
    EXPECT_EQ(allocations, 0);
    EXPECT_GT(accepts, 0);
  }
}

TEST(DecisionAllocation, RecordedDecisionsDoNotAllocate) {
  obs::Recorder recorder;  // metrics only: no event log, no time series
  // Links for 201 calls: above every call's peak, and below their mean.
  const sim::LinkView roomy{2.8e6 * 201, 0.0};
  const sim::LinkView tight{0.8e6 * 201, 0.0};
  for (auto& policy : EstimatingPolicies(&recorder)) {
    Churn(*policy);
    // One decision of each kind registers its counters.
    ASSERT_TRUE(policy->Admit(1e4, roomy, 1.28e6));
    ASSERT_FALSE(policy->Admit(1e4, tight, 1.28e6));
    ASSERT_TRUE(policy->AdmitAtRung(1e4, roomy, 0.64e6, 2));
    std::int64_t accepts = 0;
    const std::int64_t allocations =
        AllocationsDuring([&] { accepts = DecideAcrossCapacities(*policy); });
    EXPECT_EQ(allocations, 0);
    EXPECT_GT(accepts, 0);
  }

  // Perfect knowledge admits below a precomputed call count; it records
  // on the counters the decisions above registered.
  PerfectKnowledgePolicy perfect(
      ldev::DiscreteDistribution({0.64e6, 1.92e6}, {0.5, 0.5}), 1.28e8, 1e-4,
      &recorder);
  const std::int64_t max_calls = perfect.max_calls();
  ASSERT_GT(max_calls, 1);
  for (std::int64_t id = 1; id < max_calls; ++id) {
    perfect.OnAdmitted(0.0, static_cast<std::uint64_t>(id), 1.28e6);
  }
  std::int64_t accepts = 0;
  std::int64_t rejects = 0;
  const std::int64_t allocations = AllocationsDuring([&] {
    for (int k = 0; k < 20; ++k) {
      accepts += perfect.Admit(1e4, roomy, 1.28e6);
      perfect.OnAdmitted(1e4, static_cast<std::uint64_t>(max_calls), 1.28e6);
      rejects += !perfect.Admit(1e4, roomy, 1.28e6);
      perfect.OnDeparture(1e4, static_cast<std::uint64_t>(max_calls), 1.28e6);
    }
  });
  EXPECT_EQ(allocations, 0);
  EXPECT_EQ(accepts, 20);
  EXPECT_EQ(rejects, 20);
}

TEST(DecisionAllocation, ChernoffEstimateReadsAHistogramInPlace) {
  Histogram pooled(UniformGrid(0.0, 2.56e6, 41));
  Rng rng(12);
  for (std::size_t b = 0; b < pooled.size(); ++b) {
    pooled.AddAt(b, rng.Uniform(0.0, 100.0));
  }
  double failure = 0;
  const std::int64_t allocations = AllocationsDuring([&] {
    const ldev::TiltFamily family(pooled.values(), pooled.weights());
    for (std::int64_t calls = 100; calls <= 2000; calls += 100) {
      failure += ldev::ChernoffOverflowProbability(family, calls, 1.6e9);
      failure += ldev::RefinedOverflowProbability(family, calls, 1.6e9);
    }
  });
  EXPECT_EQ(allocations, 0);
  EXPECT_GT(failure, 0);
}

}  // namespace
}  // namespace rcbr::admission
