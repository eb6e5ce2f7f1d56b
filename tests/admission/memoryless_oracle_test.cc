// Differential test: MemorylessPolicy's per-level counts against the
// from-scratch ReferenceMemorylessPolicy, which snaps every live call's
// rate to the grid at each decision. Decisions, failure estimates and the
// emitted "mbac.*" events must all be identical.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "admission/policies.h"
#include "obs/recorder.h"
#include "reference_memoryless_policy.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace rcbr::admission {
namespace {

using testing::ReferenceMemorylessPolicy;

// engine_mbac's grid: 41 levels, 64 kb/s apart.
constexpr double kTopRate = 2.56e6;

PolicyOptions Options(obs::Recorder* recorder) {
  PolicyOptions options;
  options.target_failure_probability = 1e-4;
  options.rate_grid_bps = UniformGrid(0.0, kTopRate, 41);
  options.recorder = recorder;
  return options;
}

/// The recorder's trace and metrics, as one comparable string.
std::string Log(obs::Recorder& recorder) {
  std::string out;
  obs::AppendJsonl(0, recorder.events()->Head(), out);
  return out + recorder.metrics().Snapshot().ToJson();
}

/// A rate on a grid level, exactly half way between two levels, anywhere
/// off the grid, or above its top.
double DrawRate(Rng& rng, const std::vector<double>& grid) {
  const auto level = static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(grid.size()) - 2));
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return grid[level];
    case 1:
      return 0.5 * (grid[level] + grid[level + 1]);
    case 2:
      return rng.Uniform(0.0, kTopRate);
    default:
      return rng.Uniform(kTopRate, 1.5 * kTopRate);
  }
}

bool Decide(sim::AdmissionPolicy& policy, double now,
            const sim::LinkView& view, double rate_bps, std::size_t rung) {
  return rung == 0 ? policy.Admit(now, view, rate_bps)
                   : policy.AdmitAtRung(now, view, rate_bps, rung);
}

TEST(Memoryless, MatchesFromScratchOracle) {
  obs::Recorder fast_rec({.event_capacity = 1 << 16});
  obs::Recorder slow_rec({.event_capacity = 1 << 16});
  MemorylessPolicy fast(Options(&fast_rec));
  ReferenceMemorylessPolicy slow(Options(&slow_rec));
  const std::vector<sim::AdmissionPolicy*> both = {&fast, &slow};
  const std::vector<double> grid = Options(nullptr).rate_grid_bps;

  Rng rng(20261017);
  std::vector<std::uint64_t> live;
  std::uint64_t next_id = 1;
  double now = 0;
  const auto pick = [&] {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
  };
  std::int64_t accepts = 0;
  std::int64_t rejects = 0;
  std::int64_t empty_decisions = 0;
  for (int op = 0; op < 40000; ++op) {
    now += rng.Exponential(1.0);
    if (op % 4000 == 3999) {
      // Drain the system now and then and decide on the empty system:
      // nothing to estimate from, so both admit without a Chernoff test.
      for (std::uint64_t id : live) {
        for (auto* p : both) p->OnDeparture(now, id, 0.0);
      }
      live.clear();
      for (std::size_t rung : {0, 1}) {
        const sim::LinkView view{1e6, 0.0};
        EXPECT_TRUE(Decide(fast, now, view, 0.5e6, rung));
        EXPECT_TRUE(Decide(slow, now, view, 0.5e6, rung));
        ++empty_decisions;
      }
      continue;
    }
    const double u = rng.Uniform();
    if (u < 0.3) {
      // Capacities around the load of the live calls keep both outcomes
      // common.
      const double per_call = rng.Uniform(0.9e6, 2.4e6);
      const auto rung = static_cast<std::size_t>(rng.UniformInt(0, 2));
      const double rate =
          DrawRate(rng, grid) * (1.0 - 0.25 * static_cast<double>(rung));
      const sim::LinkView view{
          per_call * static_cast<double>(live.size() + 1), 0.0};
      const bool admit = Decide(fast, now, view, rate, rung);
      ASSERT_EQ(admit, Decide(slow, now, view, rate, rung))
          << "op " << op << " rung " << rung;
      ++(admit ? accepts : rejects);
    } else if (live.empty() || (u < 0.5 && live.size() < 150)) {
      // Now and then a duplicate admit, which the policies ignore.
      const bool duplicate = !live.empty() && rng.Bernoulli(0.02);
      const std::uint64_t id = duplicate ? live[pick()] : next_id++;
      const double rate = DrawRate(rng, grid);
      for (auto* p : both) p->OnAdmitted(now, id, rate);
      if (!duplicate) live.push_back(id);
    } else if (u < 0.85) {
      // Now and then an unknown id, which the policies ignore.
      const std::uint64_t id =
          rng.Bernoulli(0.05) ? next_id + 7 : live[pick()];
      const double rate = DrawRate(rng, grid);
      for (auto* p : both) p->OnRateChange(now, id, 0.0, rate);
    } else if (rng.Bernoulli(0.05)) {
      for (auto* p : both) p->OnDeparture(now, next_id + 7, 0.0);
    } else {
      const std::size_t k = pick();
      for (auto* p : both) p->OnDeparture(now, live[k], 0.0);
      live[k] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(Log(fast_rec), Log(slow_rec));
  // Every kind of decision must be well exercised for the comparison to
  // mean much.
  EXPECT_GT(accepts, 1000);
  EXPECT_GT(rejects, 1000);
  EXPECT_GT(empty_decisions, 0);
}

}  // namespace
}  // namespace rcbr::admission
