// Integration tests across the extension modules: GOP-aware sources over
// signaling paths, fitted models feeding admission control, and
// interactivity-aware MBAC.
#include <memory>

#include <gtest/gtest.h>

#include "admission/policies.h"
#include "core/gop_heuristic.h"
#include "core/rcbr_source.h"
#include "ldev/chernoff.h"
#include "ldev/equivalent_bandwidth.h"
#include "markov/fitting.h"
#include "trace/catalog.h"
#include "trace/star_wars.h"
#include "util/units.h"

namespace rcbr {
namespace {

TEST(Extensions, GopAwareSourceOverSignalingPath) {
  const trace::FrameTrace clip = trace::MakeStarWarsTrace(51, 2880);
  signaling::PortController port(10 * kMbps);
  signaling::SignalingPath path({&port}, 1 * kMillisecond);

  core::HeuristicOptions options;
  options.low_threshold_bits = 10 * kKilobit;
  options.high_threshold_bits = 150 * kKilobit;
  options.time_constant_slots = 5;
  options.granularity_bits_per_slot = 64.0 * kKilobit / clip.fps();
  options.initial_rate_bits_per_slot = clip.mean_rate() / clip.fps();

  core::RcbrSource source = core::RcbrSource::OnlineWith(
      1, std::make_unique<core::GopAwareController>(options, 12),
      clip.slot_seconds(), 500 * kKilobit, &path);
  ASSERT_TRUE(source.Connect());
  for (std::int64_t t = 0; t < clip.frame_count(); ++t) {
    source.Step(clip.bits(t));
  }
  EXPECT_GT(source.stats().renegotiation_attempts, 5);
  EXPECT_EQ(source.stats().renegotiation_failures, 0);
  EXPECT_LT(source.stats().loss_fraction(), 0.05);
}

TEST(Extensions, FittedModelFeedsAdmissionControl) {
  // Fit the multi-time-scale model to a genre trace and run Chernoff
  // admission on its scene-rate distribution — the paper's analytical
  // pipeline (Sec. V-A -> Sec. VI), end to end on "measured" material.
  const trace::FrameTrace movie =
      trace::MakeGenreTrace(trace::Genre::kSportscast, 53, 28800);
  const markov::FittedModel fitted = markov::FitMultiTimescale(movie);
  const auto scene = ldev::SceneRateDistribution(fitted.source);
  const double capacity = 30 * scene.Mean();
  const std::int64_t n_max =
      ldev::MaxAdmissibleCalls(scene, capacity, 1e-4);
  // Statistical multiplexing: more than peak allocation, less than mean.
  EXPECT_GT(n_max, static_cast<std::int64_t>(capacity / scene.Max()));
  EXPECT_LE(n_max, static_cast<std::int64_t>(capacity / scene.Mean()));
}

TEST(Extensions, AgedMemoryTracksGenreShift) {
  // A nonstationary population: old newscast-like calls (low, flat)
  // leave; new action-like calls (heavy tail) arrive. The aged estimator
  // converges to the new regime's distribution.
  admission::PolicyOptions options;
  options.target_failure_probability = 1e-3;
  options.rate_grid_bps = UniformGrid(0.0, 2e6, 21);
  admission::AgedMemoryPolicy aged(options, /*tau=*/100.0);

  // Phase 1: four flat calls at 0.4 Mb/s for a long time.
  for (std::uint64_t id = 1; id <= 4; ++id) {
    aged.OnAdmitted(0.0, id, 4e5);
  }
  // Phase 2: they leave; four bursty calls arrive (0.4 <-> 1.6 Mb/s).
  for (std::uint64_t id = 1; id <= 4; ++id) {
    aged.OnDeparture(1000.0, id, 4e5);
  }
  double now = 1000.0;
  for (std::uint64_t id = 5; id <= 8; ++id) {
    aged.OnAdmitted(now, id, 4e5);
  }
  for (int cycle = 0; cycle < 50; ++cycle) {
    now += 40.0;
    for (std::uint64_t id = 5; id <= 8; ++id) {
      aged.OnRateChange(now, id, 4e5, 1.6e6);
    }
    now += 10.0;
    for (std::uint64_t id = 5; id <= 8; ++id) {
      aged.OnRateChange(now, id, 1.6e6, 4e5);
    }
  }
  // A link sized for flat 0.4 Mb/s calls only: the aged estimator must
  // now know about the 1.6 Mb/s episodes and refuse.
  const sim::LinkView view{2.4e6, 4 * 4e5};
  EXPECT_FALSE(aged.Admit(now, view, 4e5));
}

}  // namespace
}  // namespace rcbr
