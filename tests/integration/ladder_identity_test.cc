// Depth-1 ladder byte-identity pins for the two MBAC experiment
// configurations (fig9_10_memory_mbac's single-link call sim and
// fig_mbac_multihop's lossy multi-hop engine run): threading the
// multi-resolution contract through admission, signaling, and the engine
// must leave the scalar path untouched — a depth-1 ladder reproduces the
// scalar run bit for bit, down to the trace-event bytes. Only delivered
// utility differs: ladder runs account it, scalar runs leave it 0.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "admission/descriptor.h"
#include "admission/policies.h"
#include "obs/recorder.h"
#include "sim/call_sim.h"
#include "sim/engine/simulation.h"
#include "sim/rate_ladder.h"
#include "util/rng.h"

namespace rcbr {
namespace {

const sim::CallProfile kProfile{
    PiecewiseConstant({{0, 1.0}, {50, 2.0}}, 100), 1.0};

admission::PolicyOptions MbacOptions(obs::Recorder* recorder) {
  admission::PolicyOptions options;
  options.target_failure_probability = 1e-4;
  options.rate_grid_bps = UniformGrid(0.0, 4.0, 9);
  options.recorder = recorder;
  return options;
}

std::string TraceBytes(obs::Recorder& recorder) {
  std::string out;
  if (recorder.events() != nullptr) {
    obs::AppendJsonl(0, recorder.events()->Head(), out);
  }
  return out;
}

TEST(LadderIdentity, Fig910MemoryMbacConfigDepthOne) {
  // The fig9_10_memory_mbac shape: memory-based Chernoff MBAC guarding
  // one link in the call-level simulator (RunMbacPoint's configuration).
  auto run = [&](const sim::RateLadder& ladder, obs::Recorder& recorder) {
    admission::MemoryPolicy policy(MbacOptions(&recorder));
    sim::CallSimOptions options;
    options.capacity_bps = 10.0;
    options.arrival_rate_per_s = 0.2;
    options.warmup_seconds = 100.0;
    options.sample_intervals = 6;
    options.interval_seconds = 150.0;
    options.recorder = &recorder;
    options.ladder = ladder;
    Rng rng(20260706);
    return sim::RunCallSim({kProfile}, policy, options, rng);
  };
  obs::Recorder scalar_rec({.event_capacity = 4096});
  obs::Recorder depth1_rec({.event_capacity = 4096});
  const sim::CallSimResult scalar = run({}, scalar_rec);
  const sim::CallSimResult depth1 =
      run(sim::RateLadder::Scalar(), depth1_rec);

  EXPECT_EQ(scalar.offered_calls, depth1.offered_calls);
  EXPECT_EQ(scalar.blocked_calls, depth1.blocked_calls);
  EXPECT_EQ(scalar.upward_attempts, depth1.upward_attempts);
  EXPECT_EQ(scalar.failed_attempts, depth1.failed_attempts);
  EXPECT_EQ(scalar.failure_probability.mean(),
            depth1.failure_probability.mean());
  EXPECT_EQ(scalar.utilization.mean(), depth1.utilization.mean());
  EXPECT_EQ(scalar.utilization.stddev(), depth1.utilization.stddev());
  EXPECT_EQ(depth1.downgraded_admits, 0);
  EXPECT_EQ(depth1.upgrades, 0);
  // The trace streams must match byte for byte — same events, same
  // fields (scalar admission events carry rung 0 either way), same
  // order, same float formatting.
  EXPECT_EQ(TraceBytes(scalar_rec), TraceBytes(depth1_rec));
  if constexpr (obs::kEnabled) {
    EXPECT_FALSE(TraceBytes(scalar_rec).empty());
  }
}

TEST(LadderIdentity, FigMbacMultihopConfigDepthOne) {
  // The fig_mbac_multihop shape: background classes load each of 4
  // links, a tagged class crosses all of them, admission uses the
  // memory-based estimator, and renegotiations ride a lossy RM-cell
  // channel with periodic resync.
  auto run = [&](const sim::RateLadder& ladder, obs::Recorder& recorder) {
    admission::MemoryPolicy policy(MbacOptions(&recorder));
    sim::engine::SimulationOptions options;
    options.link_capacities_bps.assign(4, 10.0);
    for (std::size_t l = 0; l < 4; ++l) {
      sim::engine::TrafficClass bg;
      bg.candidate_routes = {{l}};
      bg.arrival_rate_per_s = 0.15;
      bg.ladder = ladder;
      options.classes.push_back(bg);
    }
    sim::engine::TrafficClass tagged;
    tagged.candidate_routes = {{0, 1, 2, 3}};
    tagged.arrival_rate_per_s = 0.05;
    tagged.ladder = ladder;
    options.classes.push_back(tagged);
    options.warmup_seconds = 100.0;
    options.sample_intervals = 5;
    options.interval_seconds = 150.0;
    options.policy = &policy;
    options.recorder = &recorder;
    options.signaling_recorder = &recorder;
    options.per_hop_delay_s = 0.001;
    options.track_connections = true;
    options.cell_loss_probability = 0.01;
    options.resync_every_cells = 8;
    Rng rng(54321);
    return sim::engine::RunSimulation({kProfile}, options, rng);
  };
  obs::Recorder scalar_rec({.event_capacity = 8192});
  obs::Recorder depth1_rec({.event_capacity = 8192});
  const sim::engine::SimulationResult scalar = run({}, scalar_rec);
  const sim::engine::SimulationResult depth1 =
      run(sim::RateLadder::Scalar(), depth1_rec);

  ASSERT_EQ(scalar.per_class.size(), depth1.per_class.size());
  for (std::size_t c = 0; c < scalar.per_class.size(); ++c) {
    const sim::engine::ClassTotals& a = scalar.per_class[c];
    const sim::engine::ClassTotals& b = depth1.per_class[c];
    EXPECT_EQ(a.offered_calls, b.offered_calls) << "class " << c;
    EXPECT_EQ(a.blocked_calls, b.blocked_calls) << "class " << c;
    EXPECT_EQ(a.upward_attempts, b.upward_attempts) << "class " << c;
    EXPECT_EQ(a.failed_attempts, b.failed_attempts) << "class " << c;
    EXPECT_EQ(a.interval_attempts, b.interval_attempts) << "class " << c;
    EXPECT_EQ(a.interval_failures, b.interval_failures) << "class " << c;
    EXPECT_EQ(b.downgraded_admits, 0) << "class " << c;
    EXPECT_EQ(b.upgrades, 0) << "class " << c;
  }
  // Per-link reserved-rate integrals, bit for bit.
  EXPECT_EQ(scalar.util_total, depth1.util_total);
  EXPECT_EQ(scalar.util_by_interval, depth1.util_by_interval);
  EXPECT_EQ(scalar.events_processed, depth1.events_processed);
  EXPECT_EQ(scalar.peak_concurrent_calls, depth1.peak_concurrent_calls);
  EXPECT_EQ(TraceBytes(scalar_rec), TraceBytes(depth1_rec));
  if constexpr (obs::kEnabled) {
    EXPECT_FALSE(TraceBytes(scalar_rec).empty());
  }
}

}  // namespace
}  // namespace rcbr
