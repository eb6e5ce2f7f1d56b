// Google-benchmark microbenchmarks for the hot paths: fluid-queue steps,
// DP trellis slots, signaling admission, event-queue schedule/pop,
// memory-MBAC decisions, tilting-point solves, and trace synthesis.
#include <benchmark/benchmark.h>

#include <vector>

#include "admission/policies.h"
#include "core/dp_scheduler.h"
#include "core/online_heuristic.h"
#include "ldev/mgf.h"
#include "micro_main.h"
#include "signaling/port_controller.h"
#include "sim/engine/event_queue.h"
#include "sim/fluid_queue.h"
#include "trace/star_wars.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/units.h"

namespace {

using namespace rcbr;

void BM_FluidQueueStep(benchmark::State& state) {
  sim::SlottedQueue queue(300 * kKilobit);
  Rng rng(1);
  std::vector<double> arrivals(4096);
  for (double& a : arrivals) a = rng.Uniform(0.0, 30000.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.Step(arrivals[i & 4095], 16000.0));
    ++i;
  }
}
BENCHMARK(BM_FluidQueueStep);

void BM_PortControllerDelta(benchmark::State& state) {
  signaling::PortController port(1 * kGbps, /*track_connections=*/false);
  port.AdmitConnection(1, 500 * kMbps);
  bool up = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        port.Handle(signaling::RmCell::Delta(1, up ? 64e3 : -64e3), 0.0));
    up = !up;
  }
}
BENCHMARK(BM_PortControllerDelta);

// The classic hold model: keep `range(0)` events pending, repeatedly pop
// the earliest and schedule a replacement a random offset ahead. This is
// what the simulator's steady state looks like; the calendar queue's
// O(1) amortized schedule/pop keeps the per-op cost flat across the Arg
// sweep.
void BM_EventQueueHold(benchmark::State& state) {
  const std::size_t pending = static_cast<std::size_t>(state.range(0));
  sim::engine::EventQueue queue;
  queue.Reserve(pending);
  Rng rng(3);
  std::vector<double> holds(4096);
  for (double& h : holds) h = rng.Uniform(0.5, 1.5);
  sim::engine::EventPayload payload;
  payload.kind = 1;
  for (std::size_t i = 0; i < pending; ++i) {
    queue.Post(rng.Uniform(0.0, 1.0), payload);
  }
  // One full turnover outside the clock so the calendar reaches its
  // steady-state bucket layout before measurement starts.
  for (std::size_t i = 0; i < pending; ++i) {
    const sim::engine::ScheduledEvent event = queue.Pop();
    queue.Post(event.time + holds[i & 4095], payload);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const sim::engine::ScheduledEvent event = queue.Pop();
    benchmark::DoNotOptimize(event.time);
    queue.Post(event.time + holds[i & 4095], payload);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_EventQueueHold)->Arg(1024)->Arg(262144);

// Pure burst: schedule n events, then drain them all — call setup storms
// and end-of-run teardowns.
void BM_EventQueueScheduleDrain(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<double> times(n);
  for (double& t : times) t = rng.Uniform(0.0, 1000.0);
  sim::engine::EventPayload payload;
  payload.kind = 1;
  for (auto _ : state) {
    sim::engine::EventQueue queue;
    queue.Reserve(n);
    for (double t : times) queue.Post(t, payload);
    double last = 0;
    while (!queue.empty()) last = queue.Pop().time;
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleDrain)->Arg(65536);

void BM_HeuristicStep(benchmark::State& state) {
  core::HeuristicOptions options;
  options.low_threshold_bits = 10 * kKilobit;
  options.high_threshold_bits = 150 * kKilobit;
  options.time_constant_slots = 5;
  options.granularity_bits_per_slot = 64.0 * kKilobit / 24.0;
  options.initial_rate_bits_per_slot = 15600.0;
  core::OnlineRateController controller(options);
  Rng rng(2);
  std::vector<double> arrivals(4096);
  for (double& a : arrivals) a = rng.Uniform(0.0, 40000.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        controller.Step(arrivals[i & 4095], controller.current_rate()));
    ++i;
  }
}
BENCHMARK(BM_HeuristicStep);

void BM_DpSchedulerPerSlot(benchmark::State& state) {
  const trace::FrameTrace clip =
      trace::MakeStarWarsTrace(3, state.range(0));
  core::DpOptions options;
  for (int k = 0; k <= 20; ++k) {
    options.rate_levels.push_back(128.0 * kKilobit / 24.0 * k);
  }
  options.buffer_bits = 300 * kKilobit;
  options.cost = {3000.0, 1.0 / 24.0};
  std::size_t total_nodes = 0;
  std::size_t peak_live_nodes = 0;
  for (auto _ : state) {
    const core::DpResult result =
        core::ComputeOptimalSchedule(clip.frame_bits(), options);
    benchmark::DoNotOptimize(result.optimal_cost);
    total_nodes = result.total_nodes;
    peak_live_nodes = result.peak_live_nodes;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  // The trellis size of one solve: with it, a longer solve time splits
  // into a bigger trellis and a costlier node.
  state.counters["total_nodes"] = static_cast<double>(total_nodes);
  state.counters["peak_live_nodes"] = static_cast<double>(peak_live_nodes);
}
BENCHMARK(BM_DpSchedulerPerSlot)->Arg(1440)->Arg(2880);

// The set-up solve of the repository benchmark's engine_mbac workload on
// its first `range(0)` frames: the Fig. 6 grid of 41 levels, a 2 kb
// buffer quantum, renegotiation every 6 frames and a drained end buffer.
// Most entering buffers clamp to the floor buffer, which
// BM_DpSchedulerPerSlot (no quantum, no decision period) never shows.
void BM_DpSchedulerSetupSolve(benchmark::State& state) {
  const trace::FrameTrace movie =
      trace::MakeStarWarsTrace(1995, state.range(0));
  core::DpOptions options;
  const double step = 64.0 * kKilobit / movie.fps();
  for (int k = 0; k <= 40; ++k) options.rate_levels.push_back(step * k);
  options.buffer_bits = 300.0 * kKilobit;
  options.cost = {3000.0, 1.0 / movie.fps()};
  options.buffer_quantum_bits = 2.0 * kKilobit;
  options.decision_period = 6;
  options.final_buffer_bits = 0.0;
  std::size_t total_nodes = 0;
  for (auto _ : state) {
    const core::DpResult result =
        core::ComputeOptimalSchedule(movie.frame_bits(), options);
    benchmark::DoNotOptimize(result.optimal_cost);
    total_nodes = result.total_nodes;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["total_nodes"] = static_cast<double>(total_nodes);
}
BENCHMARK(BM_DpSchedulerSetupSolve)->Arg(1440)->Arg(2880);

// The repository benchmark's dp_offline solves: tab1_dp_runtime's grid of
// K = `range(0)` levels plus 0, a 300 kb buffer and a 4 kb buffer quantum,
// on a 900-frame trace. K = 20 is its set-up solve, K = 100 its timed one.
void BM_DpSchedulerTab1Solve(benchmark::State& state) {
  const trace::FrameTrace movie = trace::MakeStarWarsTrace(1995, 900);
  core::DpOptions options;
  options.rate_levels.push_back(0.0);
  const std::vector<double> grid = core::UniformRateLevels(
      48.0 * kKilobit / movie.fps(), 2400.0 * kKilobit / movie.fps(),
      static_cast<std::size_t>(state.range(0)));
  options.rate_levels.insert(options.rate_levels.end(), grid.begin(),
                             grid.end());
  options.buffer_bits = 300 * kKilobit;
  options.cost = {3000.0, 1.0 / movie.fps()};
  options.buffer_quantum_bits = 4.0 * kKilobit;
  std::size_t total_nodes = 0;
  for (auto _ : state) {
    const core::DpResult result =
        core::ComputeOptimalSchedule(movie.frame_bits(), options);
    benchmark::DoNotOptimize(result.optimal_cost);
    total_nodes = result.total_nodes;
  }
  state.SetItemsProcessed(state.iterations() * movie.frame_count());
  state.counters["total_nodes"] = static_cast<double>(total_nodes);
}
BENCHMARK(BM_DpSchedulerTab1Solve)->Arg(20)->Arg(100);

// One memory-MBAC admission decision with `range(0)` live calls on
// engine_mbac's 41-level grid. Every call carries 20 rate changes drawn
// from the same marginal and the capacity scales with the call count, so
// the Chernoff test solves the same tilting problem at every Arg: what
// varies is only the cost of pooling the call histories.
void BM_MemoryPolicyAdmit(benchmark::State& state) {
  const auto calls = static_cast<std::uint64_t>(state.range(0));
  admission::PolicyOptions options;
  options.target_failure_probability = 1e-4;
  options.rate_grid_bps = UniformGrid(0.0, 2.56e6, 41);
  admission::MemoryPolicy policy(options);
  const std::vector<double> levels = {0.64e6, 1.28e6, 1.92e6, 2.56e6};
  const std::vector<double> weights = {0.3, 0.4, 0.2, 0.1};
  Rng rng(5);
  double now = 0;
  for (std::uint64_t id = 0; id < calls; ++id) {
    double rate = levels[rng.Categorical(weights)];
    policy.OnAdmitted(now, id, rate);
    for (int change = 0; change < 20; ++change) {
      now += rng.Exponential(0.05);
      const double next = levels[rng.Categorical(weights)];
      policy.OnRateChange(now, id, rate, next);
      rate = next;
    }
  }
  const sim::LinkView view{1.5e6 * static_cast<double>(calls + 1), 0.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.Admit(now + 1.0, view, 1.28e6));
  }
}
BENCHMARK(BM_MemoryPolicyAdmit)->Arg(100)->Arg(1000)->Arg(10000);

// One tilting-point solve on the same 41-level grid, every level carrying
// a seeded random mass, for a per-call rate a = mean + (peak - mean) * f
// near the mean, mid-range and near the peak. The solve reads the
// distribution's mean and peak itself, as a Chernoff admission test does.
void BM_TiltingPoint(benchmark::State& state, double f) {
  const std::vector<double> grid = UniformGrid(0.0, 2.56e6, 41);
  Rng rng(5);
  std::vector<double> probabilities(grid.size());
  double total = 0;
  for (double& p : probabilities) {
    p = rng.Uniform(0.05, 1.0);
    total += p;
  }
  for (double& p : probabilities) p /= total;
  const ldev::DiscreteDistribution dist(grid, probabilities);
  const double a = dist.Mean() + (dist.Max() - dist.Mean()) * f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ldev::TiltingPoint(dist, a));
  }
}
BENCHMARK_CAPTURE(BM_TiltingPoint, near_mean, 1e-3);
BENCHMARK_CAPTURE(BM_TiltingPoint, mid_range, 0.5);
BENCHMARK_CAPTURE(BM_TiltingPoint, near_peak, 1.0 - 1e-3);

void BM_StarWarsSynthesis(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::MakeStarWarsTrace(7, state.range(0)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StarWarsSynthesis)->Arg(14400);

}  // namespace

int main(int argc, char** argv) {
  return rcbr::bench::RunMicroBench("micro_hotpaths", argc, argv);
}
