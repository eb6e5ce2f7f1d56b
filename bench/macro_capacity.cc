// Macro-capacity trajectory: how many calls and events the unified
// engine sustains (ROADMAP "practical scale" north star).
//
// The paper's efficiency claim (Sec. VI) is that RCBR only simulates
// renegotiation events, so capacity is bounded by the event loop, not
// the frame rate. This harness measures that bound directly: a Poisson
// stream of alternating two-rate RCBR calls on one link, sized so the
// expected concurrency hits the `calls` parameter, with capacity for
// (essentially) all of them. Each call renegotiates every 4 slots, so
// the top point — 10^6 concurrent calls — drives well over 10^8 events
// through the calendar queue and the SoA call store in one run.
//
// Points run serially on one thread (wall-clock throughput is the
// metric; parallel points would contend for memory bandwidth). The
// `tracked` parameter re-runs a size with per-VCI connection tracking
// on, exercising the ports' open-addressing audit tables at the same
// scale. Simulation outputs stay deterministic per seed; only the
// wall-time-derived columns (events/sec, admitted/sec) vary run to run.
//
// CI runs `macro_capacity --quick` in Release and compares events/sec
// against tools/macro_capacity_floor.json (fails on >20% regression; see
// tools/check_macro_capacity.py).
#include <chrono>
#include <cstdint>
#include <vector>

#include "experiment_lib.h"
#include "sim/engine/simulation.h"
#include "util/piecewise.h"
#include "util/rng.h"

namespace {

// One call: 128 slots of 1 s, alternating 1.0 / 3.0 every 4 slots —
// 32 renegotiations per call, mean rate 2.0.
constexpr std::int64_t kSlots = 128;
constexpr std::int64_t kStepEvery = 4;
constexpr double kLowRate = 1.0;
constexpr double kHighRate = 3.0;
constexpr double kMeanRate = (kLowRate + kHighRate) / 2;

rcbr::sim::CallProfile MakeProfile() {
  std::vector<rcbr::Step> steps;
  for (std::int64_t t = 0; t < kSlots; t += kStepEvery) {
    steps.push_back({t, (t / kStepEvery) % 2 == 0 ? kLowRate : kHighRate});
  }
  return {rcbr::PiecewiseConstant(std::move(steps), kSlots), 1.0};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rcbr;
  bench::Args args = bench::ParseArgs(argc, argv);
  // Serial points: each one owns the machine while its clock runs.
  args.threads = 1;

  runtime::SweepSpec spec;
  spec.name = "macro_capacity";
  spec.notes = {
      "engine capacity trajectory: concurrent calls vs event throughput",
      "alternating two-rate calls (32 renegotiations each) on one link "
      "sized to admit the whole population; calls = expected concurrency",
      "tracked=1 re-runs the size with per-VCI audit tables on",
      "obs=1 re-runs the size with the point recorder wired into the "
      "engine (counters, spans, flight hooks) — the tracked-vs-untracked "
      "overhead pair checked by tools/check_obs_overhead.py",
      "events/sec and admitted/sec are wall-clock derived; sim outputs "
      "are deterministic per seed"};
  spec.parameters = {"calls", "tracked", "obs"};
  spec.metrics = {"events_per_sec", "admitted_per_sec", "events",
                  "peak_calls",     "blocking",         "wall_s"};
  if (args.quick) {
    spec.points = {{1e3, 0.0, 0.0},
                   {1e4, 0.0, 0.0},
                   {1e4, 0.0, 1.0},
                   {1e4, 1.0, 0.0},
                   {1e4, 1.0, 1.0}};
  } else {
    spec.points = {{1e3, 0.0, 0.0}, {1e4, 0.0, 0.0}, {1e4, 0.0, 1.0},
                   {1e5, 0.0, 0.0}, {1e5, 0.0, 1.0}, {1e5, 1.0, 0.0},
                   {1e5, 1.0, 1.0}, {1e6, 0.0, 0.0}, {1e6, 0.0, 1.0},
                   {1e6, 1.0, 0.0}, {1e6, 1.0, 1.0}};
  }

  const std::vector<sim::CallProfile> profiles = {MakeProfile()};

  runtime::RunExperiment(
      spec,
      [&](const runtime::SweepContext& ctx) {
        const double target_calls = ctx.parameters[0];
        const bool tracked = ctx.parameters[1] != 0.0;
        const bool observed = ctx.parameters[2] != 0.0;
        const double duration_s = static_cast<double>(kSlots);

        sim::engine::SimulationOptions options;
        // Room for the whole target population at its mean rate plus
        // fluctuation headroom, so admission is effectively open.
        options.link_capacities_bps = {kMeanRate * target_calls * 1.1 +
                                       8 * kHighRate};
        options.classes.resize(1);
        options.classes[0].candidate_routes = {{0}};
        // Little's law: concurrency = arrival rate x holding time.
        options.classes[0].arrival_rate_per_s = target_calls / duration_s;
        options.classes[0].profile_index = 0;
        options.warmup_seconds = duration_s;  // fill to steady state
        options.sample_intervals = 3;
        options.interval_seconds = duration_s;
        options.track_connections = tracked;
        options.expected_peak_calls =
            static_cast<std::size_t>(target_calls * 1.1) + 64;
        if (observed) {
          options.recorder = ctx.recorder;
          options.signaling_recorder = ctx.recorder;
        }

        Rng rng = ctx.MakeRng();
        const auto t0 = std::chrono::steady_clock::now();
        const sim::engine::SimulationResult r =
            sim::engine::RunSimulation(profiles, options, rng);
        const double wall_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();

        const sim::engine::ClassTotals& totals = r.per_class.front();
        const double admitted = static_cast<double>(totals.offered_calls -
                                                    totals.blocked_calls);
        const double events = static_cast<double>(r.events_processed);
        return std::vector<double>{
            wall_s > 0 ? events / wall_s : 0.0,
            wall_s > 0 ? admitted / wall_s : 0.0,
            events,
            static_cast<double>(r.peak_concurrent_calls),
            totals.blocking_probability(), wall_s};
      },
      args);
  return 0;
}
