#include "sim/fault/fault_timeline.h"
#include "sim/fault/fault_plan.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "admission/policies.h"
#include "runtime/emit.h"
#include "runtime/sweep.h"
#include "sim/engine/simulation.h"
#include "util/error.h"
#include "util/piecewise.h"
#include "util/rng.h"

namespace rcbr::sim::fault {
namespace {

// ---------------------------------------------------------------------
// FaultPlan: seeded generation is pure data, sorted and bounded.
// ---------------------------------------------------------------------

FaultPlanOptions BusyOptions() {
  FaultPlanOptions options;
  options.horizon_s = 200.0;
  options.num_links = 3;
  options.burst_rate_per_s = 0.05;
  options.burst_duration_s = 2.0;
  options.burst_loss_probability = 0.8;
  options.link_failure_rate_per_s = 0.02;
  options.link_downtime_s = 5.0;
  options.crash_rate_per_s = 0.02;
  return options;
}

TEST(FaultPlan, GenerateIsDeterministic) {
  Rng a(42);
  Rng b(42);
  const FaultPlan plan_a = FaultPlan::Generate(BusyOptions(), a);
  const FaultPlan plan_b = FaultPlan::Generate(BusyOptions(), b);
  ASSERT_EQ(plan_a.events().size(), plan_b.events().size());
  ASSERT_FALSE(plan_a.empty());
  for (std::size_t i = 0; i < plan_a.events().size(); ++i) {
    EXPECT_EQ(plan_a.events()[i].time_s, plan_b.events()[i].time_s);
    EXPECT_EQ(plan_a.events()[i].kind, plan_b.events()[i].kind);
    EXPECT_EQ(plan_a.events()[i].link, plan_b.events()[i].link);
  }
}

TEST(FaultPlan, GenerateIsSortedBoundedAndPaired) {
  Rng rng(7);
  const FaultPlanOptions options = BusyOptions();
  const FaultPlan plan = FaultPlan::Generate(options, rng);
  ASSERT_FALSE(plan.empty());
  EXPECT_TRUE(plan.has_bursts());
  EXPECT_LT(plan.max_link(), options.num_links);
  double prev = 0;
  std::vector<int> down_minus_up(options.num_links, 0);
  for (const FaultEvent& e : plan.events()) {
    EXPECT_GE(e.time_s, prev);
    prev = e.time_s;
    // Failures start inside the horizon; only a repair may land past it.
    if (e.kind != FaultKind::kLinkUp) {
      EXPECT_LT(e.time_s, options.horizon_s);
    }
    if (e.kind == FaultKind::kLinkDown) ++down_minus_up[e.link];
    if (e.kind == FaultKind::kLinkUp) {
      --down_minus_up[e.link];
      EXPECT_GE(down_minus_up[e.link], 0) << "repair before failure";
    }
  }
  for (int leftover : down_minus_up) EXPECT_EQ(leftover, 0);
}

TEST(FaultPlan, Validation) {
  Rng rng(1);
  FaultPlanOptions options = BusyOptions();
  options.burst_loss_probability = 1.5;
  EXPECT_THROW(FaultPlan::Generate(options, rng), InvalidArgument);
  options = BusyOptions();
  options.num_links = 0;
  EXPECT_THROW(FaultPlan::Generate(options, rng), InvalidArgument);
  options = BusyOptions();
  options.link_failure_rate_per_s = -1;
  EXPECT_THROW(FaultPlan::Generate(options, rng), InvalidArgument);

  FaultPlan plan;
  EXPECT_THROW(plan.Add({-1.0, FaultKind::kLinkDown, 0, 0, 0, 0}),
               InvalidArgument);
  EXPECT_THROW(
      plan.Add({1.0, FaultKind::kRmLossBurst, 0, 2.0,
                std::nan(""), 0}),
      InvalidArgument);
  EXPECT_TRUE(plan.empty());
  plan.Add({5.0, FaultKind::kLinkDown, 2, 0, 0, 0});
  plan.Add({1.0, FaultKind::kControllerCrash, 1, 0, 0, 0});
  ASSERT_EQ(plan.events().size(), 2u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kControllerCrash);
  EXPECT_EQ(plan.max_link(), 2u);
  EXPECT_FALSE(plan.has_bursts());
}

TEST(FaultPlan, RejectsNonFiniteTimes) {
  // A simulation clock cannot advance to infinity: an infinite horizon
  // with a positive rate would make Generate append forever, and an
  // event (or burst end) at infinity would be posted to the event loop.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(1);
  FaultPlanOptions options = BusyOptions();
  options.horizon_s = kInf;
  EXPECT_THROW(FaultPlan::Generate(options, rng), InvalidArgument);
  options = BusyOptions();
  options.horizon_s = std::nan("");
  EXPECT_THROW(FaultPlan::Generate(options, rng), InvalidArgument);
  options = BusyOptions();
  options.burst_rate_per_s = kInf;
  EXPECT_THROW(FaultPlan::Generate(options, rng), InvalidArgument);
  options = BusyOptions();
  options.link_downtime_s = kInf;
  EXPECT_THROW(FaultPlan::Generate(options, rng), InvalidArgument);

  FaultPlan plan;
  EXPECT_THROW(plan.Add({kInf, FaultKind::kLinkDown, 0, 0, 0, 0}),
               InvalidArgument);
  EXPECT_THROW(plan.Add({1.0, FaultKind::kRmLossBurst, 0, kInf, 0.5, 0}),
               InvalidArgument);
  EXPECT_TRUE(plan.empty());
}

// ---------------------------------------------------------------------
// FaultTimeline: bursts combine by max and expire; link state flips
// idempotently; the AdvanceTo handler sees changes in schedule order.
// ---------------------------------------------------------------------

TEST(FaultTimeline, BurstsCombineByMaxAndExpire) {
  FaultPlan plan;
  plan.Add({1.0, FaultKind::kRmLossBurst, 0, 4.0, 0.5, 0.1});
  plan.Add({2.0, FaultKind::kRmLossBurst, 0, 1.0, 0.8, 0.05});
  FaultTimeline timeline(&plan, 1);
  const auto ignore = [](const FaultEvent&, double) {};
  timeline.AdvanceTo(0.5, ignore);
  EXPECT_DOUBLE_EQ(timeline.conditions().extra_loss_probability, 0.0);
  timeline.AdvanceTo(1.5, ignore);
  EXPECT_DOUBLE_EQ(timeline.conditions().extra_loss_probability, 0.5);
  EXPECT_DOUBLE_EQ(timeline.conditions().extra_delay_s, 0.1);
  timeline.AdvanceTo(2.5, ignore);  // both active: max per field
  EXPECT_DOUBLE_EQ(timeline.conditions().extra_loss_probability, 0.8);
  EXPECT_DOUBLE_EQ(timeline.conditions().extra_delay_s, 0.1);
  // The short burst expired, the long one holds.
  timeline.AdvanceTo(3.5, ignore);
  EXPECT_DOUBLE_EQ(timeline.conditions().extra_loss_probability, 0.5);
  timeline.AdvanceTo(10.0, ignore);
  EXPECT_DOUBLE_EQ(timeline.conditions().extra_loss_probability, 0.0);
  EXPECT_DOUBLE_EQ(timeline.conditions().extra_delay_s, 0.0);
  EXPECT_EQ(timeline.stats().bursts, 2);
}

TEST(FaultTimeline, LinkEventsFlipStateAndFireCallbacksOnce) {
  FaultPlan plan;
  plan.Add({1.0, FaultKind::kLinkDown, 0, 0, 0, 0});
  plan.Add({2.0, FaultKind::kLinkDown, 0, 0, 0, 0});  // already down: no-op
  plan.Add({3.0, FaultKind::kLinkUp, 0, 0, 0, 0});
  plan.Add({4.0, FaultKind::kControllerCrash, 1, 0, 0, 0});
  FaultTimeline timeline(&plan, 2);
  std::vector<std::pair<char, std::size_t>> fired;
  std::vector<double> fired_at;
  const auto record = [&](const FaultEvent& event, double now) {
    const char tag = event.kind == FaultKind::kLinkDown ? 'd'
                     : event.kind == FaultKind::kLinkUp ? 'u'
                     : event.kind == FaultKind::kControllerCrash ? 'c'
                                                               : '?';
    fired.emplace_back(tag, event.link);
    fired_at.push_back(now);
  };
  EXPECT_TRUE(timeline.link_up(0));
  timeline.AdvanceTo(2.5, record);
  EXPECT_FALSE(timeline.link_up(0));
  EXPECT_TRUE(timeline.link_up(1));
  timeline.AdvanceTo(5.0, record);
  EXPECT_TRUE(timeline.link_up(0));
  timeline.AdvanceTo(6.0, record);  // drained: nothing fires again
  const std::vector<std::pair<char, std::size_t>> expected = {
      {'d', 0u}, {'u', 0u}, {'c', 1u}};
  EXPECT_EQ(fired, expected);
  // The handler sees the time the owner advanced to, not the event's.
  EXPECT_EQ(fired_at, (std::vector<double>{2.5, 5.0, 5.0}));
  EXPECT_EQ(timeline.stats().link_failures, 1);
  EXPECT_EQ(timeline.stats().link_repairs, 1);
  EXPECT_EQ(timeline.stats().crashes, 1);
}

TEST(FaultTimeline, RejectsPlanTargetingMissingLink) {
  FaultPlan plan;
  plan.Add({1.0, FaultKind::kLinkDown, 3, 0, 0, 0});
  EXPECT_THROW(FaultTimeline(&plan, 2), InvalidArgument);
}

// ---------------------------------------------------------------------
// Fault injection in the unified simulation.
// ---------------------------------------------------------------------

std::vector<CallProfile> ConstantProfile() {
  return {{PiecewiseConstant({{0, 1.0}}, 100), 1.0}};
}

engine::SimulationOptions SingleLinkOptions() {
  engine::SimulationOptions options;
  options.link_capacities_bps = {10.0};
  options.classes.resize(1);
  options.classes[0].candidate_routes = {{0}};
  options.classes[0].arrival_rate_per_s = 0.3;
  options.sample_intervals = 1;
  options.interval_seconds = 50.0;
  options.track_connections = true;
  return options;
}

TEST(FaultSimulation, NonEmptyPlanRequiresTrackedConnections) {
  FaultPlan plan;
  plan.Add({1.0, FaultKind::kLinkDown, 0, 0, 0, 0});
  engine::SimulationOptions options = SingleLinkOptions();
  options.track_connections = false;
  options.fault_plan = &plan;
  Rng rng(1);
  EXPECT_THROW(engine::RunSimulation(ConstantProfile(), options, rng),
               InvalidArgument);
}

TEST(FaultSimulation, PlanTargetingMissingLinkThrows) {
  FaultPlan plan;
  plan.Add({1.0, FaultKind::kControllerCrash, 5, 0, 0, 0});
  engine::SimulationOptions options = SingleLinkOptions();
  options.fault_plan = &plan;
  Rng rng(1);
  EXPECT_THROW(engine::RunSimulation(ConstantProfile(), options, rng),
               InvalidArgument);
}

TEST(FaultSimulation, DownLinkBlocksEveryAdmission) {
  FaultPlan plan;
  plan.Add({0.0, FaultKind::kLinkDown, 0, 0, 0, 0});
  engine::SimulationOptions options = SingleLinkOptions();
  options.fault_plan = &plan;
  Rng rng(11);
  const engine::SimulationResult r =
      engine::RunSimulation(ConstantProfile(), options, rng);
  ASSERT_GT(r.per_class[0].offered_calls, 0);
  EXPECT_EQ(r.per_class[0].blocked_calls, r.per_class[0].offered_calls);
  EXPECT_DOUBLE_EQ(r.util_total[0], 0.0);
}

TEST(FaultSimulation, FailureWithoutAlternateDropsActiveCalls) {
  FaultPlan plan;
  plan.Add({25.0, FaultKind::kLinkDown, 0, 0, 0, 0});
  engine::SimulationOptions options = SingleLinkOptions();
  options.fault_plan = &plan;
  Rng rng(13);
  const engine::SimulationResult r =
      engine::RunSimulation(ConstantProfile(), options, rng);
  EXPECT_GT(r.per_class[0].dropped_calls, 0);
  EXPECT_EQ(r.per_class[0].rerouted_calls, 0);
  // Calls admitted before the failure were dropped and the link stayed
  // blocked, so some later arrivals must have been refused too.
  EXPECT_GT(r.per_class[0].blocked_calls, 0);
}

TEST(FaultSimulation, FailureWithAlternateReroutesMidCall) {
  FaultPlan plan;
  plan.Add({25.0, FaultKind::kLinkDown, 0, 0, 0, 0});
  plan.Add({60.0, FaultKind::kLinkUp, 0, 0, 0, 0});
  engine::SimulationOptions options = SingleLinkOptions();
  options.link_capacities_bps = {10.0, 10.0};
  // First-fit prefers link 0, so the failure catches active calls there
  // and the idle link 1 is the feasible alternate.
  options.classes[0].candidate_routes = {{0}, {1}};
  options.interval_seconds = 100.0;
  options.fault_plan = &plan;
  Rng rng(17);
  const engine::SimulationResult r =
      engine::RunSimulation(ConstantProfile(), options, rng);
  EXPECT_GT(r.per_class[0].rerouted_calls, 0);
  EXPECT_GT(r.util_total[1], 0.0);
}

TEST(FaultSimulation, ControllerCrashIsRepairedByResync) {
  FaultPlan plan;
  plan.Add({20.0, FaultKind::kControllerCrash, 0, 0, 0, 0});
  plan.Add({40.0, FaultKind::kControllerCrash, 0, 0, 0, 0});
  engine::SimulationOptions options = SingleLinkOptions();
  options.fault_plan = &plan;
  Rng rng(19);
  const engine::SimulationResult r =
      engine::RunSimulation(ConstantProfile(), options, rng);
  // The crash wipes the port mid-run; the per-call absolute resyncs
  // rebuild it, so the run completes with calls still admitted and
  // carrying reserved bandwidth after the crashes.
  EXPECT_GT(r.per_class[0].offered_calls, 0);
  EXPECT_GT(r.util_total[0], 0.0);
  EXPECT_EQ(r.per_class[0].dropped_calls, 0);
}

TEST(FaultSimulation, EmptyPlanIsByteIdenticalToNoPlan) {
  const FaultPlan empty;
  engine::SimulationOptions options = SingleLinkOptions();
  auto run = [&](const FaultPlan* plan) {
    options.fault_plan = plan;
    Rng rng(23);
    return engine::RunSimulation(ConstantProfile(), options, rng);
  };
  const engine::SimulationResult without = run(nullptr);
  const engine::SimulationResult with = run(&empty);
  ASSERT_EQ(with.per_class.size(), without.per_class.size());
  EXPECT_EQ(with.per_class[0].offered_calls,
            without.per_class[0].offered_calls);
  EXPECT_EQ(with.per_class[0].blocked_calls,
            without.per_class[0].blocked_calls);
  EXPECT_EQ(with.per_class[0].upward_attempts,
            without.per_class[0].upward_attempts);
  EXPECT_EQ(with.util_by_interval, without.util_by_interval);
  EXPECT_EQ(with.util_total, without.util_total);
}

// ---------------------------------------------------------------------
// The issue's composed acceptance check: call dynamics + Chernoff MBAC +
// multi-hop lossy signaling + link failures + controller restarts in ONE
// run, byte-identical across sweep thread counts. The fault plan is part
// of the point's seeded input (substream 1), exactly like the workload.
// ---------------------------------------------------------------------

runtime::SweepSpec FaultComposedSpec() {
  runtime::SweepSpec spec;
  spec.name = "fault_composed_probe";
  spec.notes = {"unified engine under injected faults"};
  spec.parameters = {"load", "fault_scale"};
  spec.metrics = {"failure0", "rerouted", "dropped", "util0"};
  spec.points = runtime::GridPoints({{0.15, 0.2}, {1.0}});
  return spec;
}

std::vector<double> FaultComposedPoint(const runtime::SweepContext& ctx) {
  const std::vector<CallProfile> profiles = {
      {PiecewiseConstant({{0, 1.0}, {50, 2.0}}, 100), 1.0},
      {PiecewiseConstant({{0, 2.0}, {30, 3.0}, {70, 1.0}}, 100), 1.0}};

  admission::PolicyOptions mbac;
  mbac.target_failure_probability = 0.2;
  mbac.rate_grid_bps = {0.0, 1.0, 2.0, 3.0};
  mbac.recorder = ctx.recorder;
  admission::MemoryPolicy policy(mbac);

  engine::SimulationOptions options;
  options.link_capacities_bps = {10.0, 10.0, 10.0};
  options.classes.resize(2);
  options.classes[0].candidate_routes = {{0, 1}};
  options.classes[0].arrival_rate_per_s = ctx.parameters[0];
  options.classes[0].profile_index = 0;
  options.classes[1].candidate_routes = {{1, 2}, {2}};
  options.classes[1].arrival_rate_per_s = ctx.parameters[0];
  options.classes[1].profile_index = 1;
  options.warmup_seconds = 100.0;
  options.sample_intervals = 3;
  options.interval_seconds = 150.0;
  options.least_loaded_routing = true;
  options.policy = &policy;
  options.recorder = ctx.recorder;
  options.signaling_recorder = ctx.recorder;
  options.per_hop_delay_s = 0.001;
  options.track_connections = true;
  options.cell_loss_probability = 0.05;
  options.resync_every_cells = 1;

  FaultPlanOptions fault;
  fault.horizon_s = options.warmup_seconds +
                    options.interval_seconds *
                        static_cast<double>(options.sample_intervals);
  fault.num_links = 3;
  fault.burst_rate_per_s = 0.01 * ctx.parameters[1];
  fault.burst_duration_s = 10.0;
  fault.burst_loss_probability = 0.6;
  fault.link_failure_rate_per_s = 0.003 * ctx.parameters[1];
  fault.link_downtime_s = 25.0;
  fault.crash_rate_per_s = 0.005 * ctx.parameters[1];
  Rng plan_rng = ctx.MakeRng(1);
  const FaultPlan plan = FaultPlan::Generate(fault, plan_rng);
  options.fault_plan = &plan;

  Rng rng = ctx.MakeRng();
  const engine::SimulationResult r =
      engine::RunSimulation(profiles, options, rng);

  double rerouted = 0;
  double dropped = 0;
  for (const engine::ClassTotals& t : r.per_class) {
    rerouted += static_cast<double>(t.rerouted_calls);
    dropped += static_cast<double>(t.dropped_calls);
  }
  const double span = options.interval_seconds *
                      static_cast<double>(options.sample_intervals);
  return {r.per_class[0].overall_failure_probability(), rerouted, dropped,
          r.util_total[0] / (span * options.link_capacities_bps[0])};
}

TEST(FaultSimulation, ComposedFaultRunIsThreadCountInvariant) {
  const runtime::SweepSpec spec = FaultComposedSpec();
  runtime::SweepOptions options;
  options.base_seed = 20260806;
  options.recorder.event_capacity = 256;

  options.threads = 1;
  const runtime::SweepResult serial =
      runtime::RunSweep(spec, FaultComposedPoint, options);
  ASSERT_EQ(serial.points.size(), spec.points.size());

  if constexpr (obs::kEnabled) {
    // Every fault category must actually have fired, on top of the usual
    // call/MBAC/signaling layers.
    EXPECT_GT(serial.metrics.counters.at("engine.offered_calls"), 0);
    EXPECT_GT(serial.metrics.counters.at("mbac.admit_accept"), 0);
    EXPECT_GT(serial.metrics.counters.at("fault.bursts"), 0);
    EXPECT_GT(serial.metrics.counters.at("fault.link_failures"), 0);
    EXPECT_GT(serial.metrics.counters.at("fault.crashes"), 0);
    EXPECT_FALSE(serial.events.empty());
  }

  for (std::size_t threads : {2u, 8u}) {
    options.threads = threads;
    const runtime::SweepResult parallel =
        runtime::RunSweep(spec, FaultComposedPoint, options);
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      EXPECT_EQ(parallel.points[i].metrics, serial.points[i].metrics)
          << "point " << i << " diverged at " << threads << " threads";
    }
    EXPECT_EQ(parallel.metrics.ToJson("  "), serial.metrics.ToJson("  "));
    EXPECT_EQ(runtime::ToTraceJsonl(parallel),
              runtime::ToTraceJsonl(serial));
    EXPECT_EQ(runtime::ToJsonWithoutTimings(parallel),
              runtime::ToJsonWithoutTimings(serial));
  }
}

// ---------------------------------------------------------------------
// Absolute pins of fault runs. The thread-count checks above compare runs
// with each other; these compare them with values captured when fault
// events were still engine closures, so the switch to POD fault events
// (and any later engine change) must reproduce every output byte.
// ---------------------------------------------------------------------

std::uint64_t Fnv1a64(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

TEST(FaultSimulation, ComposedFaultRunMatchesPinnedOutputs) {
  runtime::SweepOptions options;
  options.base_seed = 20260806;
  options.recorder.event_capacity = 256;
  options.threads = 1;
  const runtime::SweepResult r =
      runtime::RunSweep(FaultComposedSpec(), FaultComposedPoint, options);
  // {failure0, rerouted, dropped, util0} per point.
  const std::vector<std::vector<double>> pinned = {
      {0.0, 2.0, 5.0, 0x1.0cd64c2b120d3p-2},
      {0.0, 0.0, 13.0, 0x1.c3c1b8db71ee9p-3}};
  ASSERT_EQ(r.points.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(r.points[i].metrics, pinned[i]) << "point " << i;
  }
  if constexpr (obs::kEnabled) {
    // The obs counters and the event trace, byte for byte.
    const std::string json = runtime::ToJsonWithoutTimings(r);
    const std::string trace = runtime::ToTraceJsonl(r);
    EXPECT_EQ(Fnv1a64(json), 0xe2af377906206b02ull) << json;
    EXPECT_EQ(trace.size(), 65783u);
    EXPECT_EQ(Fnv1a64(trace), 0x7de7e1767f6ac15bull);
  }
}

// BENCH_<name>.json text minus its run-provenance fields ("threads",
// "total_seconds", per-point "seconds"): the text
// runtime::ToJsonWithoutTimings gives for its result.
std::string WithoutTimings(const std::string& bench_json) {
  std::istringstream in(bench_json);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("     \"seconds\": ")) {
      // Closes the point: drop the seed line's ",\n", keep the brace.
      out.resize(out.size() - 2);
      out += line.substr(line.find('}')) + "\n";
    } else if (!line.starts_with("  \"threads\": ") &&
               !line.starts_with("  \"total_seconds\": ")) {
      out += line + "\n";
    }
  }
  return out;
}

TEST(FaultSimulation, FigFaultSweepQuickMatchesPinnedOutput) {
  // bench/fig_fault_sweep drives FaultTimeline on its own slot clock; its
  // --quick JSON (minus timings) is pinned as a whole.
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "RCBR_OBS=OFF";
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("fig_fault_sweep_pin_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string command = std::string("\"") + RCBR_FIG_FAULT_SWEEP +
                              "\" --quick --threads=1 --json-dir=\"" +
                              dir.string() + "\" > /dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;
  std::ifstream file(dir / "BENCH_fig_fault_sweep.json");
  std::stringstream text;
  text << file.rdbuf();
  fs::remove_all(dir);
  const std::string json = WithoutTimings(text.str());
  EXPECT_EQ(json.size(), 3875u);
  EXPECT_EQ(Fnv1a64(json), 0xb5036d6df6526ae8ull) << json;
}

}  // namespace
}  // namespace rcbr::sim::fault
