#include "sim/engine/simulation.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "admission/policies.h"
#include "runtime/emit.h"
#include "runtime/sweep.h"
#include "sim/engine/event_queue.h"
#include "sim/engine/measurement.h"
#include "sim/fault/fault_plan.h"
#include "util/error.h"
#include "util/piecewise.h"

namespace rcbr::sim::engine {
namespace {

// A payload tagged with `tag` in `a`; the tests read the tags back in
// fire order.
EventPayload Tagged(std::int64_t tag) {
  EventPayload payload;
  payload.kind = 1;
  payload.a = static_cast<std::uint64_t>(tag);
  return payload;
}

std::vector<std::int64_t> DrainTags(EventQueue& q) {
  std::vector<std::int64_t> tags;
  while (!q.empty()) {
    tags.push_back(static_cast<std::int64_t>(q.Pop().payload.a));
  }
  return tags;
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  q.Post(3.0, Tagged(3));
  q.Post(1.0, Tagged(1));
  q.Post(2.0, Tagged(2));
  EXPECT_EQ(DrainTags(q), (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFiresInScheduleOrder) {
  // The (time, seq) tie-break: simultaneous events fire in the order they
  // were scheduled. This is what keeps seeded runs bit-reproducible.
  EventQueue q;
  for (int i = 0; i < 8; ++i) q.Post(5.0, Tagged(i));
  q.Post(1.0, Tagged(-1));
  std::vector<std::int64_t> expected = {-1};
  for (int i = 0; i < 8; ++i) expected.push_back(i);
  EXPECT_EQ(DrainTags(q), expected);
}

TEST(EventQueue, SameTimeOrderHoldsAtSequenceCounterCeiling) {
  // The tie-break counter is 64-bit and unreachable in real runs, but the
  // ordering contract must hold right up to the last representable
  // sequence number — no sign-flip or wraparound surprises there.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EventQueue q;
  q.ResetSequenceForTest(kMax - 3);
  for (int i = 0; i < 3; ++i) q.Post(5.0, Tagged(i));
  EXPECT_EQ(q.next_sequence(), kMax);
  q.Post(5.0, Tagged(3));  // the last usable seq
  q.Post(1.0, Tagged(-1));
  EXPECT_EQ(DrainTags(q), (std::vector<std::int64_t>{-1, 0, 1, 2, 3}));
}

TEST(EventQueue, NextTimeRequiresNonEmpty) {
  EventQueue q;
  EXPECT_THROW(q.next_time(), InvalidArgument);
  EXPECT_THROW(q.Pop(), InvalidArgument);
  EXPECT_THROW(q.Post(std::numeric_limits<double>::quiet_NaN(), Tagged(0)),
               InvalidArgument);
}

// ---------------------------------------------------------------------
// RunSimulation's event loop: events strictly before the horizon fire,
// and the segment after the last event is integrated by the final clock
// advance. Handlers post the events that follow them. (Posts made at the
// popped instant from inside a handler, as upgrade passes are, are pinned
// by EventQueueDifferential.SameInstantPostsWhilePopping.)
// ---------------------------------------------------------------------

// Both profiles outlive every horizon below, so no call departs.
std::vector<CallProfile> LongConstantProfiles() {
  return {{PiecewiseConstant({{0, 1.0}}, 1000), 1.0},
          {PiecewiseConstant({{0, 2.5}}, 1000), 1.0}};
}

// One link, horizon warmup + 2 * interval = 10 + 2 * 20 = 50 exactly.
SimulationOptions HorizonOptions() {
  SimulationOptions options;
  options.link_capacities_bps = {100.0};
  options.classes.resize(1);
  options.classes[0].candidate_routes = {{0}};
  options.classes[0].arrival_rate_per_s = 0.5;
  options.classes[0].uniform_profile_pick = true;
  options.warmup_seconds = 10.0;
  options.sample_intervals = 2;
  options.interval_seconds = 20.0;
  return options;
}

TEST(Simulation, HandlersCanScheduleMoreEvents) {
  // Only the first arrival per class is posted before the loop starts;
  // every later event is posted by a handler while the loop runs.
  SimulationOptions options = HorizonOptions();
  Rng rng(37);
  const SimulationResult chained =
      RunSimulation(LongConstantProfiles(), options, rng);
  // No call steps or departs before the horizon, so each event fired is
  // an arrival, and each arrival after the first was posted by the
  // previous arrival's handler.
  ASSERT_GT(chained.per_class[0].offered_calls, 1);
  EXPECT_EQ(chained.events_processed, chained.per_class[0].offered_calls);

  // Two-second calls with one rate step: admission posts the step, the
  // step handler posts the departure, and both fire inside the run.
  const std::vector<CallProfile> short_calls = {
      {PiecewiseConstant({{0, 1.0}, {1, 2.0}}, 2), 1.0}};
  Rng rng2(37);
  const SimulationResult stepped = RunSimulation(short_calls, options, rng2);
  const std::int64_t offered = stepped.per_class[0].offered_calls;
  ASSERT_GT(offered, 1);
  EXPECT_EQ(stepped.per_class[0].blocked_calls, 0);
  EXPECT_GT(stepped.events_processed, 2 * offered);
  EXPECT_LT(stepped.peak_concurrent_calls, offered);
}

TEST(Simulation, FaultExactlyAtTheHorizonNeverFires) {
  auto run = [](double down_at, obs::Recorder& recorder) {
    fault::FaultPlan plan;
    plan.Add({down_at, fault::FaultKind::kLinkDown, 0, 0, 0, 0});
    SimulationOptions options = HorizonOptions();
    options.track_connections = true;
    options.fault_plan = &plan;
    options.recorder = &recorder;
    Rng rng(29);
    return RunSimulation(LongConstantProfiles(), options, rng);
  };
  obs::Recorder at_end;
  const SimulationResult stays_queued = run(50.0, at_end);
  EXPECT_EQ(stays_queued.per_class[0].dropped_calls, 0);
  EXPECT_EQ(at_end.metrics().Snapshot().counters.count("fault.link_failures"),
            0u);

  obs::Recorder just_before;
  const SimulationResult fires = run(std::nextafter(50.0, 0.0), just_before);
  EXPECT_GT(fires.per_class[0].dropped_calls, 0);
  // The fault is the one extra event; the arrivals are the same draws.
  EXPECT_EQ(fires.events_processed, stays_queued.events_processed + 1);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(
        just_before.metrics().Snapshot().counters.at("fault.link_failures"),
        1);
  }
}

TEST(Simulation, TrailingSegmentAfterTheLastEventIsIntegrated) {
  // No call departs before the horizon, so each admitted call reserves
  // its rate from its admission to the horizon; the piece after the last
  // event is integrated only by the final advance to the horizon.
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "reads the admission times from the event trace";
  }
  constexpr double kHorizon = 40.0;
  CallSimOptions options;
  options.capacity_bps = 100.0;
  options.arrival_rate_per_s = 0.5;
  options.sample_intervals = 1;
  options.interval_seconds = kHorizon;
  obs::Recorder recorder({.event_capacity = 4096});
  options.recorder = &recorder;
  CapacityOnlyPolicy policy;
  Rng rng(31);
  const CallSimResult r =
      RunCallSim(LongConstantProfiles(), policy, options, rng);

  double expected = 0;
  std::int64_t admitted = 0;
  for (const obs::TraceEvent& event : recorder.events()->Head()) {
    if (event.kind != obs::EventKind::kAdmitAccept) continue;
    ++admitted;
    for (const obs::TraceEvent::Field& field : event.fields) {
      if (field.name != nullptr && std::string(field.name) == "rate_bps") {
        expected += field.value * (kHorizon - event.time);
      }
    }
  }
  ASSERT_GT(admitted, 0);
  EXPECT_EQ(admitted, r.offered_calls);
  EXPECT_NEAR(r.utilization.mean() * kHorizon * options.capacity_bps,
              expected, 1e-9 * expected);
}

// ---------------------------------------------------------------------
// Validation: a horizon or arrival stream that is not a finite number
// would never end the loop, and a bad lossy channel must be rejected
// even by a run that admits nothing.
// ---------------------------------------------------------------------

void ExpectRejected(const SimulationOptions& options) {
  Rng rng(1);
  EXPECT_THROW(RunSimulation(LongConstantProfiles(), options, rng),
               InvalidArgument);
}

TEST(SimulationValidation, RejectsNegativeWarmup) {
  SimulationOptions options = HorizonOptions();
  options.warmup_seconds = -1.0;
  ExpectRejected(options);
}

TEST(SimulationValidation, RejectsNonFiniteWarmup) {
  SimulationOptions options = HorizonOptions();
  options.warmup_seconds = std::numeric_limits<double>::quiet_NaN();
  ExpectRejected(options);
  options.warmup_seconds = std::numeric_limits<double>::infinity();
  ExpectRejected(options);
}

TEST(SimulationValidation, RejectsInfiniteInterval) {
  SimulationOptions options = HorizonOptions();
  options.interval_seconds = std::numeric_limits<double>::infinity();
  ExpectRejected(options);
}

TEST(SimulationValidation, RejectsInfiniteArrivalRate) {
  SimulationOptions options = HorizonOptions();
  options.classes[0].arrival_rate_per_s =
      std::numeric_limits<double>::infinity();
  ExpectRejected(options);
}

TEST(SimulationValidation, ChecksLossyChannelBeforeAnyAdmission) {
  // Every call asks for more than the link has, so nothing is admitted
  // and no renegotiator is ever built.
  SimulationOptions options = HorizonOptions();
  options.link_capacities_bps = {0.5};
  options.track_connections = true;
  options.cell_loss_probability = 1.5;
  ExpectRejected(options);
  options.cell_loss_probability = std::numeric_limits<double>::quiet_NaN();
  ExpectRejected(options);
  options.cell_loss_probability = 0;
  options.resync_every_cells = -1;
  ExpectRejected(options);

  options.resync_every_cells = 0;
  options.cell_loss_probability = 0.1;
  Rng rng(1);
  const SimulationResult r =
      RunSimulation(LongConstantProfiles(), options, rng);
  EXPECT_EQ(r.per_class[0].blocked_calls, r.per_class[0].offered_calls);
}

TEST(MeasurementWindow, IntervalIndexAndEndTime) {
  const MeasurementWindow w(100.0, 3, 50.0);
  EXPECT_DOUBLE_EQ(w.end_time(), 250.0);
  EXPECT_EQ(w.IntervalIndex(0.0), -1);    // warmup
  EXPECT_EQ(w.IntervalIndex(99.9), -1);
  EXPECT_EQ(w.IntervalIndex(100.0), 0);
  EXPECT_EQ(w.IntervalIndex(149.9), 0);
  EXPECT_EQ(w.IntervalIndex(150.0), 1);
  EXPECT_EQ(w.IntervalIndex(249.9), 2);
  EXPECT_EQ(w.IntervalIndex(250.0), -1);  // past the end
}

TEST(MeasurementWindow, IntegrateSplitsAtBoundaries) {
  const MeasurementWindow w(10.0, 2, 5.0);
  std::vector<std::tuple<std::size_t, double, double>> segs;
  // Spans warmup, both intervals, and past-the-end in one advance.
  w.Integrate(8.0, 22.0, [&](std::size_t k, double a, double b) {
    segs.emplace_back(k, a, b);
  });
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], std::make_tuple(std::size_t{0}, 10.0, 15.0));
  EXPECT_EQ(segs[1], std::make_tuple(std::size_t{1}, 15.0, 20.0));
}

// ---------------------------------------------------------------------
// The composed acceptance check: call dynamics + Chernoff MBAC +
// multi-hop signaling + lossy RM-cell channel with resync, all in ONE
// RunSimulation, swept through the deterministic parallel runner. The
// metrics snapshot and the event trace must be byte-identical at 1, 2,
// and 8 threads.
// ---------------------------------------------------------------------

runtime::SweepSpec ComposedSpec() {
  runtime::SweepSpec spec;
  spec.name = "engine_composed_probe";
  spec.notes = {"unified engine: MBAC + multi-hop + lossy signaling"};
  spec.parameters = {"load", "loss"};
  spec.metrics = {"failure0", "failure1", "util0", "blocking"};
  spec.points = runtime::GridPoints({{0.15, 0.2}, {0.0, 0.05}});
  return spec;
}

std::vector<double> ComposedPoint(const runtime::SweepContext& ctx) {
  const std::vector<CallProfile> profiles = {
      {PiecewiseConstant({{0, 1.0}, {50, 2.0}}, 100), 1.0},
      {PiecewiseConstant({{0, 2.0}, {30, 3.0}, {70, 1.0}}, 100), 1.0}};

  admission::PolicyOptions mbac;
  mbac.target_failure_probability = 0.2;
  mbac.rate_grid_bps = {0.0, 1.0, 2.0, 3.0};
  mbac.recorder = ctx.recorder;
  admission::MemoryPolicy policy(mbac);

  SimulationOptions options;
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
  options.cell_loss_probability = ctx.parameters[1];
  // Calls renegotiate only a handful of times each (one per profile
  // step), so resync after every delta cell to exercise the repair path.
  options.resync_every_cells = 1;

  Rng rng = ctx.MakeRng();
  const SimulationResult r = RunSimulation(profiles, options, rng);

  const double span = options.interval_seconds *
                      static_cast<double>(options.sample_intervals);
  double offered = 0;
  double blocked = 0;
  for (const ClassTotals& t : r.per_class) {
    offered += static_cast<double>(t.offered_calls);
    blocked += static_cast<double>(t.blocked_calls);
  }
  return {r.per_class[0].overall_failure_probability(),
          r.per_class[1].overall_failure_probability(),
          r.util_total[0] / (span * options.link_capacities_bps[0]),
          offered > 0 ? blocked / offered : 0.0};
}

TEST(ComposedSimulation, AllLayersInOneRunAreThreadCountInvariant) {
  const runtime::SweepSpec spec = ComposedSpec();
  runtime::SweepOptions options;
  options.base_seed = 20260806;
  options.recorder.event_capacity = 256;

  options.threads = 1;
  const runtime::SweepResult serial =
      runtime::RunSweep(spec, ComposedPoint, options);
  ASSERT_EQ(serial.points.size(), spec.points.size());

  if constexpr (obs::kEnabled) {
    // Every layer must actually have run: call dynamics (offered calls),
    // MBAC (Chernoff decisions), the signaling plane (resyncs through the
    // lossy channel), and multi-hop loss (the loss=0.05 points).
    EXPECT_GT(serial.metrics.counters.at("engine.offered_calls"), 0);
    EXPECT_GT(serial.metrics.counters.at("mbac.admit_accept"), 0);
    EXPECT_GT(serial.metrics.counters.at("signaling.resyncs"), 0);
    EXPECT_GT(serial.metrics.counters.at("signaling.cells_lost"), 0);
    EXPECT_FALSE(serial.events.empty());
  }

  for (std::size_t threads : {2u, 8u}) {
    options.threads = threads;
    const runtime::SweepResult parallel =
        runtime::RunSweep(spec, ComposedPoint, options);
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      EXPECT_EQ(parallel.points[i].metrics, serial.points[i].metrics)
          << "point " << i << " diverged at " << threads << " threads";
    }
    // Byte-identical observability, not just equal summary numbers.
    EXPECT_EQ(parallel.metrics.ToJson("  "), serial.metrics.ToJson("  "));
    EXPECT_EQ(runtime::ToTraceJsonl(parallel),
              runtime::ToTraceJsonl(serial));
    EXPECT_EQ(runtime::ToJsonWithoutTimings(parallel),
              runtime::ToJsonWithoutTimings(serial));
  }
}

TEST(ComposedSimulation, LossRequiresTrackedPorts) {
  const std::vector<CallProfile> profiles = {
      {PiecewiseConstant({{0, 1.0}}, 10), 1.0}};
  SimulationOptions options;
  options.link_capacities_bps = {10.0};
  options.classes.resize(1);
  options.classes[0].candidate_routes = {{0}};
  options.classes[0].arrival_rate_per_s = 0.1;
  options.sample_intervals = 1;
  options.interval_seconds = 10.0;
  options.cell_loss_probability = 0.1;
  options.track_connections = false;  // resync needs the per-VCI table
  Rng rng(1);
  EXPECT_THROW(RunSimulation(profiles, options, rng), InvalidArgument);
}

}  // namespace
}  // namespace rcbr::sim::engine
