#include "sim/engine/engine.h"

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
#include "sim/engine/simulation.h"
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

TEST(Engine, RunUntilFiresStrictlyBeforeEnd) {
  // The legacy loops popped while top.time < end; an event exactly at the
  // horizon stays queued. Pinned.
  Engine e;
  std::vector<double> fired;
  e.set_dispatcher([&](const EventPayload&) { fired.push_back(e.now()); });
  e.Post(1.0, Tagged(0));
  e.Post(2.0, Tagged(0));
  e.Post(3.0, Tagged(0));
  e.RunUntil(2.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0}));
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  e.RunUntil(4.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_DOUBLE_EQ(e.now(), 4.0);
  EXPECT_EQ(e.events_processed(), 3);
}

TEST(Engine, HandlersCanScheduleMoreEvents) {
  // The dispatcher may post while it runs — the engine's own upgrade
  // passes are posted at now() from inside a departure.
  Engine e;
  std::vector<std::pair<double, std::uint64_t>> fired;
  e.set_dispatcher([&](const EventPayload& event) {
    fired.emplace_back(e.now(), event.a);
    if (event.a == 0) {
      e.Post(1.5, Tagged(1));
      e.Post(e.now(), Tagged(2));
    }
  });
  e.Post(1.0, Tagged(0));
  e.RunUntil(10.0);
  EXPECT_EQ(fired, (std::vector<std::pair<double, std::uint64_t>>{
                       {1.0, 0}, {1.0, 2}, {1.5, 1}}));
}

TEST(Engine, AdvanceHookSeesEverySegment) {
  // The hook observes [from, to) for each clock movement — events first,
  // then the final advance to the horizon.
  Engine e;
  std::vector<std::pair<double, double>> segments;
  e.set_advance_hook(
      [&](double from, double to) { segments.emplace_back(from, to); });
  e.set_dispatcher([](const EventPayload&) {});
  e.Post(2.0, Tagged(0));
  e.Post(2.0, Tagged(0));  // same-time event moves the clock zero; no segment
  e.Post(5.0, Tagged(0));
  e.RunUntil(7.0);
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[0], (std::pair<double, double>{0.0, 2.0}));
  EXPECT_EQ(segments[1], (std::pair<double, double>{2.0, 5.0}));
  EXPECT_EQ(segments[2], (std::pair<double, double>{5.0, 7.0}));
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
