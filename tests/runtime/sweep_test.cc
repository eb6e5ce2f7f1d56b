#include "runtime/sweep.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/emit.h"
#include "runtime/experiment.h"
#include "sim/call_sim.h"
#include "util/error.h"
#include "util/piecewise.h"

namespace rcbr::runtime {
namespace {

// A small stepwise-CBR call profile for the call-level simulator.
sim::CallProfile TestProfile() {
  PiecewiseConstant rates({{0, 1.0e6}, {40, 3.0e6}, {80, 1.5e6}}, 120);
  return {rates, 1.0};
}

// A sweep over (capacity multiple, offered load) points of the call-level
// simulator — the exact workload shape of the Figs. 7-10 harnesses.
SweepSpec CallSimSpec() {
  SweepSpec spec;
  spec.name = "determinism_probe";
  spec.notes = {"call-level simulator sweep for the determinism test"};
  spec.parameters = {"capacity_x", "load"};
  spec.metrics = {"failure_prob", "utilization", "blocking"};
  spec.points = GridPoints({{8, 16}, {0.5, 0.8, 1.1}});
  return spec;
}

std::vector<double> CallSimPoint(const SweepContext& ctx) {
  const sim::CallProfile profile = TestProfile();
  const double mean_bps = profile.rates_bps.Mean();
  const double duration = profile.duration_seconds();
  sim::CallSimOptions options;
  options.capacity_bps = ctx.parameters[0] * mean_bps;
  options.arrival_rate_per_s =
      ctx.parameters[1] * options.capacity_bps / (mean_bps * duration);
  options.warmup_seconds = duration;
  options.sample_intervals = 4;
  options.interval_seconds = duration;
  sim::CapacityOnlyPolicy policy;
  Rng rng = ctx.MakeRng();
  const sim::CallSimResult r =
      sim::RunCallSim({profile}, policy, options, rng);
  return {r.failure_probability.mean(), r.utilization.mean(),
          r.blocking_probability()};
}

TEST(RunSweep, CallSimResultsAreIdenticalForEveryThreadCount) {
  const SweepSpec spec = CallSimSpec();
  SweepOptions options;
  options.base_seed = 20260806;

  options.threads = 1;
  const SweepResult serial = RunSweep(spec, CallSimPoint, options);
  ASSERT_EQ(serial.points.size(), spec.points.size());

  for (std::size_t threads : {2u, 8u}) {
    options.threads = threads;
    const SweepResult parallel = RunSweep(spec, CallSimPoint, options);
    ASSERT_EQ(parallel.points.size(), serial.points.size());
    EXPECT_EQ(parallel.threads, threads);
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      EXPECT_EQ(parallel.points[i].parameters, serial.points[i].parameters);
      EXPECT_EQ(parallel.points[i].seed, serial.points[i].seed);
      // Bit-identical metrics, not just approximately equal.
      EXPECT_EQ(parallel.points[i].metrics, serial.points[i].metrics)
          << "point " << i << " diverged at " << threads << " threads";
    }
    // The portable serialization (timings stripped) must match byte for
    // byte — this is the --threads=1 vs --threads=8 acceptance check.
    EXPECT_EQ(ToJsonWithoutTimings(parallel), ToJsonWithoutTimings(serial));
  }
}

// CallSimPoint with the point's recorder wired through, so the sweep
// captures metrics and trace events.
std::vector<double> InstrumentedCallSimPoint(const SweepContext& ctx) {
  const sim::CallProfile profile = TestProfile();
  const double mean_bps = profile.rates_bps.Mean();
  const double duration = profile.duration_seconds();
  sim::CallSimOptions options;
  options.capacity_bps = ctx.parameters[0] * mean_bps;
  options.arrival_rate_per_s =
      ctx.parameters[1] * options.capacity_bps / (mean_bps * duration);
  options.warmup_seconds = duration;
  options.sample_intervals = 4;
  options.interval_seconds = duration;
  options.recorder = ctx.recorder;
  sim::CapacityOnlyPolicy policy;
  Rng rng = ctx.MakeRng();
  const sim::CallSimResult r =
      sim::RunCallSim({profile}, policy, options, rng);
  return {r.failure_probability.mean(), r.utilization.mean(),
          r.blocking_probability()};
}

TEST(RunSweep, ObsSnapshotsAndTracesAreIdenticalForEveryThreadCount) {
  const SweepSpec spec = CallSimSpec();
  SweepOptions options;
  options.base_seed = 20260806;
  options.recorder.event_capacity = 64;

  options.threads = 1;
  const SweepResult serial =
      RunSweep(spec, InstrumentedCallSimPoint, options);
  if constexpr (obs::kEnabled) {
    EXPECT_GT(serial.metrics.counters.at("engine.offered_calls"), 0);
    EXPECT_FALSE(serial.events.empty());
    EXPECT_NE(ToTraceJsonl(serial).find("\"event\""), std::string::npos);
  } else {
    EXPECT_TRUE(serial.metrics.empty());
    EXPECT_TRUE(serial.events.empty());
  }

  for (std::size_t threads : {2u, 8u}) {
    options.threads = threads;
    // Progress reporting goes to stderr only and must not perturb results.
    options.progress = (threads == 8);
    const SweepResult parallel =
        RunSweep(spec, InstrumentedCallSimPoint, options);
    // Golden check: metrics snapshot and JSONL trace byte-identical.
    EXPECT_EQ(parallel.metrics.ToJson("  "), serial.metrics.ToJson("  "));
    EXPECT_EQ(ToTraceJsonl(parallel), ToTraceJsonl(serial));
    EXPECT_EQ(ToJsonWithoutTimings(parallel), ToJsonWithoutTimings(serial));
  }
}

TEST(Emit, WriteTraceCreatesJsonlFile) {
  const SweepSpec spec = CallSimSpec();
  SweepOptions options;
  options.base_seed = 20260806;
  options.recorder.event_capacity = 16;
  const SweepResult result =
      RunSweep(spec, InstrumentedCallSimPoint, options);

  const std::string dir = ::testing::TempDir();
  const std::string path = WriteTrace(result, dir);
  EXPECT_NE(path.find("TRACE_determinism_probe.jsonl"), std::string::npos);
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream contents;
  contents << file.rdbuf();
  EXPECT_EQ(contents.str(), ToTraceJsonl(result));
  std::remove(path.c_str());
}

// Exercises the full telemetry surface through the point recorder:
// time-series sampling, span records, event emission, and flight
// triggers, all driven by the point's private RNG stream.
std::vector<double> TelemetryPoint(const SweepContext& ctx) {
  Rng rng = ctx.MakeRng();
  obs::TimeSeries* occupancy =
      obs::FindSeries(ctx.recorder, "probe.occupancy");
  obs::SpanHistogram* span = obs::FindSpan(ctx.recorder, "probe.latency_s");
  double level = 0;
  for (int t = 0; t < 200; ++t) {
    level = std::max(0.0, level + rng.Uniform(-1.0, 1.5));
    if (occupancy != nullptr) occupancy->Sample(t * 0.5, level);
    if (span != nullptr) span->Record(0.001 * (1 + t % 7));
    obs::Emit(ctx.recorder, t * 0.5, obs::EventKind::kRenegGrant, ctx.index,
              {"level", level});
    if (level > 20.0) {
      obs::TriggerFlight(ctx.recorder, t * 0.5,
                         obs::EventKind::kBufferOverflow, ctx.index,
                         {"level", level});
      level = 0;
    }
  }
  return {level};
}

TEST(RunSweep, SeriesSpansAndFlightAreIdenticalForEveryThreadCount) {
  SweepSpec spec;
  spec.name = "telemetry_probe";
  spec.parameters = {};
  spec.metrics = {"final_level"};
  spec.points = {{}, {}, {}, {}, {}, {}};
  SweepOptions options;
  options.base_seed = 20260807;
  options.recorder.ts_window_s = 2.0;
  options.recorder.flight_capacity = 8;

  options.threads = 1;
  const SweepResult serial = RunSweep(spec, TelemetryPoint, options);
  if constexpr (obs::kEnabled) {
    ASSERT_FALSE(serial.series.empty());
    EXPECT_FALSE(serial.flight.empty());
    EXPECT_NE(serial.metrics.ToJson().find("probe.latency_s"),
              std::string::npos);
    EXPECT_NE(ToTimeSeriesJsonl(serial).find("\"probe.occupancy\""),
              std::string::npos);
    EXPECT_NE(ToFlightJsonl(serial).find("\"buffer_overflow\""),
              std::string::npos);
  } else {
    EXPECT_TRUE(serial.series.empty());
    EXPECT_TRUE(serial.flight.empty());
  }

  for (std::size_t threads : {2u, 8u}) {
    options.threads = threads;
    const SweepResult parallel = RunSweep(spec, TelemetryPoint, options);
    // Golden: every artifact byte-identical to the serial run.
    EXPECT_EQ(ToTimeSeriesJsonl(parallel), ToTimeSeriesJsonl(serial));
    EXPECT_EQ(ToFlightJsonl(parallel), ToFlightJsonl(serial));
    EXPECT_EQ(parallel.metrics.ToJson("  "), serial.metrics.ToJson("  "));
    EXPECT_EQ(ToJsonWithoutTimings(parallel), ToJsonWithoutTimings(serial));
  }
}

TEST(RunSweep, FlightArtifactIsEmptyWhenNoTriggerFires) {
  SweepSpec spec;
  spec.name = "quiet_probe";
  spec.parameters = {};
  spec.metrics = {"zero"};
  spec.points = {{}, {}};
  SweepOptions options;
  options.recorder.flight_capacity = 8;
  const SweepResult result = RunSweep(
      spec,
      [](const SweepContext& ctx) {
        // Events are recorded into the ring but nothing ever triggers.
        obs::Emit(ctx.recorder, 1.0, obs::EventKind::kRenegGrant, 0);
        return std::vector<double>{0.0};
      },
      options);
  EXPECT_TRUE(result.flight.empty());
  EXPECT_TRUE(ToFlightJsonl(result).empty());
}

TEST(RunSweep, SeriesAreOffWithoutAWindow) {
  SweepSpec spec;
  spec.name = "no_ts_probe";
  spec.parameters = {};
  spec.metrics = {"zero"};
  spec.points = {{}};
  const SweepResult result = RunSweep(
      spec,
      [](const SweepContext& ctx) {
        // Resolves to nullptr: the recorder has no sampler.
        EXPECT_EQ(obs::FindSeries(ctx.recorder, "probe.occupancy"), nullptr);
        return std::vector<double>{0.0};
      },
      {});
  EXPECT_TRUE(result.series.empty());
  EXPECT_TRUE(ToTimeSeriesJsonl(result).empty());
}

// FNV-1a, 64-bit: a stable fingerprint for pinning artifact bytes.
std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// Emits 10 events into a 6-event head and a 4-event ring, firing a
// trigger on every `every`-th event (parameter 0; 0 = never).
std::vector<double> RetentionPoint(const SweepContext& ctx) {
  const int every = static_cast<int>(ctx.parameters[0]);
  for (int k = 0; k < 10; ++k) {
    const double t = 0.25 * k + static_cast<double>(ctx.index);
    obs::Emit(ctx.recorder, t, obs::EventKind::kRenegGrant, ctx.index,
              {"k", static_cast<double>(k)}, {"rate_bps", 1e6 / (k + 1)});
    if (every > 0 && k % every == every - 1) {
      obs::TriggerFlight(ctx.recorder, t, obs::EventKind::kLinkDown,
                         ctx.index, {"k", static_cast<double>(k)});
    }
  }
  return {0.0};
}

// The TRACE_/FLIGHT_ bytes of a sweep whose points overflow the head and
// fire 0, 3 and 5 triggers (one past the dump cap), plus a one-point sweep
// with the ring armed alone, pinned by size and hash so a change to event
// retention cannot move them silently.
TEST(Sweep, TraceAndFlightBytesArePinned) {
  SweepSpec spec;
  spec.name = "retention_probe";
  spec.parameters = {"every"};
  spec.metrics = {"zero"};
  spec.points = {{0}, {3}, {2}};
  ExperimentArgs args;
  args.threads = 2;
  args.trace_dir = ".";
  args.trace_events = 6;
  args.flight_events = 4;
  const SweepResult both = RunSweep(spec, RetentionPoint, ToSweepOptions(args));

  spec.points = {{2}};
  args.trace_dir.clear();
  const SweepResult ring_only =
      RunSweep(spec, RetentionPoint, ToSweepOptions(args));

  const std::string trace = ToTraceJsonl(both);
  const std::string flight = ToFlightJsonl(both);
  const std::string ring_flight = ToFlightJsonl(ring_only);
  EXPECT_TRUE(ToTraceJsonl(ring_only).empty());
  if constexpr (!obs::kEnabled) {
    EXPECT_TRUE(trace.empty());
    EXPECT_TRUE(flight.empty());
    EXPECT_TRUE(ring_flight.empty());
    return;
  }
  EXPECT_NE(trace.find("\"trace_truncated\", \"dropped\": 4"),
            std::string::npos);
  EXPECT_NE(flight.find("\"flight_dumps_suppressed\", \"suppressed\": 1"),
            std::string::npos);
  EXPECT_EQ(trace.size(), 1929u);
  EXPECT_EQ(Fnv1a(trace), 17101735101807469084ull);
  EXPECT_EQ(flight.size(), 3443u);
  EXPECT_EQ(Fnv1a(flight), 1587485196427765887ull);
  EXPECT_EQ(ring_flight.size(), 1953u);
  EXPECT_EQ(Fnv1a(ring_flight), 6942403955218529190ull);
}

TEST(RunSweep, PointSeedsFollowTheStreamSplitContract) {
  SweepSpec spec;
  spec.name = "seeds";
  spec.parameters = {};
  spec.metrics = {"seed_lo"};
  spec.points = {{}, {}, {}};
  SweepOptions options;
  options.base_seed = 42;
  const SweepResult result = RunSweep(
      spec,
      [](const SweepContext& ctx) {
        return std::vector<double>{static_cast<double>(ctx.seed & 0xffff)};
      },
      options);
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    EXPECT_EQ(result.points[i].seed, DeriveStreamSeed(42, i));
  }
}

TEST(RunSweep, RecordsPerPointAndTotalTiming) {
  SweepSpec spec;
  spec.name = "timing";
  spec.parameters = {"x"};
  spec.metrics = {"y"};
  spec.points = {{1}, {2}};
  const SweepResult result = RunSweep(
      spec,
      [](const SweepContext& ctx) {
        return std::vector<double>{ctx.parameters[0] * 2};
      },
      {});
  EXPECT_GE(result.total_seconds, 0.0);
  for (const PointResult& point : result.points) {
    EXPECT_GE(point.seconds, 0.0);
  }
  EXPECT_EQ(result.points[0].metrics[0], 2.0);
  EXPECT_EQ(result.points[1].metrics[0], 4.0);
}

TEST(RunSweep, RejectsRaggedPointsAndWrongMetricCounts) {
  SweepSpec ragged;
  ragged.name = "bad";
  ragged.parameters = {"a", "b"};
  ragged.metrics = {"m"};
  ragged.points = {{1, 2}, {3}};
  EXPECT_THROW(
      RunSweep(ragged, [](const SweepContext&) {
        return std::vector<double>{0};
      }),
      InvalidArgument);

  SweepSpec spec;
  spec.name = "bad_metrics";
  spec.parameters = {"a"};
  spec.metrics = {"m1", "m2"};
  spec.points = {{1}};
  EXPECT_THROW(
      RunSweep(spec, [](const SweepContext&) {
        return std::vector<double>{0};  // one metric, spec wants two
      }),
      InvalidArgument);
}

TEST(GridPoints, LastAxisFastest) {
  const auto points = GridPoints({{1, 2}, {10, 20, 30}});
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(points[0], (std::vector<double>{1, 10}));
  EXPECT_EQ(points[1], (std::vector<double>{1, 20}));
  EXPECT_EQ(points[2], (std::vector<double>{1, 30}));
  EXPECT_EQ(points[3], (std::vector<double>{2, 10}));
  EXPECT_EQ(points[5], (std::vector<double>{2, 30}));
}

TEST(Emit, JsonCarriesNamesValuesAndTimings) {
  SweepSpec spec;
  spec.name = "emit_probe";
  spec.notes = {"a \"quoted\" note"};
  spec.parameters = {"x"};
  spec.metrics = {"y"};
  spec.points = {{1.5}};
  const SweepResult result = RunSweep(
      spec,
      [](const SweepContext& ctx) {
        return std::vector<double>{ctx.parameters[0] * 2};
      },
      {});

  const std::string json = ToJson(result);
  EXPECT_NE(json.find("\"experiment\": \"emit_probe\""), std::string::npos);
  EXPECT_NE(json.find("\"a \\\"quoted\\\" note\""), std::string::npos);
  EXPECT_NE(json.find("\"x\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"y\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"total_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"seconds\""), std::string::npos);

  const std::string stripped = ToJsonWithoutTimings(result);
  EXPECT_EQ(stripped.find("total_seconds"), std::string::npos);
  EXPECT_EQ(stripped.find("\"seconds\""), std::string::npos);
  EXPECT_NE(stripped.find("\"x\": 1.5"), std::string::npos);
}

TEST(Emit, WriteJsonCreatesBenchFile) {
  SweepSpec spec;
  spec.name = "write_probe";
  spec.parameters = {"x"};
  spec.metrics = {"y"};
  spec.points = {{1}};
  const SweepResult result = RunSweep(
      spec,
      [](const SweepContext&) { return std::vector<double>{7}; }, {});

  const std::string dir = ::testing::TempDir();
  const std::string path = WriteJson(result, dir);
  EXPECT_NE(path.find("BENCH_write_probe.json"), std::string::npos);
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream contents;
  contents << file.rdbuf();
  EXPECT_EQ(contents.str(), ToJson(result));
  std::remove(path.c_str());
}

TEST(Emit, WriteJsonRejectsUnwritableDirectory) {
  SweepSpec spec;
  spec.name = "nowhere";
  spec.metrics = {"y"};
  spec.points = {{}};
  const SweepResult result = RunSweep(
      spec,
      [](const SweepContext&) { return std::vector<double>{0}; }, {});
  EXPECT_THROW(WriteJson(result, "/nonexistent/dir"), InvalidArgument);
}

}  // namespace
}  // namespace rcbr::runtime
