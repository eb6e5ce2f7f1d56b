// Google-benchmark microbenchmarks for the observability layer: what one
// counter add, span record, time-series sample, or event-log record
// costs on the hot path, and what the fluid-queue step pays end to end
// when a recorder is attached. The macro-level companion is the obs=0/1
// pair in macro_capacity, gated by tools/check_obs_overhead.py.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "micro_main.h"
#include "obs/log_histogram.h"
#include "obs/recorder.h"
#include "sim/fluid_queue.h"
#include "util/rng.h"
#include "util/units.h"

namespace {

using namespace rcbr;

// Baseline: the queue step with no recorder — what every obs=0 run pays.
void BM_FluidQueueStepUntracked(benchmark::State& state) {
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
BENCHMARK(BM_FluidQueueStepUntracked);

// The same step with counters + the event log (head and ring) attached (no
// time-series sampler): the per-slot cost is one resolved-handle branch
// plus event emission on overflow slots.
void BM_FluidQueueStepTracked(benchmark::State& state) {
  obs::RecorderOptions options;
  options.event_capacity = 4096;
  options.flight_capacity = 256;
  obs::Recorder recorder(options);
  sim::SlottedQueue queue(300 * kKilobit, &recorder);
  Rng rng(1);
  std::vector<double> arrivals(4096);
  for (double& a : arrivals) a = rng.Uniform(0.0, 30000.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.Step(arrivals[i & 4095], 16000.0));
    ++i;
  }
}
BENCHMARK(BM_FluidQueueStepTracked);

// Full telemetry: the step additionally feeds the per-queue occupancy
// series every slot — the worst-case per-slot instrumentation.
void BM_FluidQueueStepTrackedTs(benchmark::State& state) {
  obs::RecorderOptions options;
  options.event_capacity = 4096;
  options.flight_capacity = 256;
  options.ts_window_s = 4096;  // slot-indexed time axis; bounded windows
  obs::Recorder recorder(options);
  sim::SlottedQueue queue(300 * kKilobit, &recorder);
  Rng rng(1);
  std::vector<double> arrivals(4096);
  for (double& a : arrivals) a = rng.Uniform(0.0, 30000.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.Step(arrivals[i & 4095], 16000.0));
    ++i;
  }
}
BENCHMARK(BM_FluidQueueStepTrackedTs);

// Resolve-once counter add — the pattern hot loops are expected to use.
void BM_CounterResolvedAdd(benchmark::State& state) {
  obs::Recorder recorder;
  obs::Counter* counter = obs::FindCounter(&recorder, "bench.counter");
  for (auto _ : state) {
    if (counter != nullptr) counter->Add();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_CounterResolvedAdd);

// Name-lookup counter add — what Count() costs when called per event;
// the gap to BM_CounterResolvedAdd is the map lookup + registry lock.
void BM_CounterLookupAdd(benchmark::State& state) {
  obs::Recorder recorder;
  for (auto _ : state) {
    obs::Count(&recorder, "bench.counter");
  }
}
BENCHMARK(BM_CounterLookupAdd);

// One log-bucketed histogram record: frexp + map upsert on a hot bucket.
void BM_LogHistogramRecord(benchmark::State& state) {
  obs::LogHistogram histogram;
  Rng rng(2);
  std::vector<double> values(4096);
  for (double& v : values) v = rng.Uniform(1e-4, 10.0);
  std::size_t i = 0;
  for (auto _ : state) {
    histogram.Record(values[i & 4095]);
    ++i;
  }
  benchmark::DoNotOptimize(histogram.count());
}
BENCHMARK(BM_LogHistogramRecord);

// Span record through a resolved handle: the histogram record plus the
// span's mutex.
void BM_SpanRecord(benchmark::State& state) {
  obs::Recorder recorder;
  obs::SpanHistogram* span = obs::FindSpan(&recorder, "bench.span");
  Rng rng(3);
  std::vector<double> values(4096);
  for (double& v : values) v = rng.Uniform(1e-4, 10.0);
  std::size_t i = 0;
  for (auto _ : state) {
    if (span != nullptr) span->Record(values[i & 4095]);
    ++i;
  }
}
BENCHMARK(BM_SpanRecord);

// Time-series sample folding into the current window (the per-slot case).
void BM_TimeSeriesSample(benchmark::State& state) {
  obs::TimeSeries series(4096.0);
  Rng rng(4);
  std::vector<double> values(4096);
  for (double& v : values) v = rng.Uniform(0.0, 1e6);
  std::size_t i = 0;
  for (auto _ : state) {
    series.Sample(static_cast<double>(i), values[i & 4095]);
    ++i;
  }
}
BENCHMARK(BM_TimeSeriesSample);

// One Emit into a recorder whose event log has a full head (each record
// only counts a drop) and a wrapping ring (each record overwrites the
// oldest slot): the steady-state per-event cost of a long traced run.
void BM_EventLogRecord(benchmark::State& state) {
  obs::RecorderOptions options;
  options.event_capacity = 64;
  options.flight_capacity = 256;
  obs::Recorder recorder(options);
  std::uint64_t i = 0;
  for (; i < 1024; ++i) {
    recorder.Emit({static_cast<double>(i), obs::EventKind::kRenegGrant, i});
  }
  for (auto _ : state) {
    recorder.Emit({static_cast<double>(i), obs::EventKind::kRenegGrant, i});
    ++i;
  }
}
BENCHMARK(BM_EventLogRecord);

}  // namespace

int main(int argc, char** argv) {
  return rcbr::bench::RunMicroBench("micro_obs_overhead", argc, argv);
}
