// Robustness experiment: deterministic fault injection against the
// retry/backoff signaling transport and the source's graceful-degradation
// policy (Sec. III-B taken to its failure modes).
//
// A 3-hop RCBR source follows a two-rate schedule while a seeded
// FaultPlan throws RM-cell loss bursts (total signaling outages) and
// port-controller crashes at it. During an outage at an upward schedule
// edge the source is stuck below its arrival rate; without the peak-rate
// fallback the end-system buffer overflows, with it the source escalates
// before the overflow and recovers once the backlog drains. Crashed
// controllers are either repaired immediately by an absolute-rate resync
// (crash_resync=1) or left to drift (crash_resync=0), which the residual
// drift column exposes. Faults are inputs to the determinism contract:
// the plan comes from its own per-point stream, so every row is
// reproducible at any --threads count.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/rcbr_source.h"
#include "experiment_lib.h"
#include "sim/fault/fault_plan.h"
#include "sim/fault/fault_timeline.h"
#include "util/rng.h"

namespace {

double Percentile(std::vector<double> values, double fraction) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = fraction * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - std::floor(rank);
  return values[lo] + frac * (values[hi] - values[lo]);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rcbr;
  const bench::Args args = bench::ParseArgs(argc, argv);

  // Slot-level scenario: a square-wave source (low 3.5, high 9.5 bits per
  // 0.1 s slot) whose schedule tracks it with headroom (4 low, 10 high).
  const double slot_seconds = 0.1;
  const std::int64_t slots = args.quick ? 1500 : 6000;
  const std::int64_t period = 100;  // 60 low slots, then 40 high slots
  std::vector<rcbr::Step> steps;
  for (std::int64_t k = 0; k * period < slots; ++k) {
    steps.push_back({k * period, 4.0});
    steps.push_back({k * period + 60, 10.0});
  }
  const PiecewiseConstant schedule(steps, slots);

  runtime::SweepSpec spec;
  spec.name = "fig_fault_sweep";
  spec.notes = {
      "fault injection vs retry/resync/degradation (Sec. III-B failure "
      "modes)",
      "seeded RM-loss bursts stall renegotiation at upward schedule "
      "edges; controller crashes wipe per-VCI state",
      "fallback=1 escalates to the peak rate before the buffer "
      "overflows; crash_resync=1 repairs crashed ports with an "
      "absolute-rate resync (drift column)"};
  spec.parameters = {"faults_per_min", "fallback", "crash_resync"};
  spec.metrics = {"overflow_prob", "max_drift_bps", "p99_latency_ms",
                  "timeouts",      "retries",       "fallbacks"};
  const std::vector<double> fault_rates =
      args.quick ? std::vector<double>{0.0, 12.0}
                 : std::vector<double>{0.0, 6.0, 12.0};
  for (double per_min : fault_rates) {
    if (per_min == 0.0) {
      spec.points.push_back({0.0, 1.0, 1.0});  // fault-free reference
      continue;
    }
    for (double fallback : {0.0, 1.0}) {
      for (double crash_resync : {0.0, 1.0}) {
        spec.points.push_back({per_min, fallback, crash_resync});
      }
    }
  }

  runtime::RunExperiment(
      spec,
      [&](const runtime::SweepContext& ctx) {
        const double faults_per_min = ctx.parameters[0];
        const bool fallback = ctx.parameters[1] != 0.0;
        const bool crash_resync = ctx.parameters[2] != 0.0;

        // The fault schedule is keyed by the fault rate alone, so the
        // fallback / crash_resync variants of one rate face the *same*
        // faults and their columns are directly comparable. The jitter
        // and loss draws of the run use the point's primary stream.
        sim::fault::FaultPlanOptions fault_options;
        fault_options.horizon_s = static_cast<double>(slots) * slot_seconds;
        fault_options.num_links = 3;
        fault_options.burst_rate_per_s = faults_per_min / 60.0;
        fault_options.burst_duration_s = 3.0;       // 30 slots of outage
        fault_options.burst_loss_probability = 1.0;
        fault_options.crash_rate_per_s = faults_per_min / 240.0;
        Rng plan_rng = Rng::Stream(
            args.seed + 7700, static_cast<std::uint64_t>(faults_per_min));
        const sim::fault::FaultPlan plan =
            sim::fault::FaultPlan::Generate(fault_options, plan_rng);
        sim::fault::FaultTimeline timeline(&plan, fault_options.num_links,
                                           ctx.recorder);

        std::vector<std::unique_ptr<signaling::PortController>> ports;
        for (std::size_t l = 0; l < fault_options.num_links; ++l) {
          ports.push_back(std::make_unique<signaling::PortController>(
              200.0, true, ctx.recorder));
        }
        std::vector<signaling::PortController*> raw;
        for (auto& p : ports) raw.push_back(p.get());
        signaling::SignalingPath path(std::move(raw), 0.001);

        // The buffer absorbs one full worst-case outage (a 30-slot burst
        // spanning an upward edge fills ~171 bits); overflow happens only
        // when backlog accumulates ACROSS bursts — which is exactly what
        // the peak-rate fallback prevents by draining the backlog before
        // the next outage, while the no-fallback source crawls down at
        // the schedule's ~0.3 bits/slot of headroom.
        core::RcbrSource source = core::RcbrSource::Offline(
            1, schedule, slot_seconds, /*buffer_bits=*/250.0, &path,
            ctx.recorder);
        Rng rng = ctx.MakeRng();
        signaling::RetryOptions retry;
        retry.timeout_s = 0.02;
        retry.max_retries = 2;
        retry.backoff_base_s = 0.01;
        signaling::LossyChannelOptions channel;
        channel.conditions = &timeline.conditions();
        core::DegradationOptions degradation;
        degradation.enabled = fallback;
        degradation.failures_to_degrade = 2;
        degradation.hold_slots = 4;
        degradation.fallback_occupancy_fraction = 0.4;
        degradation.recover_occupancy_fraction = 0.1;
        degradation.fallback_rate_bits_per_slot = 12.0;  // the peak rate
        source.EnableRobustSignaling(retry, channel, &rng, degradation);
        if (!source.Connect()) {
          return std::vector<double>{1.0, 0.0, 0.0, 0.0, 0.0, 0.0};
        }

        sim::fault::FaultCallbacks callbacks;
        callbacks.on_controller_crash = [&](std::size_t link, double) {
          ports[link]->CrashRestart();
          if (crash_resync) source.ResyncSignaling();
        };
        timeline.set_callbacks(std::move(callbacks));

        Rng workload_rng(911);  // identical arrivals at every point
        std::vector<double> latencies;
        double max_drift = 0;
        for (std::int64_t t = 0; t < slots; ++t) {
          timeline.AdvanceTo(static_cast<double>(t) * slot_seconds);
          const double base = (t % period) < 60 ? 3.5 : 9.5;
          const core::RcbrSource::SlotResult result =
              source.Step(base + workload_rng.Uniform(0.0, 0.4));
          if (result.renegotiated) {
            latencies.push_back(result.renegotiation_latency_s);
          }
          max_drift =
              std::max(max_drift, source.transport()->MaxAbsDriftBps());
        }

        const core::SourceStats& stats = source.stats();
        const signaling::RetryStats& transport = source.transport()->stats();
        return std::vector<double>{
            stats.loss_fraction(),
            max_drift,
            Percentile(latencies, 0.99) * 1e3,
            static_cast<double>(transport.timeouts),
            static_cast<double>(transport.retries),
            static_cast<double>(stats.fallback_entries)};
      },
      args);
  return 0;
}
