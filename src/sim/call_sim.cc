#include "sim/call_sim.h"

#include "sim/engine/simulation.h"

namespace rcbr::sim {

bool CapacityOnlyPolicy::Admit(double /*now*/, const LinkView& view,
                               double initial_rate_bps) {
  return view.reserved_bps + initial_rate_bps <= view.capacity_bps;
}

CallSimResult RunCallSim(const std::vector<CallProfile>& profile_pool,
                         AdmissionPolicy& policy,
                         const CallSimOptions& options, Rng& rng) {
  engine::SimulationOptions sim;
  sim.link_capacities_bps = {options.capacity_bps};
  engine::TrafficClass cls;
  cls.candidate_routes = {{0}};
  cls.arrival_rate_per_s = options.arrival_rate_per_s;
  cls.uniform_profile_pick = true;
  cls.ladder = options.ladder;
  sim.classes = {cls};
  sim.warmup_seconds = options.warmup_seconds;
  sim.sample_intervals = options.sample_intervals;
  sim.interval_seconds = options.interval_seconds;
  sim.policy = &policy;
  sim.recorder = options.recorder;

  const engine::SimulationResult r =
      engine::RunSimulation(profile_pool, sim, rng);
  const engine::ClassTotals& totals = r.per_class.front();

  CallSimResult result;
  result.offered_calls = totals.offered_calls;
  result.blocked_calls = totals.blocked_calls;
  result.upward_attempts = totals.upward_attempts;
  result.failed_attempts = totals.failed_attempts;
  result.downgraded_admits = totals.downgraded_admits;
  result.upgrades = totals.upgrades;
  result.utility_seconds = totals.utility_seconds;
  result.failure_probability = totals.interval_failure_probability();
  for (std::size_t k = 0; k < options.sample_intervals; ++k) {
    result.utilization.Add(r.util_by_interval[0][k] /
                           (options.interval_seconds * options.capacity_bps));
  }
  return result;
}

}  // namespace rcbr::sim
