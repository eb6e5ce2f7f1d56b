// The unified call/network/signaling simulation on top of the engine.
//
// One configuration drives everything the tree previously simulated three
// separate ways:
//  * Poisson call dynamics per traffic class (arrival streams of rotated
//    stepwise-CBR schedules, full-grant-or-keep-old-rate renegotiation);
//  * a link graph with candidate routes and optional least-loaded
//    routing (Sec. III-C's call-level load balancing);
//  * admission control through the AdmissionPolicy hook (capacity-only,
//    Chernoff MBAC, ... — Sec. VI);
//  * the signaling plane: every setup, renegotiation and teardown goes
//    through a SignalingPath over per-link PortControllers, optionally
//    behind a lossy RM-cell channel with periodic resync (Sec. III-B).
//
// RunCallSim and RunNetworkSim are thin drivers of this function; their
// legacy outputs are pinned bit-identical in the regression pins.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/recorder.h"
#include "sim/call_sim.h"
#include "util/rng.h"

namespace rcbr::sim::fault {
class FaultPlan;
}

namespace rcbr::sim::engine {

/// One traffic class: a Poisson arrival stream of calls sharing a profile
/// choice rule and a set of candidate routes over the link graph.
struct TrafficClass {
  /// Candidate routes, each a sequence of link indices.
  std::vector<std::vector<std::size_t>> candidate_routes;
  double arrival_rate_per_s = 0;
  /// Profile used when `uniform_profile_pick` is false.
  std::size_t profile_index = 0;
  /// Call-level style: each arrival draws its profile uniformly from the
  /// whole pool (one RNG draw even for a single-profile pool — pinned).
  bool uniform_profile_pick = false;
  /// Multi-resolution contract for this class's calls (empty = scalar).
  /// Admission walks the ladder best-rung-first and grants the first
  /// feasible rung instead of blocking; departures and rate decreases
  /// trigger upgrade passes that promote downgraded calls back toward
  /// rung 0 in ascending call-id order through the normal renegotiation
  /// path. A depth-1 ladder is pinned byte-identical to the scalar
  /// contract (BENCH json and traces).
  RateLadder ladder;
};

struct SimulationOptions {
  std::vector<double> link_capacities_bps;
  std::vector<TrafficClass> classes;
  double warmup_seconds = 0;
  std::size_t sample_intervals = 10;
  double interval_seconds = 0;
  /// Pick the feasible candidate route with the smallest bottleneck
  /// utilization; otherwise first-fit.
  bool least_loaded_routing = false;
  /// Slack on every port's capacity check (the network driver uses 1e-9,
  /// the call-level driver 0 — both pinned).
  double admission_tolerance_bps = 0;
  /// Consulted after route selection with the bottleneck link's view
  /// (nullptr = capacity-only admission).
  AdmissionPolicy* policy = nullptr;
  /// Sim-level events and counters (admit/reneg/departure).
  obs::Recorder* recorder = nullptr;
  /// Handed to the per-link PortControllers, so port-level deny events
  /// and counters land on the same sim-seconds time axis. Usually the
  /// same recorder; the legacy drivers leave it null.
  obs::Recorder* signaling_recorder = nullptr;
  /// Counter-name prefix ("callsim", "netsim", ...).
  std::string metric_prefix = "engine";
  /// One-way per-hop signaling latency (reported by SignalingPath).
  double per_hop_delay_s = 0;
  /// Enables the ports' per-VCI audit map (required for resync; the
  /// bit-compatible legacy drivers run untracked).
  bool track_connections = false;
  /// RM-cell loss on the renegotiation channel (0 = lossless). Nonzero
  /// loss or resync routes every delta through a LossyPathRenegotiator,
  /// which draws one Bernoulli per hop per cell from the sweep RNG.
  double cell_loss_probability = 0;
  /// Absolute-rate resync after this many delta cells (0 = never).
  std::int64_t resync_every_cells = 0;
  /// Trace-event payload schema. kSingleLink reproduces the call-level
  /// driver's fields (reserved_bps, by_capacity), kNetwork the network
  /// driver's (class, hops).
  enum class TraceStyle { kSingleLink, kNetwork };
  TraceStyle trace_style = TraceStyle::kNetwork;
  /// Deterministic fault schedule injected into the event loop (null or
  /// empty = byte-identical to the fault-free simulation). Loss bursts
  /// impair the lossy renegotiation channel; link failures block
  /// admissions and force active calls to re-route (or drop, when no
  /// candidate route fits); controller crashes wipe a port's state, which
  /// the affected calls repair with absolute-rate resyncs. A non-empty
  /// plan requires `track_connections` (reroute/repair audit the per-VCI
  /// rates). Borrowed; must outlive the run.
  const fault::FaultPlan* fault_plan = nullptr;
  /// Expected peak concurrent calls; pre-sizes the event queue, the call
  /// arena and the per-VCI tables so large runs do not pay repeated
  /// reallocation. 0 = derive from offered load (arrival rates × mean
  /// profile duration). Purely a capacity hint — never affects results.
  std::size_t expected_peak_calls = 0;
};

/// Per-class tallies plus the per-interval samples the drivers turn into
/// failure-probability statistics.
struct ClassTotals {
  std::int64_t offered_calls = 0;
  std::int64_t blocked_calls = 0;
  std::int64_t upward_attempts = 0;
  std::int64_t failed_attempts = 0;
  /// Mid-call outcomes of injected link failures (0 without a fault
  /// plan): calls moved to an alternate candidate route, and calls lost
  /// because no alternate fit.
  std::int64_t rerouted_calls = 0;
  std::int64_t dropped_calls = 0;
  /// Ladder outcomes (0 for scalar and depth-1 contracts): calls admitted
  /// below their full ask, and rung promotions granted after capacity
  /// freed up.
  std::int64_t downgraded_admits = 0;
  std::int64_t upgrades = 0;
  /// Delivered utility integrated over the measurement window: each call
  /// accrues its current rung's utility-per-second while alive (scalar
  /// classes count 1.0/s per call when any class carries a ladder;
  /// all-scalar runs leave this 0).
  double utility_seconds = 0;
  std::vector<std::int64_t> interval_attempts;
  std::vector<std::int64_t> interval_failures;
};

struct SimulationResult {
  std::vector<ClassTotals> per_class;
  /// Reserved-rate time integral per link and measurement interval.
  std::vector<std::vector<double>> util_by_interval;
  /// Running per-link totals, accumulated segment by segment in event
  /// order (kept separate from the per-interval buckets so the network
  /// driver's mean reproduces the legacy summation order exactly).
  std::vector<double> util_total;
  /// Engine events dispatched over the whole run (arrivals, transitions,
  /// departures, faults) — the numerator of the macro-capacity
  /// events/sec metric.
  std::int64_t events_processed = 0;
  /// High-water mark of concurrently admitted calls.
  std::int64_t peak_concurrent_calls = 0;
};

SimulationResult RunSimulation(const std::vector<CallProfile>& profiles,
                               const SimulationOptions& options, Rng& rng);

}  // namespace rcbr::sim::engine
