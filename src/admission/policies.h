// Admission control policies for RCBR (Sec. VI).
//
// All three policies bound the renegotiation failure probability with the
// Chernoff estimate (eq. 12); they differ in where the per-call bandwidth
// distribution comes from:
//
//  * PerfectKnowledgePolicy — the true marginal distribution is known a
//    priori; the maximum admissible call count is precomputed. This is the
//    reference scheme the paper normalizes utilization against.
//  * MemorylessPolicy — the certainty-equivalent scheme: at each arrival
//    it estimates the distribution from the *instantaneous* reservations
//    of the calls currently in the system ("uses only information about
//    the current state of the network"). The paper shows it is not
//    robust: failure probabilities 3-4 orders of magnitude above target
//    on small links.
//  * MemoryPolicy — "we keep track of how often each bandwidth level has
//    been reserved by any of the calls currently in the system ... we
//    accumulate information about the entire history of each call present
//    in the system", yielding a far more accurate marginal estimate.
//
// Every policy learns the calls in the system from the AdmissionPolicy
// notifications alone and pools all of them, whatever links they cross;
// the LinkView a decision receives carries only the bottleneck's capacity
// and reservation.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ldev/chernoff.h"
#include "obs/recorder.h"
#include "sim/call_sim.h"
#include "util/histogram.h"

namespace rcbr::admission {

struct PolicyOptions {
  /// QoS target on the renegotiation failure probability.
  double target_failure_probability = 1e-3;
  /// Shared rate grid (bits/s) on which the estimators accumulate mass.
  std::vector<double> rate_grid_bps;
  /// Optional observability sink: every Chernoff admission test emits a
  /// kAdmitAccept/kAdmitReject event carrying the estimated failure
  /// probability and the target, plus "mbac.*" decision counters.
  obs::Recorder* recorder = nullptr;
};

/// Chernoff admission with a known per-call distribution.
class PerfectKnowledgePolicy final : public sim::AdmissionPolicy {
 public:
  PerfectKnowledgePolicy(ldev::DiscreteDistribution call_distribution,
                         double capacity_bps, double target,
                         obs::Recorder* recorder = nullptr);

  /// The precomputed maximum number of simultaneous calls.
  std::int64_t max_calls() const { return max_calls_; }

  bool Admit(double now, const sim::LinkView& view,
             double initial_rate_bps) override;
  void OnAdmitted(double, std::uint64_t, double) override { ++active_; }
  void OnRateChange(double, std::uint64_t, double, double) override {}
  void OnDeparture(double, std::uint64_t, double) override { --active_; }

 private:
  std::int64_t max_calls_;
  std::int64_t active_ = 0;
  obs::Recorder* obs_ = nullptr;
};

/// Memoryless certainty-equivalent MBAC.
///
/// The snapshot is kept as a count of the live calls at each grid level,
/// updated by the notifications; a decision turns the counts into the
/// estimate in O(grid). The counts are integers, so the estimate does not
/// depend on the order in which calls came and went.
class MemorylessPolicy final : public sim::AdmissionPolicy {
 public:
  explicit MemorylessPolicy(PolicyOptions options);

  bool Admit(double now, const sim::LinkView& view,
             double initial_rate_bps) override;
  /// Ladder rung k > 0: the downgraded call enters the Chernoff test as
  /// a known constant load `rung_rate_bps` against the residual capacity
  /// (rung 0 is the paper's n+1-iid test, bit-identical to Admit).
  bool AdmitAtRung(double now, const sim::LinkView& view,
                   double rung_rate_bps, std::size_t rung) override;
  void OnAdmitted(double now, std::uint64_t call_id,
                  double rate_bps) override;
  void OnRateChange(double now, std::uint64_t call_id, double old_rate_bps,
                    double new_rate_bps) override;
  void OnDeparture(double now, std::uint64_t call_id,
                   double rate_bps) override;

 private:
  /// The live calls' reservations as the share of the calls at each grid
  /// level, the snapshot's empirical distribution, written into
  /// `snapshot_`.
  const Histogram& Snapshot();

  PolicyOptions options_;
  std::unordered_map<std::uint64_t, std::size_t> level_of_;  // grid index
  std::vector<std::int64_t> counts_;  // live calls per grid level
  Histogram snapshot_;
};

/// Memory-based MBAC with exponential aging: like MemoryPolicy, but the
/// accumulated history decays with time constant `aging_tau_seconds`.
/// Bounded effective memory makes the estimator track nonstationary call
/// populations (e.g. a change in the movie mix) while still averaging far
/// more samples than the memoryless snapshot. tau -> infinity recovers
/// MemoryPolicy; tau -> 0 approaches the memoryless scheme.
class AgedMemoryPolicy final : public sim::AdmissionPolicy {
 public:
  AgedMemoryPolicy(PolicyOptions options, double aging_tau_seconds);

  bool Admit(double now, const sim::LinkView& view,
             double initial_rate_bps) override;
  /// Ladder rung k > 0: known-constant-load test against the residual
  /// capacity (see MemorylessPolicy::AdmitAtRung).
  bool AdmitAtRung(double now, const sim::LinkView& view,
                   double rung_rate_bps, std::size_t rung) override;
  void OnAdmitted(double now, std::uint64_t call_id,
                  double rate_bps) override;
  void OnRateChange(double now, std::uint64_t call_id, double old_rate_bps,
                    double new_rate_bps) override;
  void OnDeparture(double now, std::uint64_t call_id,
                   double rate_bps) override;

 private:
  struct CallHistory {
    Histogram levels;
    double since = 0;
    double current_rate = 0;
  };

  /// Ages the call's stored mass to `now` and accumulates the open
  /// interval at its current level.
  void Roll(CallHistory& call, double now) const;

  /// Pooled marginal estimate across the (rolled) call histories, written
  /// into `pooled_`.
  const Histogram& Pooled(double now);

  PolicyOptions options_;
  double tau_seconds_;
  std::unordered_map<std::uint64_t, CallHistory> calls_;
  Histogram pooled_;
};

/// Memory-based MBAC: time-weighted per-call reservation histories.
///
/// The pooled estimate is kept incrementally: per grid level, the closed
/// mass of the live calls plus the open mass of the calls currently at
/// that level. A decision costs O(grid) to pool plus the Chernoff test, a
/// handful of fused passes over the occupied levels with no allocation; a
/// rate change costs O(1), a departure O(grid). The estimate equals the
/// merge of the per-call histories whenever no live call entered its
/// current level after the decision time, as holds for a simulation's
/// clock.
class MemoryPolicy final : public sim::AdmissionPolicy {
 public:
  explicit MemoryPolicy(PolicyOptions options);

  bool Admit(double now, const sim::LinkView& view,
             double initial_rate_bps) override;
  /// Ladder rung k > 0: known-constant-load test against the residual
  /// capacity (see MemorylessPolicy::AdmitAtRung).
  bool AdmitAtRung(double now, const sim::LinkView& view,
                   double rung_rate_bps, std::size_t rung) override;
  void OnAdmitted(double now, std::uint64_t call_id,
                  double rate_bps) override;
  void OnRateChange(double now, std::uint64_t call_id, double old_rate_bps,
                    double new_rate_bps) override;
  void OnDeparture(double now, std::uint64_t call_id,
                   double rate_bps) override;

 private:
  struct CallHistory {
    std::vector<double> closed;  // held time per grid level, closed part
    double since = 0;            // when the current level was entered
    std::size_t level = 0;       // grid index of the current rate
  };

  /// A running sum with TwoSum error compensation. A level's sums take
  /// and give back the holds of every call that passes through it; once
  /// they exceed the simulated time, each plain addition of a hold would
  /// round, and the compensation keeps that churn from drifting.
  struct CompensatedSum {
    double sum = 0;
    double error = 0;
    void Add(double x);
    double value() const { return sum + error; }
  };

  /// The live calls' aggregate at one grid level. The open mass is kept
  /// as of the level's last entry or exit, `as_of`; it grows by `open`
  /// per second after that. The counters make the zero cases exact, as
  /// the Chernoff estimate jumps when a level enters its support: `closed`
  /// resets to 0 when no live call holds closed mass here, and
  /// `open_mass` when every open interval here starts at `as_of`.
  struct Level {
    CompensatedSum closed;     // the live calls' closed mass here
    std::int64_t holders = 0;  // live calls with closed mass here
    std::int64_t open = 0;     // live calls currently at this level
    CompensatedSum open_mass;  // their held time so far, as of `as_of`
    double as_of = 0;
    std::int64_t fresh = 0;    // open calls that entered at `as_of`
  };

  /// Brings `level`'s open mass forward to `now`.
  void Advance(Level& level, double now);
  void Enter(std::size_t level, double now);
  void Leave(std::size_t level, double since, double now);

  /// The pooled marginal estimate at `now`, written into `pooled_`.
  const Histogram& PooledHistory(double now);

  PolicyOptions options_;
  std::unordered_map<std::uint64_t, CallHistory> calls_;
  std::vector<Level> levels_;
  Histogram pooled_;
};

}  // namespace rcbr::admission
