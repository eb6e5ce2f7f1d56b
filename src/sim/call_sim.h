// Call-level dynamic simulation for admission control (Sec. VI).
//
// "Each call is a randomly shifted version of a Star Wars RCBR schedule.
// Calls arrive according to a Poisson process of rate lambda. ... as a
// by-product of using RCBR schedules instead of full per-frame traces as
// input, the simulation efficiency is greatly improved, as we only need to
// simulate the renegotiation events instead of each frame."
//
// RunCallSim is exactly that event-driven simulator: Poisson arrivals of
// stepwise-CBR calls on one link, an AdmissionPolicy deciding acceptance,
// full-grant-or-keep-old-rate renegotiation, and per-interval measurement
// of the renegotiation failure probability and link utilization.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/recorder.h"
#include "sim/rate_ladder.h"
#include "util/piecewise.h"
#include "util/rng.h"
#include "util/stats.h"

namespace rcbr::sim {

/// A call's bandwidth profile: a stepwise-CBR rate function (bits/second)
/// over slots of `slot_seconds` each.
struct CallProfile {
  PiecewiseConstant rates_bps;
  double slot_seconds = 1.0;

  double duration_seconds() const {
    return static_cast<double>(rates_bps.length()) * slot_seconds;
  }
};

/// What an admission policy may observe about the link a decision is for
/// (the bottleneck of the candidate route).
struct LinkView {
  double capacity_bps = 0;
  double reserved_bps = 0;
};

/// Admission decisions and system notifications. Implementations live in
/// src/admission; the simulator only sees this interface.
///
/// A policy learns the calls in the system only through the On*
/// notifications: every admitted call is reported once by OnAdmitted,
/// every change to its reservation (a granted or downward renegotiation,
/// a ladder promotion) exactly once by OnRateChange, and its end (a
/// departure or a drop after a link failure) once by OnDeparture. The
/// notified calls are every call in the system, whatever links it
/// crosses, so an estimator pools all of them; on one link that is the
/// set of calls sharing it.
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  /// Decide whether to accept a call whose initial reservation is
  /// `initial_rate_bps`. The simulator additionally blocks calls that
  /// would exceed the raw link capacity.
  virtual bool Admit(double now, const LinkView& view,
                     double initial_rate_bps) = 0;

  /// Ladder admission (multi-resolution service): may a call enter at
  /// rung `rung`, whose scaled initial reservation is `rung_rate_bps`?
  /// The simulator asks rung by rung, best first, and grants the first
  /// accepted rung; rung 0 is always the full ask. The default is
  /// scalar-conservative: rung 0 goes through the binary Admit and every
  /// lower rung is refused — so a depth-1 ladder reproduces the scalar
  /// decision bit-for-bit, and policies that do not understand
  /// downgrading never admit below the full ask. The Chernoff MBAC
  /// policies override this with a rate-aware test for rungs > 0.
  virtual bool AdmitAtRung(double now, const LinkView& view,
                           double rung_rate_bps, std::size_t rung) {
    return rung == 0 ? Admit(now, view, rung_rate_bps) : false;
  }

  /// A call was admitted with the given id and initial rate.
  virtual void OnAdmitted(double now, std::uint64_t call_id,
                          double rate_bps) = 0;
  /// A call's reservation changed (successful renegotiation, decrease or
  /// ladder promotion).
  virtual void OnRateChange(double now, std::uint64_t call_id,
                            double old_rate_bps, double new_rate_bps) = 0;
  /// A call left the system.
  virtual void OnDeparture(double now, std::uint64_t call_id,
                           double rate_bps) = 0;
};

/// A policy that admits every call the link can physically hold; the
/// baseline "no admission control beyond capacity".
class CapacityOnlyPolicy final : public AdmissionPolicy {
 public:
  bool Admit(double now, const LinkView& view,
             double initial_rate_bps) override;
  /// The capacity check is rate-dependent, so any rung that physically
  /// fits is admitted (a saturated link downgrades instead of blocking).
  bool AdmitAtRung(double now, const LinkView& view, double rung_rate_bps,
                   std::size_t /*rung*/) override {
    return Admit(now, view, rung_rate_bps);
  }
  void OnAdmitted(double, std::uint64_t, double) override {}
  void OnRateChange(double, std::uint64_t, double, double) override {}
  void OnDeparture(double, std::uint64_t, double) override {}
};

struct CallSimOptions {
  double capacity_bps = 0;
  /// Poisson call arrival rate (calls per second).
  double arrival_rate_per_s = 0;
  /// Simulated time discarded before measurement.
  double warmup_seconds = 0;
  /// Number of measurement intervals; each yields one sample of the
  /// failure probability and of the utilization.
  std::size_t sample_intervals = 10;
  /// Length of one measurement interval (paper: the trace duration).
  double interval_seconds = 0;
  /// Optional observability sink: admission accept/reject, renegotiation
  /// grant/deny, and departure events (time = sim seconds, id = call id;
  /// rejects use the would-be id), plus call/attempt counters.
  obs::Recorder* recorder = nullptr;
  /// Multi-resolution contract carried by every call (empty = scalar;
  /// the depth-1 ladder is pinned byte-identical to scalar). Under
  /// saturation the simulator admits at the deepest feasible rung
  /// instead of blocking, and departures promote downgraded calls back
  /// toward rung 0 in call-id order.
  RateLadder ladder;
};

struct CallSimResult {
  /// Per-interval renegotiation failure fraction (failed upward attempts /
  /// upward attempts).
  OnlineStats failure_probability;
  /// Per-interval time-average of reserved/capacity.
  OnlineStats utilization;

  std::int64_t offered_calls = 0;
  std::int64_t blocked_calls = 0;
  std::int64_t upward_attempts = 0;
  std::int64_t failed_attempts = 0;
  /// Ladder outcomes (0 for scalar and depth-1 contracts).
  std::int64_t downgraded_admits = 0;
  std::int64_t upgrades = 0;
  /// Delivered utility integrated over the measurement window (0 when the
  /// run carries no ladder).
  double utility_seconds = 0;

  double blocking_probability() const {
    return offered_calls > 0 ? static_cast<double>(blocked_calls) /
                                   static_cast<double>(offered_calls)
                             : 0.0;
  }
  double overall_failure_probability() const {
    return upward_attempts > 0 ? static_cast<double>(failed_attempts) /
                                     static_cast<double>(upward_attempts)
                               : 0.0;
  }
};

/// Runs the simulator. Each arriving call draws a profile uniformly from
/// `profile_pool` and a uniform random circular shift. Renegotiations are
/// full-grant-or-keep-old-rate; a failed upward attempt leaves the call at
/// its previous reservation until its next scheduled change.
CallSimResult RunCallSim(const std::vector<CallProfile>& profile_pool,
                         AdmissionPolicy& policy,
                         const CallSimOptions& options, Rng& rng);

}  // namespace rcbr::sim
