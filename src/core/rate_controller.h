// The causal renegotiation rule of Sec. IV-B, written once for every
// online RCBR source (Sec. III-A2: "an active component [that] monitors
// the buffer between the application and the network and initiates
// renegotiations based on the buffer occupancy").
//
// RateController owns everything the paper's rule fixes: the buffer
// update against the granted rate (eq. 3), the quantize-up to the Delta
// grid clamped to the on-grid cap (eq. 7), the dual-threshold trigger
// (eq. 8) with an optional denial cooldown, the denial / imposed-rate
// bookkeeping and the kRenegRequest event. The one thing a heuristic
// chooses is how it estimates the source rate (eq. 6): the AR(1)
// controller of online_heuristic.h and the GOP-aware one of
// gop_heuristic.h each implement Estimate() and nothing else. The
// paper's Fig. 2 parameters: B_l = 10 kb, B_h = 150 kb, T = 5 frames,
// Delta swept from 25 kb/s to 400 kb/s.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/recorder.h"
#include "util/piecewise.h"

namespace rcbr::core {

struct HeuristicOptions {
  /// Low and high buffer thresholds, bits.
  double low_threshold_bits = 10e3;
  double high_threshold_bits = 150e3;
  /// Estimator time constant in slots; the estimate also flushes the
  /// buffer over this many slots (the q/T term of eq. 6).
  double time_constant_slots = 5;
  /// Bandwidth granularity Delta, bits per slot.
  double granularity_bits_per_slot = 0;
  /// Initial service rate, bits per slot.
  double initial_rate_bits_per_slot = 0;
  /// Upper cap on requested rates (bits per slot), e.g. the uplink
  /// capacity the source knows it can never exceed. The flush term of
  /// eq. (6) otherwise demands ~ arrival + q/T compounding to arrival + q
  /// under a persistent backlog, which a small link can never grant.
  /// Unlimited by default.
  double max_rate_bits_per_slot = 1e300;
  /// Slots to stay quiet after a denied request (0 = retrigger as soon as
  /// eq. 8 fires again, the legacy behavior). A denial under congestion
  /// usually repeats for many slots; the cooldown stops the source from
  /// hammering the network with requests it just saw refused.
  std::int64_t denial_cooldown_slots = 0;
  /// Optional observability sink: every trigger emits a kRenegRequest
  /// event (time = slot index, id = `obs_id`) with the quantized rate,
  /// buffer level, and the estimate it quantized, plus a renegotiation
  /// counter.
  obs::Recorder* recorder = nullptr;
  /// Identifier stamped into this controller's events (e.g. a VCI).
  std::uint64_t obs_id = 0;
};

/// Stateful controller usable online: feed one slot's arrivals at a time;
/// it tracks the (unbounded) source buffer given the granted rates and
/// proposes renegotiations.
class RateController {
 public:
  virtual ~RateController() = default;

  /// Advances one slot with `arrival_bits` entering the buffer while the
  /// network drains at `granted_rate` (bits/slot; normally the last
  /// requested rate, less if a renegotiation failed). Returns the new
  /// desired rate when the rule decides to renegotiate.
  std::optional<double> Step(double arrival_bits, double granted_rate);

  /// Informs the controller that its last request was denied and the
  /// reservation remains at `granted_rate`; future triggers compare
  /// against the real reservation instead of the phantom request, and the
  /// optional denial cooldown starts.
  void OnRequestDenied(double granted_rate) {
    current_rate_ = granted_rate;
    quiet_until_slot_ = slot_ + options_.denial_cooldown_slots;
  }

  /// The reservation moved to `granted_rate` outside the controller's own
  /// request flow — e.g. the source's degradation policy escalated to its
  /// peak-rate fallback. Adopted without starting a cooldown: the network
  /// just granted it, nothing was refused.
  void OnRateImposed(double granted_rate) { current_rate_ = granted_rate; }

  /// Sends this controller's events and renegotiation count to `recorder`
  /// under `obs_id`, unless its HeuristicOptions already named a recorder.
  void AdoptRecorder(obs::Recorder* recorder, std::uint64_t obs_id);

  double buffer_bits() const { return buffer_; }
  /// The currently requested/granted rate.
  double current_rate() const { return current_rate_; }
  std::int64_t renegotiations() const { return renegotiations_; }

 protected:
  explicit RateController(const HeuristicOptions& options);
  RateController(const RateController&) = default;
  RateController(RateController&&) = default;
  RateController& operator=(const RateController&) = default;
  RateController& operator=(RateController&&) = default;

  /// The eq. 6 rate estimate after this slot's `arrival_bits`, with
  /// buffer_bits() already updated; Step quantizes it to the grid.
  virtual double Estimate(double arrival_bits) = 0;

  const HeuristicOptions& options() const { return options_; }

 private:
  HeuristicOptions options_;
  double buffer_ = 0;
  double current_rate_;
  std::int64_t renegotiations_ = 0;
  std::int64_t slot_ = 0;
  std::int64_t quiet_until_slot_ = 0;
  obs::Counter* ctr_renegotiations_ = nullptr;
};

/// Runs `controller` open-loop over a whole workload (every request is
/// granted) and returns the resulting stepwise-CBR schedule, as used for
/// the heuristic curves of Fig. 2.
PiecewiseConstant ComputeHeuristicSchedule(
    const std::vector<double>& workload_bits, RateController& controller);

}  // namespace rcbr::core
