// A runtime RCBR source (Sec. III).
//
// RcbrSource binds together the three runtime pieces of the service: the
// end-system buffer ("sources are presented with an abstraction of a
// fixed-size buffer which is drained at a constant rate"), a renegotiation
// decision maker (a precomputed offline schedule or the online AR(1)
// controller), and the signaling path used to renegotiate the drain rate
// hop by hop. The contract itself — a failed renegotiation keeps the
// rate the source already has, the ladder walk and the rung-scaled ask —
// is core::SourceContract, shared with the daemon's net::Client; this
// class supplies its SignalingPath / RetryingRenegotiator hooks, in
// bits/slot, and the degradation walk below. The source retries at the
// next slot (offline) or at the next heuristic trigger (online).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/online_heuristic.h"
#include "core/source_contract.h"
#include "signaling/path.h"
#include "signaling/retry.h"
#include "sim/fluid_queue.h"
#include "sim/rate_ladder.h"
#include "util/piecewise.h"
#include "util/rng.h"

namespace rcbr::core {

struct SourceStats {
  std::int64_t slots = 0;
  std::int64_t renegotiation_attempts = 0;
  std::int64_t renegotiation_failures = 0;
  /// Robust-signaling tallies (0 without EnableRobustSignaling).
  std::int64_t renegotiation_timeouts = 0;
  std::int64_t degrade_holds = 0;
  std::int64_t fallback_entries = 0;
  std::int64_t recoveries = 0;
  /// Ladder tallies (0 without SetLadder, or with a depth-1 ladder):
  /// connects granted below the full ask, and rung promotions won back.
  std::int64_t downgraded_connects = 0;
  std::int64_t upgrades = 0;
  double lost_bits = 0;
  double arrived_bits = 0;
  double max_buffer_bits = 0;

  double loss_fraction() const {
    return arrived_bits > 0 ? lost_bits / arrived_bits : 0.0;
  }
};

/// Graceful-degradation policy for repeated renegotiation failure. The
/// source walks kNormal -> kHold -> kFallback and back:
///  * kNormal: schedule- or heuristic-driven renegotiation as usual.
///    After `failures_to_degrade` consecutive failures it gives up asking
///    and enters kHold.
///  * kHold: keep the last granted rate and absorb the excess in the
///    buffer (the paper's "keep whatever bandwidth it already has"),
///    re-probing every `hold_slots`. If the buffer climbs past
///    `fallback_occupancy_fraction` of capacity, escalate: request the
///    peak-rate fallback (every slot, with the transport's own retries)
///    until granted — the pre-overflow escape hatch.
///  * kFallback: drain at `fallback_rate_bits_per_slot`; once the buffer
///    falls below `recover_occupancy_fraction` and the controller or
///    schedule asks for a lower rate that is granted, return to kNormal.
/// Transitions are emitted as kDegradeHold / kDegradeFallback /
/// kDegradeRecover events and "source.degrade_*" counters.
struct DegradationOptions {
  bool enabled = false;
  /// Consecutive failures (denials or timeouts) before the source stops
  /// asking. Must be >= 1.
  std::int64_t failures_to_degrade = 2;
  /// Slots between re-probes while holding. Must be >= 1.
  std::int64_t hold_slots = 4;
  /// Escalation threshold as a fraction of the buffer, in (0, 1].
  double fallback_occupancy_fraction = 0.75;
  /// Emergency drain rate, bits/slot (typically the source's peak rate).
  /// Must be positive when the policy is enabled.
  double fallback_rate_bits_per_slot = 0;
  /// Recovery threshold as a fraction of the buffer, below the
  /// escalation threshold.
  double recover_occupancy_fraction = 0.25;
};

enum class SourceMode : std::uint8_t { kNormal, kHold, kFallback };

class RcbrSource {
 public:
  /// Offline (stored-video) source following a precomputed schedule in
  /// bits/slot. The path is borrowed and must outlive the source. With a
  /// recorder, renegotiation request/grant/deny events are emitted (time
  /// = slot index, id = vci) and the end-system buffer reports overflow /
  /// underflow events under the same id.
  static RcbrSource Offline(std::uint64_t vci, PiecewiseConstant schedule,
                            double slot_seconds, double buffer_bits,
                            signaling::SignalingPath* path,
                            obs::Recorder* recorder = nullptr);

  /// Online (interactive) source driven by the AR(1) heuristic.
  static RcbrSource Online(std::uint64_t vci,
                           const HeuristicOptions& heuristic,
                           double slot_seconds, double buffer_bits,
                           signaling::SignalingPath* path,
                           obs::Recorder* recorder = nullptr);

  /// Online source driven by any RateController (e.g. the GOP-aware
  /// heuristic). Both send the controller's events to `recorder` under id
  /// `vci` unless its HeuristicOptions name a recorder.
  static RcbrSource OnlineWith(std::uint64_t vci,
                               std::unique_ptr<RateController> controller,
                               double slot_seconds, double buffer_bits,
                               signaling::SignalingPath* path,
                               obs::Recorder* recorder = nullptr);

  /// Routes renegotiations through a timeout/retry/backoff transport
  /// (RetryingRenegotiator) over the same path, with the lossy channel
  /// described by `channel` (its `conditions` pointer may be fault-driven
  /// and mutate mid-run), and optionally arms the graceful-degradation
  /// state machine. Call before Connect(). `rng` drives the loss and
  /// jitter draws — seeded by the caller, so runs stay deterministic —
  /// and is borrowed for the source's lifetime. Degradation requires a
  /// finite end-system buffer (its thresholds are occupancy fractions).
  void EnableRobustSignaling(const signaling::RetryOptions& retry,
                             const signaling::LossyChannelOptions& channel,
                             Rng* rng,
                             const DegradationOptions& degradation = {});

  /// Arms the ladder (SourceContract): Connect() walks it best rung
  /// first, every ask is scaled by the current rung, and TryUpgrade()
  /// probes back toward rung 0. Call before Connect(). A depth-1 ladder
  /// is behavior-identical to not calling this at all.
  void SetLadder(const sim::RateLadder& ladder);

  /// Reserves the initial rate on every hop. Must be called once before
  /// Step(). Returns false if even the initial reservation is blocked.
  bool Connect();

  /// Releases the current reservation.
  void Disconnect();

  /// SourceContract::Upgrade through the normal renegotiation path.
  /// Returns true when a promotion was granted; false at rung 0.
  bool TryUpgrade();

  /// Sends the reliable absolute-rate resync along the path at the last
  /// acknowledged rate — the repair to apply after a port controller
  /// crash/restart. Requires robust signaling and an active connection.
  void ResyncSignaling();

  struct SlotResult {
    double granted_rate_bits_per_slot = 0;
    double lost_bits = 0;
    bool renegotiated = false;
    bool renegotiation_failed = false;
    /// Source-perceived completion latency of this slot's renegotiation
    /// (round trips, timeout waits, backoff sleeps; 0 without the retry
    /// transport or when no renegotiation happened).
    double renegotiation_latency_s = 0;
    /// Cells sent for this slot's renegotiation (0 when none happened).
    std::int64_t renegotiation_cells = 0;
  };

  /// Advances one slot: `arrival_bits` are produced by the encoder, the
  /// network drains at the currently granted rate, and the source may
  /// renegotiate for the next slot.
  SlotResult Step(double arrival_bits);

  const SourceStats& stats() const { return stats_; }
  double granted_rate() const { return contract_.granted(); }
  double buffer_occupancy_bits() const { return queue_.occupancy_bits(); }
  std::uint64_t vci() const { return vci_; }
  SourceMode mode() const { return mode_; }
  /// Current rung of the multi-resolution contract (0 without a ladder).
  std::uint32_t rung() const { return contract_.rung(); }
  /// The retry transport (null until EnableRobustSignaling + Connect).
  const signaling::RetryingRenegotiator* transport() const {
    return transport_.get();
  }

 private:
  /// `controller` is null for an offline source.
  RcbrSource(std::uint64_t vci, double slot_seconds, double buffer_bits,
             signaling::SignalingPath* path, obs::Recorder* recorder,
             std::unique_ptr<RateController> controller);

  /// Rates are tracked in bits/slot internally and signalled to the
  /// network in bits/second.
  double ToBps(double bits_per_slot) const {
    return bits_per_slot / slot_seconds_;
  }

  /// Desired rate for slot `t` (offline mode), or nullopt in online mode.
  std::optional<double> OfflineDesiredRate() const;
  /// One request for `rate` (bits/slot) at `rung`: through the retry
  /// transport when robust signaling is on, else a bare delta walk.
  signaling::RenegotiationOutcome Request(double rate, std::uint32_t rung,
                                          double now);
  /// Returns true when the network granted `desired` (trivially true when
  /// desired == granted already).
  bool TryRenegotiate(double desired, SlotResult& result);
  /// One slot of the kNormal/kHold/kFallback state machine.
  void StepDegradation(const std::optional<double>& desired,
                       SlotResult& result);

  std::uint64_t vci_;
  double slot_seconds_;
  signaling::SignalingPath* path_;
  sim::SlottedQueue queue_;

  // Offline state.
  std::optional<PiecewiseConstant> schedule_;

  // Online state.
  std::unique_ptr<RateController> controller_;

  // The ladder, rung, full ask and acknowledged rate, in bits/slot.
  SourceContract contract_;

  // Robust-signaling state (EnableRobustSignaling).
  bool robust_ = false;
  signaling::RetryOptions retry_options_;
  signaling::LossyChannelOptions channel_options_;
  Rng* signaling_rng_ = nullptr;
  DegradationOptions degradation_;
  std::unique_ptr<signaling::RetryingRenegotiator> transport_;
  SourceMode mode_ = SourceMode::kNormal;
  std::int64_t consecutive_failures_ = 0;
  std::int64_t hold_until_slot_ = 0;

  bool connected_ = false;
  SourceStats stats_;
  obs::Recorder* obs_ = nullptr;
  obs::Counter* ctr_attempts_ = nullptr;
  obs::Counter* ctr_failures_ = nullptr;
  /// Call-lifecycle span handles (null when spans are off): perceived
  /// renegotiation latency, retry-budget consumption (cells per
  /// renegotiation), and hold/fallback dwell times in slots.
  obs::SpanHistogram* span_reneg_latency_ = nullptr;
  obs::SpanHistogram* span_reneg_cells_ = nullptr;
  obs::SpanHistogram* span_hold_dwell_ = nullptr;
  obs::SpanHistogram* span_fallback_dwell_ = nullptr;
  /// Per-slot degradation-state occupancy series (kNormal=0 ... ).
  obs::TimeSeries* ts_mode_ = nullptr;
  /// Slot at which the current non-kNormal mode was entered.
  std::int64_t mode_entered_slot_ = 0;
};

}  // namespace rcbr::core
