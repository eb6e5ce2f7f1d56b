#include "core/rcbr_source.h"

#include <cmath>

#include "util/error.h"

namespace rcbr::core {

RcbrSource::RcbrSource(std::uint64_t vci, double slot_seconds,
                       double buffer_bits, signaling::SignalingPath* path,
                       obs::Recorder* recorder,
                       std::unique_ptr<RateController> controller)
    : vci_(vci),
      slot_seconds_(slot_seconds),
      path_(path),
      queue_(buffer_bits, recorder, vci),
      controller_(std::move(controller)),
      contract_(controller_.get(), 1.0),
      obs_(recorder) {
  Require(slot_seconds > 0, "RcbrSource: slot duration must be positive");
  Require(path != nullptr, "RcbrSource: null signaling path");
  ctr_attempts_ = obs::FindCounter(obs_, "source.renegotiation_attempts");
  ctr_failures_ = obs::FindCounter(obs_, "source.renegotiation_failures");
  span_reneg_latency_ =
      obs::FindSpan(obs_, "source.span.reneg_latency_s");
  span_reneg_cells_ = obs::FindSpan(obs_, "source.span.reneg_cells");
  span_hold_dwell_ =
      obs::FindSpan(obs_, "source.span.hold_dwell_slots");
  span_fallback_dwell_ =
      obs::FindSpan(obs_, "source.span.fallback_dwell_slots");
  if constexpr (obs::kEnabled) {
    const std::string mode_series =
        "source." + std::to_string(vci) + ".mode";
    ts_mode_ = obs::FindSeries(obs_, mode_series.c_str());
  }
}

RcbrSource RcbrSource::Offline(std::uint64_t vci, PiecewiseConstant schedule,
                               double slot_seconds, double buffer_bits,
                               signaling::SignalingPath* path,
                               obs::Recorder* recorder) {
  RcbrSource source(vci, slot_seconds, buffer_bits, path, recorder, nullptr);
  source.schedule_.emplace(std::move(schedule));
  return source;
}

RcbrSource RcbrSource::Online(std::uint64_t vci,
                              const HeuristicOptions& heuristic,
                              double slot_seconds, double buffer_bits,
                              signaling::SignalingPath* path,
                              obs::Recorder* recorder) {
  return OnlineWith(vci, std::make_unique<OnlineRateController>(heuristic),
                    slot_seconds, buffer_bits, path, recorder);
}

RcbrSource RcbrSource::OnlineWith(std::uint64_t vci,
                                  std::unique_ptr<RateController> controller,
                                  double slot_seconds, double buffer_bits,
                                  signaling::SignalingPath* path,
                                  obs::Recorder* recorder) {
  Require(controller != nullptr, "RcbrSource::OnlineWith: null controller");
  controller->AdoptRecorder(recorder, vci);
  return RcbrSource(vci, slot_seconds, buffer_bits, path, recorder,
                    std::move(controller));
}

void RcbrSource::EnableRobustSignaling(
    const signaling::RetryOptions& retry,
    const signaling::LossyChannelOptions& channel, Rng* rng,
    const DegradationOptions& degradation) {
  Require(!connected_,
          "RcbrSource::EnableRobustSignaling: call before Connect()");
  Require(rng != nullptr, "RcbrSource::EnableRobustSignaling: null rng");
  if (degradation.enabled) {
    Require(degradation.failures_to_degrade >= 1,
            "DegradationOptions: failures_to_degrade must be >= 1");
    Require(degradation.hold_slots >= 1,
            "DegradationOptions: hold_slots must be >= 1");
    Require(degradation.fallback_rate_bits_per_slot > 0,
            "DegradationOptions: fallback rate must be positive");
    Require(degradation.fallback_occupancy_fraction > 0 &&
                degradation.fallback_occupancy_fraction <= 1,
            "DegradationOptions: fallback fraction must be in (0,1]");
    Require(degradation.recover_occupancy_fraction >= 0 &&
                degradation.recover_occupancy_fraction <
                    degradation.fallback_occupancy_fraction,
            "DegradationOptions: recover fraction must be below the "
            "fallback fraction");
    Require(std::isfinite(queue_.buffer_bits()),
            "DegradationOptions: occupancy thresholds need a finite "
            "end-system buffer");
  }
  robust_ = true;
  retry_options_ = retry;
  channel_options_ = channel;
  signaling_rng_ = rng;
  degradation_ = degradation;
  if (retry_options_.recorder == nullptr) retry_options_.recorder = obs_;
  if (channel_options_.recorder == nullptr) channel_options_.recorder = obs_;
}

void RcbrSource::SetLadder(const sim::RateLadder& ladder) {
  Require(!connected_, "RcbrSource::SetLadder: call before Connect()");
  contract_.SetLadder(ladder);
}

bool RcbrSource::Connect() {
  Require(!connected_, "RcbrSource::Connect: already connected");
  const double initial = schedule_.has_value()
                             ? schedule_->steps().front().value
                             : controller_->current_rate();
  // A saturated path downgrades the connect instead of blocking it.
  const sim::RungAnswer answer =
      contract_.Connect(initial, [&](std::uint32_t rung, double& rate) {
        return path_->SetupConnection(vci_, ToBps(rate), rung)
                   ? sim::RungAnswer::kGranted
                   : sim::RungAnswer::kDenied;
      });
  if (answer != sim::RungAnswer::kGranted) return false;
  connected_ = true;
  if (robust_) {
    transport_ = std::make_unique<signaling::RetryingRenegotiator>(
        path_, vci_, ToBps(contract_.granted()), retry_options_,
        channel_options_, signaling_rng_);
    transport_->set_rung(contract_.rung());
  }
  if (contract_.rung() > 0) ++stats_.downgraded_connects;
  return true;
}

void RcbrSource::ResyncSignaling() {
  Require(transport_ != nullptr,
          "RcbrSource::ResyncSignaling: robust signaling not enabled");
  Require(connected_, "RcbrSource::ResyncSignaling: not connected");
  transport_->Resync(static_cast<double>(stats_.slots));
}

void RcbrSource::Disconnect() {
  if (!connected_) return;
  path_->TeardownConnection(vci_, ToBps(contract_.granted()));
  connected_ = false;
}

bool RcbrSource::TryUpgrade() {
  Require(connected_, "RcbrSource::TryUpgrade: not connected");
  const std::uint32_t from = contract_.rung();
  const double now = static_cast<double>(stats_.slots);
  const sim::RungWalk walk =
      contract_.Upgrade([&](std::uint32_t target, double& want) {
        const signaling::RenegotiationOutcome outcome =
            Request(want, target, now);
        if (outcome.accepted) return sim::RungAnswer::kGranted;
        return outcome.timed_out ? sim::RungAnswer::kStopped
                                 : sim::RungAnswer::kDenied;
      });
  if (walk.answer != sim::RungAnswer::kGranted) return false;
  ++stats_.upgrades;
  if constexpr (obs::kEnabled) {
    obs::Count(obs_, "source.upgrades");
    obs::Emit(obs_, now, obs::EventKind::kCallUpgrade, vci_,
              {"from_rung", static_cast<double>(from)},
              {"to_rung", static_cast<double>(walk.rung)},
              {"rate_bits_per_slot", contract_.granted()});
  }
  return true;
}

signaling::RenegotiationOutcome RcbrSource::Request(double rate,
                                                    std::uint32_t rung,
                                                    double now) {
  if (transport_ == nullptr) {
    signaling::RenegotiationOutcome outcome;
    outcome.accepted =
        path_
            ->RequestDelta(vci_, ToBps(rate - contract_.granted()), now, rung)
            .accepted;
    return outcome;
  }
  // The rung rides the request cells only: a timed-out attempt's rescind
  // keeps carrying the contract's rung, or a failed probe toward rung 0
  // would deregister the call from every hop's upgrade queue.
  transport_->SetRequestedRung(rung);
  const signaling::RenegotiationOutcome outcome =
      transport_->Renegotiate(ToBps(rate), now);
  if (!outcome.accepted) transport_->SetRequestedRung(contract_.rung());
  return outcome;
}

std::optional<double> RcbrSource::OfflineDesiredRate() const {
  if (!schedule_.has_value()) return std::nullopt;
  const std::int64_t t = std::min(stats_.slots, schedule_->length() - 1);
  return schedule_->At(t);
}

bool RcbrSource::TryRenegotiate(double desired, SlotResult& result) {
  // Schedule, heuristic and fallback asks alike are scaled by the rung.
  const std::optional<double> ask = contract_.Ask(desired);
  if (!ask.has_value()) return true;
  desired = *ask;
  result.renegotiated = true;
  ++stats_.renegotiation_attempts;
  if (ctr_attempts_ != nullptr) ctr_attempts_->Add();
  const double old_rate = contract_.granted();
  const double now = static_cast<double>(stats_.slots);
  if constexpr (obs::kEnabled) {
    obs::Emit(obs_, now, obs::EventKind::kRenegRequest, vci_,
              {"old_bits_per_slot", old_rate},
              {"new_bits_per_slot", desired});
  }
  const signaling::RenegotiationOutcome outcome =
      Request(desired, contract_.rung(), now);
  result.renegotiation_latency_s += outcome.latency_s;
  result.renegotiation_cells += outcome.attempts;
  if (outcome.timed_out) ++stats_.renegotiation_timeouts;
  if (transport_ != nullptr && span_reneg_latency_ != nullptr) {
    span_reneg_latency_->Record(outcome.latency_s);
  }
  if (transport_ != nullptr && span_reneg_cells_ != nullptr) {
    span_reneg_cells_->Record(static_cast<double>(outcome.attempts));
  }
  if (outcome.accepted) {
    contract_.OnGranted(desired);
    obs::Emit(obs_, now, obs::EventKind::kRenegGrant, vci_,
              {"old_bits_per_slot", old_rate},
              {"new_bits_per_slot", desired});
  } else {
    result.renegotiation_failed = true;
    ++stats_.renegotiation_failures;
    if (ctr_failures_ != nullptr) ctr_failures_->Add();
    // Timeouts already emitted kRenegTimeout from the transport; only an
    // explicit refusal is a deny.
    if (!outcome.timed_out) {
      obs::Emit(obs_, now, obs::EventKind::kRenegDeny, vci_,
                {"old_bits_per_slot", old_rate},
                {"new_bits_per_slot", desired});
    }
    contract_.OnRequestDenied();
  }
  return outcome.accepted;
}

void RcbrSource::StepDegradation(const std::optional<double>& desired,
                                 SlotResult& result) {
  const double occupancy = queue_.occupancy_bits();
  const double escalate_at =
      degradation_.fallback_occupancy_fraction * queue_.buffer_bits();
  const double recover_at =
      degradation_.recover_occupancy_fraction * queue_.buffer_bits();
  const double now = static_cast<double>(stats_.slots);
  switch (mode_) {
    case SourceMode::kNormal: {
      if (!desired.has_value()) return;
      if (TryRenegotiate(*desired, result)) {
        consecutive_failures_ = 0;
        return;
      }
      if (++consecutive_failures_ >= degradation_.failures_to_degrade) {
        // Give up asking: hold the granted rate and drain via the buffer.
        mode_ = SourceMode::kHold;
        mode_entered_slot_ = stats_.slots;
        hold_until_slot_ = stats_.slots + degradation_.hold_slots;
        ++stats_.degrade_holds;
        if constexpr (obs::kEnabled) {
          obs::Count(obs_, "source.degrade_holds");
          obs::Emit(obs_, now, obs::EventKind::kDegradeHold, vci_,
                    {"granted_bits_per_slot", contract_.granted()},
                    {"buffer_bits", occupancy});
        }
      }
      return;
    }
    case SourceMode::kHold: {
      if (occupancy >= escalate_at &&
          contract_.granted() < degradation_.fallback_rate_bits_per_slot) {
        // About to overflow: escalate to the peak-rate fallback, retrying
        // every slot until some attempt lands.
        if (TryRenegotiate(degradation_.fallback_rate_bits_per_slot,
                           result)) {
          if (span_hold_dwell_ != nullptr) {
            span_hold_dwell_->Record(
                static_cast<double>(stats_.slots - mode_entered_slot_));
          }
          mode_ = SourceMode::kFallback;
          mode_entered_slot_ = stats_.slots;
          ++stats_.fallback_entries;
          contract_.OnRateImposed();
          if constexpr (obs::kEnabled) {
            obs::Count(obs_, "source.fallback_entries");
            obs::Emit(obs_, now, obs::EventKind::kDegradeFallback, vci_,
                      {"rate_bits_per_slot", contract_.granted()},
                      {"buffer_bits", occupancy});
          }
        }
        return;
      }
      if (stats_.slots >= hold_until_slot_ && desired.has_value()) {
        // Re-probe at the schedule/heuristic rate.
        if (TryRenegotiate(*desired, result)) {
          if (span_hold_dwell_ != nullptr) {
            span_hold_dwell_->Record(
                static_cast<double>(stats_.slots - mode_entered_slot_));
          }
          mode_ = SourceMode::kNormal;
          consecutive_failures_ = 0;
          ++stats_.recoveries;
          if constexpr (obs::kEnabled) {
            obs::Count(obs_, "source.degrade_recoveries");
            obs::Emit(obs_, now, obs::EventKind::kDegradeRecover, vci_,
                      {"rate_bits_per_slot", contract_.granted()},
                      {"buffer_bits", occupancy});
          }
        } else {
          hold_until_slot_ = stats_.slots + degradation_.hold_slots;
        }
      }
      return;
    }
    case SourceMode::kFallback: {
      if (occupancy <= recover_at && desired.has_value() &&
          *desired < contract_.granted()) {
        // Backlog drained; hand the rate back to the schedule/heuristic.
        if (TryRenegotiate(*desired, result)) {
          if (span_fallback_dwell_ != nullptr) {
            span_fallback_dwell_->Record(
                static_cast<double>(stats_.slots - mode_entered_slot_));
          }
          mode_ = SourceMode::kNormal;
          consecutive_failures_ = 0;
          ++stats_.recoveries;
          if constexpr (obs::kEnabled) {
            obs::Count(obs_, "source.degrade_recoveries");
            obs::Emit(obs_, now, obs::EventKind::kDegradeRecover, vci_,
                      {"rate_bits_per_slot", contract_.granted()},
                      {"buffer_bits", occupancy});
          }
        }
      }
      return;
    }
  }
}

RcbrSource::SlotResult RcbrSource::Step(double arrival_bits) {
  Require(connected_, "RcbrSource::Step: not connected");
  SlotResult result;

  // Drain this slot at the currently granted rate.
  result.lost_bits = queue_.Step(arrival_bits, contract_.granted());
  ++stats_.slots;

  // Decide the rate for the next slot. The controller keeps estimating
  // every slot even while degraded, so recovery targets stay fresh.
  std::optional<double> desired;
  if (schedule_.has_value()) {
    desired = OfflineDesiredRate();
  } else {
    // The controller has already accounted this slot's drain via Step.
    desired = controller_->Step(arrival_bits, contract_.granted());
  }
  if (degradation_.enabled) {
    StepDegradation(desired, result);
  } else if (desired.has_value()) {
    TryRenegotiate(*desired, result);
  }
  if (ts_mode_ != nullptr) {
    // Per-slot state occupancy: window means give the fraction of time
    // spent degraded (kNormal=0, kHold=1, kFallback=2).
    ts_mode_->Sample(static_cast<double>(stats_.slots),
                     static_cast<double>(mode_));
  }

  result.granted_rate_bits_per_slot = contract_.granted();
  stats_.lost_bits = queue_.lost_bits();
  stats_.arrived_bits = queue_.arrived_bits();
  stats_.max_buffer_bits = queue_.max_occupancy_bits();
  return result;
}

}  // namespace rcbr::core
