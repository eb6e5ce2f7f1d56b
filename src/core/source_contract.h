// The RCBR source's contract with the network, written once for every
// transport (Sec. III): "even if the renegotiation fails, the source can
// keep whatever bandwidth it already has", plus the ladder's rules (after
// Fricker et al., arXiv 1604.00894): ask best rung first, and scale every
// ask by the current rung. Like Jain et al.'s ABR source rules, it is
// stated with no transport in it. A transport passes one hook per request
//
//   sim::RungAnswer request(std::uint32_t rung, double& rate);
//
// that sends `rate` at `rung` and reports kGranted (optionally replacing
// `rate` with the rate the far end acknowledged), kDenied, or kStopped
// (timed out, link dead). core::RcbrSource passes SignalingPath / retry
// transport hooks in bits/slot, net::Client Hello / Delta frame hooks in
// bits/s; rates stay in the transport's unit, and the controller gets
// rate * `slot_unit` bits/slot.
#pragma once

#include <cstdint>
#include <optional>

#include "core/rate_controller.h"
#include "sim/rate_ladder.h"

namespace rcbr::core {

class SourceContract {
 public:
  /// `controller` is borrowed and may be null (a schedule-driven source).
  SourceContract(RateController* controller, double slot_unit)
      : controller_(controller), slot_unit_(slot_unit) {}

  /// Empty = the scalar contract. Call before Connect().
  void SetLadder(const sim::RateLadder& ladder) { ladder_ = ladder; }
  std::uint32_t rung() const { return rung_; }
  /// The last rate the network acknowledged.
  double granted() const { return granted_; }

  /// The connect walk over every rung, best first. A downgraded grant is
  /// imposed on the controller. Returns the answer that ended the walk
  /// (kDenied: every rung refused).
  template <typename Request>
  sim::RungAnswer Connect(double full_ask, Request&& request) {
    full_ask_ = full_ask;
    const sim::RungWalk walk =
        sim::WalkRungs(ladder_, full_ask, ladder_.walk_depth(), request);
    if (Adopt(walk) && rung_ > 0) OnRateImposed();
    return walk.answer;
  }

  /// `full_ask` scaled to the current rung, or nullopt when that is the
  /// acknowledged rate. The transport answers with OnGranted or
  /// OnRequestDenied.
  std::optional<double> Ask(double full_ask) {
    full_ask_ = full_ask;
    const double rate = ladder_.RateAt(rung_, full_ask);
    if (rate == granted_) return std::nullopt;
    return rate;
  }
  void OnGranted(double rate) { granted_ = rate; }

  /// After a denial or a timeout: keep the grant; the controller too.
  void OnRequestDenied() {
    if (controller_ != nullptr) {
      controller_->OnRequestDenied(granted_ * slot_unit_);
    }
  }

  /// The grant moved outside the controller's own requests (downgraded
  /// connect, upgrade, fallback, reconnect): the controller adopts it.
  void OnRateImposed() {
    if (controller_ != nullptr) {
      controller_->OnRateImposed(granted_ * slot_unit_);
    }
  }

  /// The upgrade walk over the rungs above the current one, at the last
  /// full ask; a grant is imposed on the controller. A stop ends the
  /// pass, so a silent channel costs one probe's retry budget.
  template <typename Request>
  sim::RungWalk Upgrade(Request&& request) {
    const sim::RungWalk walk =
        sim::WalkRungs(ladder_, full_ask_, rung_, request);
    if (Adopt(walk)) OnRateImposed();
    return walk;
  }

 private:
  bool Adopt(const sim::RungWalk& walk) {
    if (walk.answer != sim::RungAnswer::kGranted) return false;
    rung_ = walk.rung;
    granted_ = walk.rate;
    return true;
  }

  RateController* controller_;
  double slot_unit_;
  sim::RateLadder ladder_;
  std::uint32_t rung_ = 0;
  double full_ask_ = 0;  // the unscaled ask an upgrade scales from
  double granted_ = 0;
};

}  // namespace rcbr::core
