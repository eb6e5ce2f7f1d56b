#include "signaling/path.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace rcbr::signaling {

SignalingPath::SignalingPath(std::vector<PortController*> hops,
                             double per_hop_delay_s)
    : hops_(std::move(hops)),
      per_hop_delay_(per_hop_delay_s),
      grants_(hops_.size()) {
  Require(!hops_.empty(), "SignalingPath: need at least one hop");
  Require(per_hop_delay_s >= 0, "SignalingPath: negative delay");
  for (PortController* hop : hops_) {
    Require(hop != nullptr, "SignalingPath: null hop");
  }
}

double SignalingPath::RoundTripSeconds() const {
  return 2.0 * per_hop_delay_ * static_cast<double>(hops_.size());
}

bool SignalingPath::SetupConnection(std::uint64_t vci, double rate_bps,
                                    std::uint32_t rung) {
  std::vector<double> before;
  before.reserve(hops_.size());
  for (std::size_t k = 0; k < hops_.size(); ++k) {
    before.push_back(hops_[k]->utilization_bps());
    if (!hops_[k]->AdmitConnection(vci, rate_bps, rung)) {
      for (std::size_t j = 0; j < k; ++j) {
        hops_[j]->RollbackAdmit(vci, before[j]);
      }
      return false;
    }
  }
  return true;
}

void SignalingPath::TeardownConnection(std::uint64_t vci,
                                       double rate_bps_hint) {
  for (PortController* hop : hops_) {
    hop->ReleaseConnection(vci, rate_bps_hint);
  }
}

PathOutcome SignalingPath::RequestDelta(std::uint64_t vci, double delta_bps,
                                        double now_seconds,
                                        std::uint32_t rung) {
  ++stats_.requests;
  const auto never_lost = [](std::size_t) { return false; };
  const DeltaWalk walk =
      WalkDelta(vci, delta_bps, now_seconds, rung, never_lost, never_lost);
  if (walk.end == DeltaWalk::End::kGranted) {
    return {true, -1, RoundTripSeconds()};
  }
  ++stats_.failures;
  // Denial travels to hop k and back.
  return {false, static_cast<int>(walk.hop),
          2.0 * per_hop_delay_ * static_cast<double>(walk.hop + 1)};
}

void SignalingPath::Resync(std::uint64_t vci, double absolute_rate_bps,
                           double now_seconds, std::uint32_t rung) {
  for (PortController* hop : hops_) {
    hop->Handle(RmCell::Resync(vci, absolute_rate_bps, rung), now_seconds);
  }
}

double SignalingPath::DriftBps(std::size_t hop, std::uint64_t vci,
                               double rate_bps) const {
  return hops_[hop]->TrackedRate(vci) - rate_bps;
}

double SignalingPath::MaxAbsDriftBps(std::uint64_t vci,
                                     double rate_bps) const {
  double worst = 0;
  for (std::size_t k = 0; k < hops_.size(); ++k) {
    worst = std::max(worst, std::abs(DriftBps(k, vci, rate_bps)));
  }
  return worst;
}

}  // namespace rcbr::signaling
