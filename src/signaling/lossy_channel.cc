#include "signaling/lossy_channel.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.h"

namespace rcbr::signaling {

void ValidateChannelOptions(const LossyChannelOptions& options) {
  Require(!std::isnan(options.cell_loss_probability),
          "LossyChannelOptions: loss probability is NaN");
  Require(options.cell_loss_probability >= 0 &&
              options.cell_loss_probability < 1,
          "LossyChannelOptions: loss probability must be in [0,1)");
  Require(options.resync_every_cells >= 0,
          "LossyChannelOptions: negative resync period");
}

LossyPathRenegotiator::LossyPathRenegotiator(
    SignalingPath* path, std::uint64_t vci, double initial_rate_bps,
    const LossyChannelOptions& options, Rng* rng)
    : path_(path),
      vci_(vci),
      options_(options),
      rng_(rng),
      believed_(initial_rate_bps) {
  Require(path != nullptr, "LossyPathRenegotiator: null path");
  Require(rng != nullptr, "LossyPathRenegotiator: null rng");
  ValidateChannelOptions(options);
  Require(initial_rate_bps >= 0, "LossyPathRenegotiator: negative rate");
}

bool LossyPathRenegotiator::Renegotiate(double new_rate_bps,
                                        double now_seconds) {
  Require(new_rate_bps >= 0, "LossyPathRenegotiator: negative rate");
  const double delta = new_rate_bps - believed_;
  ++stats_.cells_sent;
  ++cells_since_resync_;
  bool accepted = true;
  std::vector<CellVerdict> grants;
  grants.reserve(path_->hop_count());
  for (std::size_t k = 0; k < path_->hop_count(); ++k) {
    if (rng_->Bernoulli(EffectiveLossProbability(options_))) {
      // Lost in flight: hops 0..k-1 already applied the delta, the rest
      // never see it. The unacked source cannot tell, so no rollback —
      // the downstream hops drift until the next resync.
      ++stats_.cells_lost;
      if constexpr (obs::kEnabled) {
        obs::Count(options_.recorder, "signaling.cells_lost");
        obs::Emit(options_.recorder, now_seconds,
                  obs::EventKind::kRmCellLoss, vci_, {"delta_bps", delta},
                  {"hop", static_cast<double>(k)});
      }
      break;
    }
    const CellVerdict verdict =
        path_->hop(k)->Handle(RmCell::Delta(vci_, delta, rung_),
                              now_seconds);
    if (!verdict.accepted) {
      // All-or-nothing: roll the upstream grants back over the same lossy
      // channel; a lost rollback cell leaves that hop drifted.
      for (std::size_t j = 0; j < grants.size(); ++j) {
        if (rng_->Bernoulli(EffectiveLossProbability(options_))) {
          ++stats_.cells_lost;
          if constexpr (obs::kEnabled) {
            obs::Count(options_.recorder, "signaling.cells_lost");
            obs::Emit(options_.recorder, now_seconds,
                      obs::EventKind::kRmCellLoss, vci_,
                      {"delta_bps", -delta}, {"hop", static_cast<double>(j)});
          }
          continue;
        }
        path_->hop(j)->RollbackDelta(vci_, grants[j]);
      }
      accepted = false;
      break;
    }
    grants.push_back(verdict);
  }
  if (accepted) believed_ = new_rate_bps;
  if (options_.resync_every_cells > 0 &&
      cells_since_resync_ >= options_.resync_every_cells) {
    Resync(now_seconds);
  }
  return accepted;
}

void LossyPathRenegotiator::Resync(double now_seconds) {
  if constexpr (obs::kEnabled) {
    obs::Count(options_.recorder, "signaling.resyncs");
    obs::Emit(options_.recorder, now_seconds, obs::EventKind::kResync, vci_,
              {"believed_bps", believed_},
              {"max_drift_bps", MaxAbsDriftBps()});
  }
  path_->Resync(vci_, believed_, now_seconds, rung_);
  ++stats_.resyncs_sent;
  cells_since_resync_ = 0;
}

double LossyPathRenegotiator::DriftBps(std::size_t hop) const {
  return path_->hop(hop)->TrackedRate(vci_) - believed_;
}

double LossyPathRenegotiator::MaxAbsDriftBps() const {
  double worst = 0;
  for (std::size_t k = 0; k < path_->hop_count(); ++k) {
    worst = std::max(worst, std::abs(DriftBps(k)));
  }
  return worst;
}

}  // namespace rcbr::signaling
