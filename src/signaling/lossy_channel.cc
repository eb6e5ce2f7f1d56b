#include "signaling/lossy_channel.h"

#include <cmath>

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

bool DrawCellLoss(const LossyChannelOptions& options, Rng& rng,
                  std::uint64_t vci, double delta_bps, std::size_t hop,
                  double now_seconds) {
  if (!rng.Bernoulli(EffectiveLossProbability(options))) return false;
  if constexpr (obs::kEnabled) {
    obs::Count(options.recorder, "signaling.cells_lost");
    obs::Emit(options.recorder, now_seconds, obs::EventKind::kRmCellLoss, vci,
              {"delta_bps", delta_bps}, {"hop", static_cast<double>(hop)});
  }
  return true;
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
  for (std::size_t k = 0; k < path->hop_count(); ++k) {
    Require(path->hop(k)->tracks_connections(),
            "LossyPathRenegotiator: every hop must track connections "
            "(resync repair)");
  }
  ValidateChannelOptions(options);
  Require(initial_rate_bps >= 0, "LossyPathRenegotiator: negative rate");
}

bool LossyPathRenegotiator::Renegotiate(double new_rate_bps,
                                        double now_seconds) {
  Require(new_rate_bps >= 0, "LossyPathRenegotiator: negative rate");
  const double delta = new_rate_bps - believed_;
  ++cells_since_resync_;
  // Rollback cells ride the same lossy channel. The unacked source sees
  // no loss; the drift it leaves lasts until the next resync.
  const auto lost = [&](std::size_t hop, double cell_delta_bps) {
    const bool dropped =
        DrawCellLoss(options_, *rng_, vci_, cell_delta_bps, hop, now_seconds);
    stats_.cells_lost += dropped;
    return dropped;
  };
  const bool accepted =
      path_->WalkDelta(vci_, delta, now_seconds, rung_,
                       [&](std::size_t k) { return lost(k, delta); },
                       [&](std::size_t j) { return lost(j, -delta); })
          .end != DeltaWalk::End::kDenied;
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

}  // namespace rcbr::signaling
