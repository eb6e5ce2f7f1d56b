// GOP-aware rate estimator (the paper's suggested improvement, Sec. IV-B:
// "the prediction quality could be improved by taking into account the
// inherent frame structure of MPEG encoded video").
//
// The plain AR(1) estimator of online_heuristic.h sees the I/P/B size
// pattern as noise: every I frame yanks the estimate up, every B frame
// drags it down, so the estimate oscillates within a GOP and the
// controller either renegotiates on frame-type noise or needs a long time
// constant that lags scene changes. This controller instead keeps one
// AR(1) estimator *per position in the GOP* (memory: two GOPs) and
// predicts the sustainable rate as the GOP-average of those estimators —
// the frame-structure periodicity cancels exactly, leaving only the scene
// signal. It adds the same q/T buffer-flush term, over
// HeuristicOptions::time_constant_slots, and shares the rest of the rule
// (quantization, eq. 8 trigger, denial cooldown) with the AR(1)
// controller through RateController, so the two heuristics are comparable
// knob-for-knob.
#pragma once

#include <cstddef>
#include <vector>

#include "core/rate_controller.h"

namespace rcbr::core {

class GopAwareController final : public RateController {
 public:
  /// `gop_slots` is the encoder's GOP length in slots (frames arrive one
  /// per slot, cyclically through the GOP); only the length matters, not
  /// the frame types.
  GopAwareController(const HeuristicOptions& options, std::size_t gop_slots);

  /// The GOP-averaged scene-rate estimate, bits per slot.
  double estimate_bits_per_slot() const;

 private:
  double Estimate(double arrival_bits) override;

  std::vector<double> per_position_;  // one AR estimate per GOP position
  std::size_t phase_ = 0;
};

}  // namespace rcbr::core
