#include "core/gop_heuristic.h"

#include "util/error.h"

namespace rcbr::core {
namespace {

// Memory of the per-position estimators, in GOPs.
constexpr double kTimeConstantGops = 2;

}  // namespace

GopAwareController::GopAwareController(const HeuristicOptions& options,
                                       std::size_t gop_slots)
    : RateController(options) {
  Require(gop_slots >= 1, "GopAwareController: empty GOP");
  // Seed every position's estimate with the initial rate so the first GOP
  // predicts it exactly.
  per_position_.assign(gop_slots, options.initial_rate_bits_per_slot);
}

double GopAwareController::estimate_bits_per_slot() const {
  double sum = 0;
  for (double e : per_position_) sum += e;
  return sum / static_cast<double>(per_position_.size());
}

double GopAwareController::Estimate(double arrival_bits) {
  // Update this position's estimator; each position is visited once per
  // GOP, so a gain of 1/kTimeConstantGops gives the intended memory.
  const double gain = 1.0 / kTimeConstantGops;
  double& slot_estimate = per_position_[phase_];
  slot_estimate = (1.0 - gain) * slot_estimate + gain * arrival_bits;
  phase_ = (phase_ + 1) % per_position_.size();

  // GOP-average plus the buffer-flush feedback of eq. (6).
  return estimate_bits_per_slot() +
         buffer_bits() / options().time_constant_slots;
}

}  // namespace rcbr::core
