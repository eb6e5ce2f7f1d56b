#include "core/rate_controller.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace rcbr::core {

RateController::RateController(const HeuristicOptions& options)
    : options_(options), current_rate_(options.initial_rate_bits_per_slot) {
  Require(options.low_threshold_bits >= 0 &&
              options.high_threshold_bits >= options.low_threshold_bits,
          "RateController: need 0 <= B_l <= B_h");
  Require(options.time_constant_slots >= 1,
          "RateController: time constant must be >= 1 slot");
  Require(options.granularity_bits_per_slot > 0,
          "RateController: granularity must be positive");
  Require(options.initial_rate_bits_per_slot >= 0,
          "RateController: negative initial rate");
  Require(options.max_rate_bits_per_slot > 0,
          "RateController: max rate must be positive");
  Require(options.denial_cooldown_slots >= 0,
          "RateController: negative denial cooldown");
  ctr_renegotiations_ =
      obs::FindCounter(options_.recorder, "heuristic.renegotiations");
}

void RateController::AdoptRecorder(obs::Recorder* recorder,
                                   std::uint64_t obs_id) {
  if (options_.recorder != nullptr) return;
  options_.recorder = recorder;
  options_.obs_id = obs_id;
  ctr_renegotiations_ = obs::FindCounter(recorder, "heuristic.renegotiations");
}

std::optional<double> RateController::Step(double arrival_bits,
                                           double granted_rate) {
  Require(arrival_bits >= 0, "RateController::Step: negative arrival");
  Require(granted_rate >= 0, "RateController::Step: negative rate");

  // Buffer update (eq. 3) against the rate actually granted.
  buffer_ = std::max(buffer_ + arrival_bits - granted_rate, 0.0);

  const double estimate = Estimate(arrival_bits);

  // Quantize up to the Delta grid (eq. 7) so the requested rate covers
  // the estimate, clamped to the source's cap while staying on the grid.
  const double delta = options_.granularity_bits_per_slot;
  const double cap =
      std::floor(options_.max_rate_bits_per_slot / delta) * delta;
  const double quantized = std::min(std::ceil(estimate / delta) * delta, cap);

  // Renegotiation trigger (eq. 8), muted while a denial cooldown runs.
  const bool go_up =
      buffer_ > options_.high_threshold_bits && quantized > current_rate_;
  const bool go_down =
      buffer_ < options_.low_threshold_bits && quantized < current_rate_;
  const bool quiet = slot_ < quiet_until_slot_;
  ++slot_;
  if ((go_up || go_down) && !quiet) {
    current_rate_ = quantized;
    ++renegotiations_;
    if constexpr (obs::kEnabled) {
      if (ctr_renegotiations_ != nullptr) ctr_renegotiations_->Add();
      obs::Emit(options_.recorder, static_cast<double>(slot_ - 1),
                obs::EventKind::kRenegRequest, options_.obs_id,
                {"rate_bits_per_slot", quantized},
                {"buffer_bits", buffer_},
                {"estimate_bits_per_slot", estimate});
    }
    return quantized;
  }
  return std::nullopt;
}

PiecewiseConstant ComputeHeuristicSchedule(
    const std::vector<double>& workload_bits, RateController& controller) {
  Require(!workload_bits.empty(), "ComputeHeuristicSchedule: empty workload");
  double rate = controller.current_rate();
  std::vector<Step> steps;
  steps.push_back({0, rate});
  for (std::size_t t = 0; t < workload_bits.size(); ++t) {
    const std::optional<double> request =
        controller.Step(workload_bits[t], rate);
    if (request.has_value() && *request != rate) {
      rate = *request;
      // The new rate takes effect from the next slot (the request is made
      // after observing slot t).
      const auto next = static_cast<std::int64_t>(t) + 1;
      if (next < static_cast<std::int64_t>(workload_bits.size())) {
        steps.push_back({next, rate});
      }
    }
  }
  return PiecewiseConstant(std::move(steps),
                           static_cast<std::int64_t>(workload_bits.size()));
}

}  // namespace rcbr::core
