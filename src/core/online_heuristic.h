// The paper's causal renegotiation heuristic for interactive sources
// (Sec. IV-B): an AR(1) estimate of the source rate with an extra
// buffer-flush term (eq. 6),
//     r_hat(t) = (1 - 1/T) * r_hat(t-1) + (1/T) * a(t) + q(t)/T,
// fed to the shared quantize-and-trigger rule of rate_controller.h
// (eq. 7-8). This file holds only the estimator.
#pragma once

#include <vector>

#include "core/rate_controller.h"
#include "util/piecewise.h"

namespace rcbr::core {

class OnlineRateController final : public RateController {
 public:
  explicit OnlineRateController(const HeuristicOptions& options)
      : RateController(options),
        estimate_(options.initial_rate_bits_per_slot) {}

  double estimate_bits_per_slot() const { return estimate_; }

 private:
  double Estimate(double arrival_bits) override;

  double estimate_;
};

/// ComputeHeuristicSchedule with a fresh AR(1) controller.
PiecewiseConstant ComputeHeuristicSchedule(
    const std::vector<double>& workload_bits,
    const HeuristicOptions& options);

}  // namespace rcbr::core
