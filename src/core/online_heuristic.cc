#include "core/online_heuristic.h"

namespace rcbr::core {

double OnlineRateController::Estimate(double arrival_bits) {
  // AR(1) estimator with the buffer-flush term (eq. 6).
  const double t_const = options().time_constant_slots;
  estimate_ = (1.0 - 1.0 / t_const) * estimate_ +
              (1.0 / t_const) * arrival_bits + buffer_bits() / t_const;
  return estimate_;
}

PiecewiseConstant ComputeHeuristicSchedule(
    const std::vector<double>& workload_bits,
    const HeuristicOptions& options) {
  OnlineRateController controller(options);
  return ComputeHeuristicSchedule(workload_bits, controller);
}

}  // namespace rcbr::core
