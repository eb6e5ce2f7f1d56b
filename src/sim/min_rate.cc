#include "sim/min_rate.h"

#include "util/error.h"
#include "util/search.h"

namespace rcbr::sim {
namespace {

/// Bisection steps before FindMinRate settles for its bracket.
constexpr int kMaxSearchSteps = 60;

}  // namespace

OnlineStats EstimateLoss(
    const std::function<double(double, std::uint64_t)>& sample, double c,
    const MinRateOptions& options) {
  ReplicationController controller(options.relative_precision,
                                   options.min_replications,
                                   options.max_replications);
  std::uint64_t k = 0;
  while (!controller.Done(options.target)) {
    controller.Add(sample(c, k++));
  }
  return controller.stats();
}

double FindMinRate(const std::function<double(double, std::uint64_t)>& sample,
                   double lo, double hi, const MinRateOptions& options) {
  Require(lo <= hi, "FindMinRate: lo > hi");
  Require(options.target > 0, "FindMinRate: target must be positive");
  auto feasible = [&](double c) {
    const OnlineStats stats = EstimateLoss(sample, c, options);
    return stats.mean() <= options.target;
  };
  SearchOptions search;
  search.relative_tolerance = options.rate_tolerance;
  search.max_iterations = kMaxSearchSteps;
  return MinFeasible(lo, hi, feasible, search);
}

}  // namespace rcbr::sim
