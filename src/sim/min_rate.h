// Minimum-rate QoS search (the paper's experimental method, Sec. V-B).
//
// "For each N we do a binary search on c; for each step in the search, we
// do many simulations, where each simulation has a randomized phasing of
// the sources, and compute the average fraction of bits lost ... we repeat
// the simulations until the sample standard deviation of the estimate is
// less than 20% of the estimate."
#pragma once

#include <cstdint>
#include <functional>

#include "util/stats.h"

namespace rcbr::sim {

struct MinRateOptions {
  /// Target loss (or failure) probability the rate must satisfy.
  double target = 1e-6;
  /// Replication stopping rule (paper: 20%).
  double relative_precision = 0.2;
  std::size_t min_replications = 4;
  std::size_t max_replications = 64;
  /// Binary-search tolerance on the rate, relative.
  double rate_tolerance = 0.01;
};

/// Estimates a loss probability at rate `c` by replicating
/// `sample(c, replication_index)` under the paper's stopping rules.
/// Exposed separately so benches can report the estimate itself.
OnlineStats EstimateLoss(
    const std::function<double(double, std::uint64_t)>& sample, double c,
    const MinRateOptions& options);

/// Finds (approximately) the smallest rate c in [lo, hi] whose estimated
/// loss is <= options.target. `sample(c, k)` returns the loss fraction of
/// the k-th randomized replication at rate c. Requires the loss to be
/// nonincreasing in c and the target to be met at hi.
double FindMinRate(const std::function<double(double, std::uint64_t)>& sample,
                   double lo, double hi, const MinRateOptions& options);

}  // namespace rcbr::sim
