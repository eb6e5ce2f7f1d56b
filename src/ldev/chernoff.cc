#include "ldev/chernoff.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace rcbr::ldev {

double ChernoffExponent(const TiltFamily& demand, double c) {
  return LegendreTransform(demand, c);
}

double ChernoffOverflowProbability(const TiltFamily& demand,
                                   std::int64_t n_calls, double capacity) {
  Require(n_calls >= 1, "ChernoffOverflowProbability: need n_calls >= 1");
  Require(capacity >= 0, "ChernoffOverflowProbability: negative capacity");
  const double c = capacity / static_cast<double>(n_calls);
  if (c <= demand.mean()) return 1.0;
  if (c > demand.peak()) return 0.0;
  const double exponent =
      static_cast<double>(n_calls) * ChernoffExponent(demand, c);
  return std::exp(-exponent);
}

double RefinedOverflowProbability(const TiltFamily& demand,
                                  std::int64_t n_calls, double capacity) {
  Require(n_calls >= 1, "RefinedOverflowProbability: need n_calls >= 1");
  Require(capacity >= 0, "RefinedOverflowProbability: negative capacity");
  const double c = capacity / static_cast<double>(n_calls);
  if (c <= demand.mean()) return 1.0;
  if (c >= demand.peak()) {
    // Degenerate tilt: fall back to the bare estimate.
    return ChernoffOverflowProbability(demand, n_calls, capacity);
  }
  const Tilt tilt = TiltingPoint(demand, c);
  if (tilt.s <= 0 || tilt.curvature <= 0) {
    return ChernoffOverflowProbability(demand, n_calls, capacity);
  }
  const double n = static_cast<double>(n_calls);
  const double prefactor =
      tilt.s * std::sqrt(2.0 * 3.14159265358979323846 * n * tilt.curvature);
  return std::min(1.0, std::exp(-n * tilt.rate) / prefactor);
}

std::int64_t MaxAdmissibleCalls(const TiltFamily& demand,
                                double capacity, double target) {
  Require(target > 0 && target < 1, "MaxAdmissibleCalls: target in (0,1)");
  if (ChernoffOverflowProbability(demand, 1, capacity) > target) return 0;
  // Exponential bracketing, then binary search on the largest feasible N.
  std::int64_t lo = 1;  // feasible
  std::int64_t hi = 2;
  while (ChernoffOverflowProbability(demand, hi, capacity) <= target) {
    lo = hi;
    if (hi > (std::int64_t{1} << 40)) break;  // absurdly large; stop
    hi *= 2;
  }
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (ChernoffOverflowProbability(demand, mid, capacity) <= target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace rcbr::ldev
