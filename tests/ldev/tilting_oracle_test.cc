// The tilting-point solve and the rate function against a long-double
// reference: bisection run to convergence, then I(a) in centered form.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <iomanip>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "ldev/mgf.h"
#include "util/error.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace rcbr::ldev {
namespace {

struct Reference {
  long double s = 0;
  long double rate = 0;
};

/// Solves Lambda'(s) = a for the law with `weights` on `values` in long
/// double. Sums are centered on the mean while s (peak - mean) is small
/// enough for long double's range and factored about the peak beyond.
Reference SolveReference(const std::vector<double>& values,
                         const std::vector<double>& weights, double a) {
  long double total = 0;
  long double first = 0;
  long double peak = -std::numeric_limits<long double>::infinity();
  for (std::size_t j = 0; j < values.size(); ++j) {
    if (weights[j] == 0) continue;
    total += weights[j];
    first += static_cast<long double>(weights[j]) * values[j];
    peak = std::max(peak, static_cast<long double>(values[j]));
  }
  const long double mean = first / total;
  const long double spread = peak - mean;
  const long double rise = a - mean;
  const auto centered = [&](long double s) { return s * spread < 10000; };
  const auto excess = [&](long double s) {
    long double num = 0;
    long double den = 0;
    for (std::size_t j = 0; j < values.size(); ++j) {
      if (weights[j] == 0) continue;
      const long double d = values[j] - mean;
      const long double e =
          std::exp(s * (centered(s) ? d : values[j] - peak));
      num += weights[j] * d * e;
      den += weights[j] * e;
    }
    return num / den - rise;
  };
  long double lo = 0;
  long double hi = 1 / spread;
  while (excess(hi) < 0) hi *= 2;
  while (hi - lo > 1e-18L * hi) {
    const long double mid = (lo + hi) / 2;
    (excess(mid) < 0 ? lo : hi) = mid;
  }
  const long double s = (lo + hi) / 2;
  long double sum = 0;
  for (std::size_t j = 0; j < values.size(); ++j) {
    if (weights[j] == 0) continue;
    sum += weights[j] / total *
           (centered(s) ? std::expm1(s * (values[j] - mean))
                        : std::exp(s * (values[j] - peak)));
  }
  const long double rate = centered(s)
                               ? s * rise - std::log1p(sum)
                               : s * (a - peak) - std::log(sum);
  return {s, rate};
}

double RelativeError(double value, long double reference) {
  return static_cast<double>(std::abs((value - reference) / reference));
}

enum class Region { kNearMean, kMidRange, kNearPeak };

/// Where a sits in (mean, peak), as the fraction f of the way up: log-
/// uniform in [1e-7, 1e-1] near the mean, uniform mid-range, and 1 - f
/// near the peak.
double DrawFraction(Rng& rng, Region region) {
  const double log_uniform =
      std::exp(rng.Uniform(std::log(1e-7), std::log(1e-1)));
  switch (region) {
    case Region::kNearMean:
      return log_uniform;
    case Region::kMidRange:
      return rng.Uniform();
    case Region::kNearPeak:
      return 1 - log_uniform;
  }
  return 0;
}

/// Random 2-41-level grids from 0 to 2.56 Mb/s or to 1, every third with
/// masses spread over eight decades, about a fifth of the levels left
/// empty. Records the worst relative errors in s* and I(a).
void ExpectMatchesReference(Region region, std::uint64_t seed) {
  Rng rng(seed);
  double worst_s = 0;
  double worst_rate = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const auto levels = static_cast<std::size_t>(rng.UniformInt(2, 41));
    const std::vector<double> values =
        UniformGrid(0.0, trial % 2 == 0 ? 2.56e6 : 1.0, levels);
    std::vector<double> weights(levels);
    std::size_t occupied = 0;
    for (double& w : weights) {
      w = trial % 3 == 0 ? std::exp(rng.Uniform(-18.0, 0.0)) : rng.Uniform();
      if (rng.Bernoulli(0.2)) w = 0;
      if (w > 0) ++occupied;
    }
    if (occupied < 2) {
      weights.front() = 0.5;
      weights.back() = 0.5;
    }
    const TiltFamily family(values, weights);
    const double f = DrawFraction(rng, region);
    const double a = family.mean() + (family.peak() - family.mean()) * f;
    if (!(a > family.mean() && a < family.peak())) continue;
    const Tilt tilt = TiltingPoint(family, a);
    const Reference reference = SolveReference(values, weights, a);
    const double s_error = RelativeError(tilt.s, reference.s);
    const double rate_error = RelativeError(tilt.rate, reference.rate);
    EXPECT_LE(s_error, 1e-8) << "trial " << trial << " f " << f;
    EXPECT_LE(rate_error, 1e-8) << "trial " << trial << " f " << f;
    EXPECT_DOUBLE_EQ(LegendreTransform(family, a), tilt.rate);
    worst_s = std::max(worst_s, s_error);
    worst_rate = std::max(worst_rate, rate_error);
  }
  std::ostringstream worst;
  worst << std::scientific << std::setprecision(2) << "s* " << worst_s
        << ", I " << worst_rate;
  ::testing::Test::RecordProperty("worst_relative_error", worst.str());
}

TEST(TiltingPoint, MatchesReferenceNearTheMean) {
  ExpectMatchesReference(Region::kNearMean, 101);
}

TEST(TiltingPoint, MatchesReferenceMidRange) {
  ExpectMatchesReference(Region::kMidRange, 102);
}

TEST(TiltingPoint, MatchesReferenceNearThePeak) {
  ExpectMatchesReference(Region::kNearPeak, 103);
}

TEST(TiltingPoint, SolvesTheTiltEquation) {
  const std::vector<double> values = {1.0, 2.0, 7.0};
  const std::vector<double> weights = {0.2, 0.5, 0.3};
  const DiscreteDistribution d(values, weights);
  for (double a : {3.5, 4.0, 5.5, 6.5}) {
    const Tilt tilt = TiltingPoint(d, a);
    const Reference reference = SolveReference(values, weights, a);
    EXPECT_LE(RelativeError(tilt.s, reference.s), 1e-12) << "a=" << a;
    EXPECT_LE(RelativeError(tilt.rate, reference.rate), 1e-12) << "a=" << a;
    EXPECT_NEAR(d.LogMgfDerivative(tilt.s), a, 1e-12 * a) << "a=" << a;
    EXPECT_NEAR(d.LogMgfSecondDerivative(tilt.s), tilt.curvature,
                1e-9 * tilt.curvature)
        << "a=" << a;
  }
  EXPECT_THROW(TiltingPoint(d, 3.0), InvalidArgument);  // below mean 3.3
  EXPECT_THROW(TiltingPoint(d, 7.0), InvalidArgument);  // at the max
}

TEST(TiltingPoint, KeepsAnExactRoot) {
  // RefinedOverflow.MonotoneInCapacity's demand at its per-call capacities.
  // Along the way some passes evaluate Lambda'(s) - a to exactly 0. Were
  // such an s made an end of the bracket, the zero step would fall back to
  // bisection and discard the root.
  const std::vector<double> values = {1e6, 4e6};
  const std::vector<double> weights = {0.8, 0.2};
  const DiscreteDistribution demand(values, weights);
  for (double a = 1.7e6; a <= 3.9e6; a += 0.2e6) {
    const Tilt tilt = TiltingPoint(demand, a);
    const Reference reference = SolveReference(values, weights, a);
    EXPECT_LE(RelativeError(tilt.s, reference.s), 1e-13) << "a=" << a;
    EXPECT_LE(RelativeError(tilt.rate, reference.rate), 1e-13) << "a=" << a;
  }
}

TEST(TiltFamily, ReadsUnnormalizedMassInPlace) {
  // A histogram's raw mass and its normalized probabilities describe one
  // law; empty levels lie outside the support.
  const std::vector<double> values = {0.0, 1.0, 2.0, 3.0, 4.0};
  const std::vector<double> mass = {0.0, 6.0, 3.0, 1.0, 0.0};
  const std::vector<double> probabilities = {0.0, 0.6, 0.3, 0.1, 0.0};
  const TiltFamily raw(values, mass);
  const TiltFamily normalized(values, probabilities);
  EXPECT_DOUBLE_EQ(raw.mean(), 1.5);
  EXPECT_DOUBLE_EQ(raw.peak(), 3.0);
  EXPECT_DOUBLE_EQ(raw.peak_probability(), 0.1);
  EXPECT_NEAR(TiltingPoint(raw, 2.5).s, TiltingPoint(normalized, 2.5).s,
              1e-14);
  EXPECT_THROW(TiltFamily(values, std::vector<double>(5, 0.0)),
               InvalidArgument);
  EXPECT_THROW(TiltFamily(values, std::vector<double>(4, 1.0)),
               InvalidArgument);
  EXPECT_THROW(TiltFamily(values, std::vector<double>{1, -1, 1, 1, 1}),
               InvalidArgument);
}

}  // namespace
}  // namespace rcbr::ldev
