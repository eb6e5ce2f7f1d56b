#include "ldev/mgf.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace rcbr::ldev {

namespace {

constexpr double kProbTolerance = 1e-9;

// The solve stops once a Newton step moves s by at most this fraction.
constexpr double kRelativeStep = 1e-13;

// Safeguarded Newton converges in a handful of passes; the cap only bounds
// a pathological input, where bisection still halves the bracket.
constexpr int kMaxPasses = 100;

}  // namespace

DiscreteDistribution::DiscreteDistribution(std::vector<double> values,
                                           std::vector<double> probabilities)
    : values_(std::move(values)), probs_(std::move(probabilities)) {
  Require(!values_.empty(), "DiscreteDistribution: empty support");
  Require(values_.size() == probs_.size(),
          "DiscreteDistribution: size mismatch");
  double total = 0;
  for (double p : probs_) {
    Require(p >= 0, "DiscreteDistribution: negative probability");
    total += p;
  }
  Require(std::abs(total - 1.0) <= kProbTolerance,
          "DiscreteDistribution: probabilities must sum to 1");
}

double DiscreteDistribution::Mean() const {
  double mean = 0;
  for (std::size_t j = 0; j < values_.size(); ++j) {
    mean += values_[j] * probs_[j];
  }
  return mean;
}

double DiscreteDistribution::Min() const {
  bool seen = false;
  double m = 0;
  for (std::size_t j = 0; j < values_.size(); ++j) {
    if (probs_[j] > 0 && (!seen || values_[j] < m)) {
      m = values_[j];
      seen = true;
    }
  }
  return seen ? m : values_.front();
}

double DiscreteDistribution::Max() const {
  bool seen = false;
  double m = 0;
  for (std::size_t j = 0; j < values_.size(); ++j) {
    if (probs_[j] > 0 && (!seen || values_[j] > m)) {
      m = values_[j];
      seen = true;
    }
  }
  return seen ? m : values_.front();
}

double DiscreteDistribution::LogMgf(double s) const {
  return TiltFamily(*this).At(s).log_mgf;
}

double DiscreteDistribution::LogMgfDerivative(double s) const {
  return TiltFamily(*this).At(s).slope;
}

double DiscreteDistribution::LogMgfSecondDerivative(double s) const {
  return TiltFamily(*this).At(s).curvature;
}

TiltFamily::TiltFamily(const DiscreteDistribution& dist)
    : TiltFamily(dist.values(), dist.probabilities()) {}

TiltFamily::TiltFamily(std::span<const double> values,
                       std::span<const double> weights)
    : values_(values), weights_(weights) {
  Require(values.size() == weights.size(), "TiltFamily: size mismatch");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  min_ = kInf;
  peak_ = -kInf;
  below_peak_ = -kInf;
  for (std::size_t j = 0; j < values.size(); ++j) {
    const double w = weights[j];
    Require(w >= 0, "TiltFamily: negative weight");
    if (w == 0) continue;
    const double v = values[j];
    total_ += w;
    min_ = std::min(min_, v);
    if (v > peak_) {
      below_peak_ = peak_;
      peak_ = v;
      peak_weight_ = w;
    } else if (v == peak_) {
      peak_weight_ += w;
    } else {
      below_peak_ = std::max(below_peak_, v);
    }
  }
  Require(total_ > 0, "TiltFamily: no positive weight");
  // Moments about the peak: every term of the first has one sign, so the
  // mean's distance below the peak carries no cancellation.
  double first = 0;
  double second = 0;
  for (std::size_t j = 0; j < values.size(); ++j) {
    const double w = weights[j];
    if (w == 0) continue;
    const double x = values[j] - peak_;
    first += w * x;
    second += w * x * x;
  }
  mean_minus_peak_ = first / total_;
  variance_ = second / total_ - mean_minus_peak_ * mean_minus_peak_;
}

template <bool kCentered>
TiltFamily::Sums TiltFamily::Accumulate(double s, double shift,
                                        double at) const {
  Sums sums;
  for (std::size_t j = 0; j < values_.size(); ++j) {
    const double w = weights_[j];
    if (w == 0) continue;
    const double from_peak = values_[j] - peak_;
    const double x = from_peak - shift;
    const double e = kCentered ? std::expm1(s * x) : std::exp(s * x);
    const double y = from_peak - at;
    sums.m0 += w * e;
    sums.m1 += w * x * e;
    sums.m2 += w * y * y * (kCentered ? 1 + e : e);
  }
  return sums;
}

TiltFamily::Moments TiltFamily::At(double s) const {
  // Factor out the dominant exponent: the peak's for s >= 0, the minimum's
  // below.
  const double shift = s >= 0 ? 0.0 : min_ - peak_;
  const Sums sums = Accumulate<false>(s, shift, shift);
  const double tilted = sums.m1 / sums.m0;  // tilted mean minus the shift
  return {s * (peak_ + shift) + std::log(sums.m0 / total_),
          peak_ + shift + tilted, sums.m2 / sums.m0 - tilted * tilted};
}

Tilt TiltingPoint(const TiltFamily& family, double a) {
  const TiltFamily& f = family;
  Require(a > f.mean() && a < f.peak_,
          "TiltingPoint: a must lie strictly between mean and max");
  const double spread = -f.mean_minus_peak_;             // peak - mean
  const double rise = (a - f.peak_) - f.mean_minus_peak_;  // a - mean
  const double gap = f.peak_ - a;
  if (!(rise > 0)) return {0.0, 0.0, f.variance_};  // a rounds to the mean

  // Bracket: the tilted mass at the peak is at least
  // q = w_peak e^{s d} / (w_peak e^{s d} + total - w_peak), d the distance
  // down to the next support value, and the tilted mean at least
  // min + q (peak - min), which reaches a once q / (1 - q) equals
  // (a - min) / (peak - a). That s is exact for two support values; the
  // bracket doubles it against rounding.
  const double bound =
      std::log((a - f.min_) * (f.total_ - f.peak_weight_) /
               (gap * f.peak_weight_)) /
      (f.peak_ - f.below_peak_);
  double lo = 0.0;
  double hi = bound > 0 ? 2 * bound
                        : std::numeric_limits<double>::infinity();

  // Nearer the peak than the mean, Lambda' flattens as it approaches the
  // peak, and Newton on the tilted gap log(peak - Lambda'(s)), nearly
  // linear in s there, replaces Newton on Lambda'. Each starts from its
  // own first step from s = 0, the gap's capped at the bound.
  const bool upper = gap < rise;
  double s = upper ? std::min(bound, std::log(spread / gap) * spread /
                                         f.variance_)
                   : rise / f.variance_;
  if (!(s > lo && s < hi)) s = std::isinf(hi) ? 1 / spread : hi / 2;
  double last_move = std::numeric_limits<double>::infinity();
  double move_before = last_move;
  Tilt tilt;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    // Near the mean I ~ s^2 var / 2, and only sums centered on the mean
    // keep its digits. Sums factored about the peak cannot overflow and
    // read the tilted gap without cancellation.
    const bool centered = !upper && s * spread <= 1;
    const TiltFamily::Sums sums =
        centered ? f.Accumulate<true>(s, f.mean_minus_peak_, -gap)
                 : f.Accumulate<false>(s, 0.0, -gap);
    const double mass = centered ? f.total_ + sums.m0 : sums.m0;
    const double excess =  // Lambda'(s) - a
        centered ? sums.m1 / mass - rise : gap + sums.m1 / mass;
    const double tilted_gap =  // peak - Lambda'(s)
        centered ? gap - excess : -sums.m1 / mass;
    tilt.s = s;
    tilt.rate = centered ? s * rise - std::log1p(sums.m0 / f.total_)
                         : -s * gap - std::log(mass / f.total_);
    tilt.curvature = sums.m2 / mass - excess * excess;
    // An exact root returns at once: the bracket update would make s an
    // end of the bracket, and the step of 0 would fall back to bisection.
    if (excess == 0) return tilt;
    (excess < 0 ? lo : hi) = s;
    const double step =
        upper ? std::log(tilted_gap / gap) * tilted_gap / tilt.curvature
              : -excess / tilt.curvature;
    if (std::abs(step) <= kRelativeStep * s ||
        hi - lo <= kRelativeStep * lo) {
      return tilt;
    }
    // Bisect when Newton leaves the bracket or fails to halve the move
    // before last.
    double next = s + step;
    if (!(next > lo && next < hi) ||
        std::abs(step) > 0.5 * std::abs(move_before)) {
      next = std::isinf(hi) ? 2 * s : (lo + hi) / 2;
    }
    move_before = last_move;
    last_move = next - s;
    s = next;
  }
  return tilt;
}

double LegendreTransform(const TiltFamily& family, double a,
                         double infinity_value) {
  if (a <= family.mean()) return 0.0;  // sup attained at s = 0
  if (a > family.peak()) return infinity_value;
  if (a == family.peak()) return -std::log(family.peak_probability());
  return TiltingPoint(family, a).rate;
}

}  // namespace rcbr::ldev
