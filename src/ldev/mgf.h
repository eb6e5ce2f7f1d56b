// Log moment generating functions and Legendre transforms.
//
// Section V-A builds the slow-time-scale loss estimate from the log-MGF of
// the "scene rate" random variable (value m_k with probability pi_k) and
// its Legendre transform I = Lambda^*. These are the shared numeric
// primitives; chernoff.h applies them to admission control.
#pragma once

#include <span>
#include <vector>

namespace rcbr::ldev {

/// A finite discrete distribution: value v_j with probability p_j.
/// Probabilities must be nonnegative and sum to 1 (within tolerance).
class DiscreteDistribution {
 public:
  DiscreteDistribution(std::vector<double> values,
                       std::vector<double> probabilities);

  const std::vector<double>& values() const { return values_; }
  const std::vector<double>& probabilities() const { return probs_; }
  std::size_t size() const { return values_.size(); }

  double Mean() const;
  double Min() const;
  double Max() const;

  /// Log-MGF Lambda(s) = log sum_j p_j exp(s v_j), overflow-safe.
  double LogMgf(double s) const;

  /// Derivative Lambda'(s) (the tilted mean).
  double LogMgfDerivative(double s) const;

  /// Second derivative Lambda''(s) (the tilted variance).
  double LogMgfSecondDerivative(double s) const;

 private:
  std::vector<double> values_;
  std::vector<double> probs_;
};

class TiltFamily;

/// The solution of Lambda'(s) = a, with the rate and the tilted variance
/// read off the solve's last pass.
struct Tilt {
  double s = 0;          ///< the tilting point s*
  double rate = 0;       ///< I(a) = s* a - Lambda(s*)
  double curvature = 0;  ///< Lambda''(s*), the tilted variance
};

/// The tilting parameter s* solving Lambda'(s*) = a, for a strictly
/// between the mean and the peak. Safeguarded Newton inside a bracket
/// [0, hi] set from the support's extremes, so no pass is spent probing
/// for it; each pass yields Lambda' and Lambda'' together and the
/// solve stops on a relative step of 1e-13. I(a) is formed in centered
/// form, s (a - mean) - log1p(sum_j p_j expm1(s (v_j - mean))), while
/// s (peak - mean) <= 1 and a sits nearer the mean than the peak, and
/// factored about the peak (overflow-safe) otherwise.
Tilt TiltingPoint(const TiltFamily& family, double a);

/// The exponentially tilted laws p_j e^{s v_j} / M(s) of a finite discrete
/// distribution, with the support's total, mean, variance and peak taken
/// at construction.
///
/// A family reads the values and weights in place: it neither copies nor
/// allocates, and both arrays must outlive it. Weights are nonnegative
/// masses with a positive total and need not be normalized, so a
/// histogram's accumulated mass serves as is; levels of zero weight lie
/// outside the support.
class TiltFamily {
 public:
  TiltFamily(std::span<const double> values, std::span<const double> weights);

  /// Views `dist`'s arrays; implicit, so every entry point taking a family
  /// takes a DiscreteDistribution too. A family viewing a temporary
  /// distribution must not outlive it: pass it straight to the entry point.
  TiltFamily(const DiscreteDistribution& dist);

  double mean() const { return peak_ + mean_minus_peak_; }
  double peak() const { return peak_; }
  /// P(X = peak).
  double peak_probability() const { return peak_weight_ / total_; }

  /// Lambda(s) with its first two derivatives: the log-MGF, the tilted mean
  /// and the tilted variance, from one overflow-safe pass.
  struct Moments {
    double log_mgf = 0;
    double slope = 0;
    double curvature = 0;
  };
  Moments At(double s) const;

 private:
  friend Tilt TiltingPoint(const TiltFamily& family, double a);

  /// Weighted sums over the support with x_j = (v_j - peak) - shift,
  /// e_j = expm1(s x_j) (centered) or exp(s x_j), y_j = (v_j - peak) - at:
  /// m0 = sum w e, m1 = sum w x e, m2 = sum w y^2 (1 + e_j or e_j).
  struct Sums {
    double m0 = 0;
    double m1 = 0;
    double m2 = 0;
  };
  template <bool kCentered>
  Sums Accumulate(double s, double shift, double at) const;

  std::span<const double> values_;
  std::span<const double> weights_;
  double total_ = 0;
  double min_ = 0;
  double peak_ = 0;
  double peak_weight_ = 0;
  double below_peak_ = 0;       // the next support value down from the peak
  double mean_minus_peak_ = 0;  // summed from the peak, so exact near it
  double variance_ = 0;
};

/// Legendre transform I(a) = sup_{s >= 0} [ s a - Lambda(s) ].
///
/// This is the one-sided (upper-tail) rate function used by the Chernoff
/// estimates: it is 0 for a <= mean, finite and increasing on
/// (mean, max), -log P(X = max) at the maximum value, and +infinity
/// (returned as `infinity_value`) beyond it.
double LegendreTransform(const TiltFamily& family, double a,
                         double infinity_value = 1e300);

}  // namespace rcbr::ldev
