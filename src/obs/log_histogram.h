// Log-bucketed (HDR-style) histograms for span latencies.
//
// Span durations range over many decades (a lossless renegotiation round
// trip is microseconds of sim time; a fallback dwell can be minutes), so
// fixed-grid histograms either blur the tail or explode in buckets.
// LogHistogram buckets every positive value into one of kSubBuckets
// logarithmic sub-buckets per power of two — a bounded ~12.5% relative
// error at 8 sub-buckets — with exact min/max kept on the side so the
// extreme quantiles stay exact.
//
// Determinism contract: the bucket of a value is a pure function of its
// bits (frexp arithmetic, no floating-point accumulation), bucket counts
// are integers, and Merge adds counts — so merging per-point histograms
// in point-index order yields bit-identical snapshots for every thread
// count, and bucket-count merges are exactly associative. (The `sum`
// convenience field is a float accumulation and shares only the sweep
// engine's fixed-merge-order guarantee.)
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace rcbr::obs {

/// Value-type snapshot of a log-bucketed histogram. `buckets` holds
/// (bucket key, count) pairs sorted by key; keys decode to value bounds
/// via LogHistogram::BucketLowerBound / BucketUpperBound.
struct LogHistogramValue {
  /// Values recorded into buckets + `underflow`.
  std::int64_t count = 0;
  /// Recorded values that were <= 0 or non-finite (no log bucket).
  std::int64_t underflow = 0;
  double min = 0;
  double max = 0;
  double sum = 0;
  std::vector<std::pair<std::int32_t, std::int64_t>> buckets;

  bool empty() const { return count == 0; }

  /// Folds `other` in (bucket counts add, min/max extend). Associative
  /// and commutative in everything except the float `sum`.
  void Merge(const LogHistogramValue& other);

  /// Smallest value v such that at least ceil(q * count) recorded values
  /// fall in buckets at or below v's bucket. Conservative: within a
  /// bucket the upper bound is returned, clamped to [min, max], so
  /// Quantile(0) == min and Quantile(1) == max exactly. Underflow mass
  /// sits below every bucket and resolves to `min`. q is clamped to
  /// [0, 1]; an empty histogram returns 0.
  double Quantile(double q) const;
};

/// A log-bucketed histogram. Not thread-safe (like rcbr::Histogram); the
/// thread-safe instrument wrapper lives in obs/metrics.h.
class LogHistogram {
 public:
  /// Sub-buckets per power of two: bucket boundaries are
  /// 2^(e-1) * (1 + k/kSubBuckets), all exactly representable.
  static constexpr std::int32_t kSubBuckets = 8;

  /// The bucket key of `value`; requires value > 0 and finite.
  static std::int32_t BucketKey(double value);
  /// Inclusive lower / exclusive upper value bound of bucket `key`.
  static double BucketLowerBound(std::int32_t key);
  static double BucketUpperBound(std::int32_t key);

  /// Records `n` observations of `value`. Non-positive and non-finite
  /// values land in the underflow count (they have no log bucket).
  void Record(double value, std::int64_t n = 1);

  std::int64_t count() const { return count_; }
  double Quantile(double q) const { return value().Quantile(q); }

  LogHistogramValue value() const;

  /// Adds `other`'s mass; exactly associative in the bucket counts.
  void Merge(const LogHistogram& other);

 private:
  std::map<std::int32_t, std::int64_t> buckets_;
  std::int64_t count_ = 0;
  std::int64_t underflow_ = 0;
  double min_ = 0;
  double max_ = 0;
  double sum_ = 0;
};

}  // namespace rcbr::obs
