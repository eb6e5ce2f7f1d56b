#include "trace/analysis.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace rcbr::trace {
namespace {

/// Minimum scene length (frames); shorter detections merge forward.
constexpr std::int64_t kMinSceneFrames = 12;

}  // namespace

std::vector<double> Autocorrelation(const FrameTrace& trace,
                                    const std::vector<std::int64_t>& lags) {
  const auto& bits = trace.frame_bits();
  const auto n = static_cast<std::int64_t>(bits.size());
  const double mean = trace.total_bits() / static_cast<double>(n);
  double variance = 0;
  for (double b : bits) {
    variance += (b - mean) * (b - mean);
  }
  std::vector<double> result;
  result.reserve(lags.size());
  for (std::int64_t lag : lags) {
    Require(lag >= 0 && lag < n, "Autocorrelation: lag out of range");
    if (variance == 0) {
      result.push_back(lag == 0 ? 1.0 : 0.0);
      continue;
    }
    double acc = 0;
    for (std::int64_t t = 0; t + lag < n; ++t) {
      acc += (bits[static_cast<std::size_t>(t)] - mean) *
             (bits[static_cast<std::size_t>(t + lag)] - mean);
    }
    result.push_back(acc / variance);
  }
  return result;
}

double IndexOfDispersion(const FrameTrace& trace, std::int64_t window) {
  Require(window >= 1 && window <= trace.frame_count(),
          "IndexOfDispersion: bad window");
  const FrameTrace agg = trace.Aggregate(window);
  const double mean_frame =
      trace.total_bits() / static_cast<double>(trace.frame_count());
  double mean_window = 0;
  for (std::int64_t i = 0; i < agg.frame_count(); ++i) {
    mean_window += agg.bits(i);
  }
  mean_window /= static_cast<double>(agg.frame_count());
  double var = 0;
  for (std::int64_t i = 0; i < agg.frame_count(); ++i) {
    const double d = agg.bits(i) - mean_window;
    var += d * d;
  }
  var /= static_cast<double>(agg.frame_count());
  const double denom = mean_frame * static_cast<double>(window);
  return denom > 0 ? var / denom : 0.0;
}

std::vector<Scene> DetectScenes(const FrameTrace& trace,
                                const SceneDetectorOptions& options) {
  Require(options.smoothing_frames >= 1, "DetectScenes: bad smoothing");
  Require(options.change_ratio > 1.0, "DetectScenes: ratio must exceed 1");
  const auto n = trace.frame_count();

  // Centered moving average (clamped at the edges).
  const std::int64_t w = std::min(options.smoothing_frames, n);
  std::vector<double> smooth(static_cast<std::size_t>(n));
  double acc = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;  // window [lo, hi)
  for (std::int64_t t = 0; t < n; ++t) {
    const std::int64_t want_lo = std::max<std::int64_t>(0, t - w / 2);
    const std::int64_t want_hi = std::min(n, want_lo + w);
    while (hi < want_hi) acc += trace.bits(hi++);
    while (lo < want_lo) acc -= trace.bits(lo++);
    smooth[static_cast<std::size_t>(t)] =
        acc / static_cast<double>(hi - lo);
  }

  std::vector<Scene> scenes;
  std::int64_t start = 0;
  double scene_sum = 0;
  std::int64_t scene_len = 0;
  for (std::int64_t t = 0; t < n; ++t) {
    const double s = smooth[static_cast<std::size_t>(t)];
    if (scene_len >= kMinSceneFrames) {
      const double scene_mean = scene_sum / static_cast<double>(scene_len);
      const bool jump = s > scene_mean * options.change_ratio ||
                        s * options.change_ratio < scene_mean;
      if (jump) {
        scenes.push_back(
            {start, t, trace.WindowRate(start, t)});
        start = t;
        scene_sum = 0;
        scene_len = 0;
      }
    }
    scene_sum += s;
    ++scene_len;
  }
  scenes.push_back({start, n, trace.WindowRate(start, n)});
  return scenes;
}

SceneStats SummarizeScenes(const FrameTrace& trace,
                           const std::vector<Scene>& scenes,
                           double peak_ratio) {
  Require(!scenes.empty(), "SummarizeScenes: no scenes");
  SceneStats stats;
  stats.scene_count = static_cast<std::int64_t>(scenes.size());
  const double mean_rate = trace.mean_rate();
  double total_seconds = 0;
  double peak_seconds = 0;
  for (const Scene& scene : scenes) {
    const double seconds =
        static_cast<double>(scene.frames()) / trace.fps();
    total_seconds += seconds;
    stats.max_scene_seconds = std::max(stats.max_scene_seconds, seconds);
    if (scene.mean_rate_bps > peak_ratio * mean_rate) {
      peak_seconds += seconds;
    }
  }
  stats.mean_scene_seconds =
      total_seconds / static_cast<double>(scenes.size());
  stats.sustained_peak_time_fraction =
      total_seconds > 0 ? peak_seconds / total_seconds : 0.0;
  return stats;
}

std::vector<double> WindowRateDistribution(const FrameTrace& trace,
                                           std::int64_t window) {
  Require(window >= 1 && window <= trace.frame_count(),
          "WindowRateDistribution: bad window");
  std::vector<double> rates;
  for (std::int64_t start = 0; start + window <= trace.frame_count();
       start += window) {
    rates.push_back(trace.WindowRate(start, start + window));
  }
  std::sort(rates.begin(), rates.end());
  return rates;
}

double SustainedPeakRatio(const FrameTrace& trace, std::int64_t window) {
  return trace.MaxWindowRate(window) / trace.mean_rate();
}

}  // namespace rcbr::trace
