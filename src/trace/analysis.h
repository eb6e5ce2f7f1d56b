// Trace analysis: the measurements behind the paper's premise.
//
// Section II rests on measured properties of compressed video: burstiness
// at the frame scale, correlation persisting across seconds (the "multiple
// time scales"), and sustained near-peak scenes. These helpers quantify
// exactly those properties for any FrameTrace, so users can check whether
// their own material is multiple-time-scale traffic (and whether RCBR is
// worth it) before computing schedules.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/frame_trace.h"

namespace rcbr::trace {

/// Sample autocorrelation of per-frame sizes at the given lags.
/// Returns one coefficient in [-1, 1] per lag; lag 0 is always 1.
std::vector<double> Autocorrelation(const FrameTrace& trace,
                                    const std::vector<std::int64_t>& lags);

/// Index of dispersion for counts over windows of `window` frames:
/// Var(window bits) / (mean frame bits * window). Grows with the window
/// for long-range-correlated traffic, flat for i.i.d. frames.
double IndexOfDispersion(const FrameTrace& trace, std::int64_t window);

/// A detected scene: [start, end) frames whose smoothed rate stays on one
/// side of the detector's change threshold.
struct Scene {
  std::int64_t start = 0;
  std::int64_t end = 0;
  /// Mean rate inside the scene, bits/second.
  double mean_rate_bps = 0;

  std::int64_t frames() const { return end - start; }
};

struct SceneDetectorOptions {
  /// Smoothing window (frames) applied before change detection; should
  /// cover at least one GOP so frame-type structure does not trigger.
  std::int64_t smoothing_frames = 24;
  /// A new scene starts when the smoothed rate deviates from the current
  /// scene's running mean by more than this factor.
  double change_ratio = 1.5;
};

/// Splits the trace into scenes by detecting sustained rate changes.
std::vector<Scene> DetectScenes(const FrameTrace& trace,
                                const SceneDetectorOptions& options = {});

/// Summary statistics of a scene decomposition.
struct SceneStats {
  std::int64_t scene_count = 0;
  double mean_scene_seconds = 0;
  double max_scene_seconds = 0;
  /// Fraction of total playing time spent in scenes whose mean rate
  /// exceeds `peak_ratio` times the trace mean (the "sustained peak"
  /// time share of Sec. II).
  double sustained_peak_time_fraction = 0;
};
SceneStats SummarizeScenes(const FrameTrace& trace,
                           const std::vector<Scene>& scenes,
                           double peak_ratio = 3.0);

/// Empirical distribution of the rate averaged over `window` frames:
/// sorted per-window rates (bits/s), one entry per non-overlapping window.
std::vector<double> WindowRateDistribution(const FrameTrace& trace,
                                           std::int64_t window);

/// The largest factor by which the trace's rate over any `window`-frame
/// interval exceeds its long-term mean — the paper's "sustained peak of
/// five times the long-term average rate" measurement.
double SustainedPeakRatio(const FrameTrace& trace, std::int64_t window);

}  // namespace rcbr::trace
