// Trace analyzer: "is my video multiple-time-scale traffic, and what
// would RCBR buy me?"
//
// Reads a trace file (one frame size per line, `# fps:` header optional)
// or synthesizes a catalog genre, then prints the full diagnosis the
// paper's argument is built on:
//   1. first-order statistics and the sustained-peak measurement (Sec. II),
//   2. scene decomposition and time-scale separation (Sec. V-A),
//   3. the (sigma, rho) cost of a one-shot descriptor (Fig. 5 samples),
//   4. a fitted multiple-time-scale model and its equivalent bandwidth,
//   5. the RCBR schedule for a 300 kb buffer and what it saves.
//
// Usage:
//   trace_analyzer                     # analyze the bundled synthesizer
//   trace_analyzer <file>              # analyze a trace file
//   trace_analyzer --genre=sportscast  # analyze a catalog genre
// An unknown flag, a second input, an unknown genre or an unreadable
// trace file prints a message and exits with status 2.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/dp_scheduler.h"
#include "core/efficiency_solver.h"
#include "core/playback.h"
#include "core/schedule.h"
#include "ldev/equivalent_bandwidth.h"
#include "markov/fitting.h"
#include "trace/analysis.h"
#include "trace/catalog.h"
#include "trace/star_wars.h"
#include "trace/trace_io.h"
#include "util/error.h"
#include "util/units.h"

namespace {

[[noreturn]] void Fail(const char* argv0, const std::string& message) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s [<trace-file> | --genre=NAME]\n",
               argv0, message.c_str(), argv0);
  std::exit(2);
}

rcbr::trace::FrameTrace LoadTrace(int argc, char** argv) {
  using namespace rcbr::trace;
  const char* argv0 = argc > 0 ? argv[0] : "trace_analyzer";
  std::vector<std::string> inputs;
  const char* genre = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--genre=", 8) == 0) {
      genre = argv[i] + 8;
    } else if (argv[i][0] == '-') {
      Fail(argv0, std::string("unknown argument '") + argv[i] + "'");
    } else {
      inputs.emplace_back(argv[i]);
    }
  }
  if (inputs.size() + (genre != nullptr ? 1 : 0) > 1) {
    Fail(argv0, "give at most one trace file or --genre");
  }
  if (genre != nullptr) {
    std::string names;
    for (Genre g : AllGenres()) {
      if (GenreName(g) == genre) return MakeGenreTrace(g, 2026, 28800);
      names += (names.empty() ? "" : ", ") + GenreName(g);
    }
    Fail(argv0, std::string("unknown genre '") + genre + "' (one of: " +
                    names + ")");
  }
  if (!inputs.empty()) {
    try {
      return ReadTraceFile(inputs.front());
    } catch (const rcbr::Error& e) {
      Fail(argv0, e.what());
    }
  }
  return MakeStarWarsTrace(2026, 28800);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rcbr;
  const trace::FrameTrace movie = LoadTrace(argc, argv);
  const double mean = movie.mean_rate();
  const auto w10s = static_cast<std::int64_t>(10 * movie.fps());

  std::printf("== stream ==\n");
  std::printf("frames %lld  fps %.1f  duration %.1f s\n",
              static_cast<long long>(movie.frame_count()), movie.fps(),
              movie.duration_seconds());
  std::printf("mean %.0f kb/s  instantaneous peak %.0f kb/s (%.1fx)\n",
              mean / kKbps, movie.peak_rate() / kKbps,
              movie.peak_rate() / mean);
  std::printf("sustained 10 s peak: %.2fx mean\n",
              trace::SustainedPeakRatio(movie, w10s));

  std::printf("\n== time scales ==\n");
  const auto acf = trace::Autocorrelation(
      movie, {1, 12, static_cast<std::int64_t>(movie.fps()),
              static_cast<std::int64_t>(10 * movie.fps())});
  std::printf("autocorrelation: lag 1 frame %.2f, 1 GOP %.2f, 1 s %.2f, "
              "10 s %.2f\n",
              acf[0], acf[1], acf[2], acf[3]);
  std::printf("index of dispersion: GOP window %.1f, 10 s window %.1f\n",
              trace::IndexOfDispersion(movie, 12),
              trace::IndexOfDispersion(movie, w10s));
  const auto scenes = trace::DetectScenes(movie);
  const trace::SceneStats scene_stats =
      trace::SummarizeScenes(movie, scenes, 3.0);
  std::printf("scenes: %lld (mean %.1f s, longest %.1f s), %.1f%% of time "
              "in >3x-mean scenes\n",
              static_cast<long long>(scene_stats.scene_count),
              scene_stats.mean_scene_seconds, scene_stats.max_scene_seconds,
              100.0 * scene_stats.sustained_peak_time_fraction);

  std::printf("\n== one-shot descriptor cost (sigma, rho) ==\n");
  for (double sigma_kb : {300.0, 3000.0, 30000.0}) {
    const double rho = core::MinRateForLoss(
        movie.frame_bits(), sigma_kb * kKilobit, 1e-6, 1e-3) *
                       movie.fps();
    std::printf("buffer %8.0f kb -> CBR rate %7.0f kb/s (%.2fx mean)\n",
                sigma_kb, rho / kKbps, rho / mean);
  }

  std::printf("\n== fitted multiple-time-scale model ==\n");
  try {
    const markov::FittedModel fitted = markov::FitMultiTimescale(movie);
    std::printf("levels (kb/s):");
    for (std::size_t k = 0; k < fitted.level_bits_per_slot.size(); ++k) {
      std::printf(" %.0f (%.0f%%)",
                  fitted.level_bits_per_slot[k] * movie.fps() / kKbps,
                  100.0 * fitted.occupancy[k]);
    }
    std::printf("\nscene-change probability per frame: %.2e\n",
                fitted.epsilon);
    const double theta = ldev::QosExponent(300 * kKilobit, 1e-6);
    std::printf("model equivalent bandwidth @300kb/1e-6: %.0f kb/s\n",
                ldev::MultiTimescaleEquivalentBandwidth(fitted.source,
                                                        theta) *
                    movie.fps() / kKbps);
  } catch (const Error& e) {
    std::printf("(model fit unavailable: %s)\n", e.what());
  }

  std::printf("\n== RCBR schedule (300 kb buffer) ==\n");
  core::DpOptions options;
  const double top =
      std::max(2560.0 * kKilobit, 1.2 * movie.peak_rate());
  for (int k = 0; k <= 40; ++k) {
    options.rate_levels.push_back(top / 40.0 / movie.fps() *
                                  static_cast<double>(k));
  }
  options.buffer_bits = 300 * kKilobit;
  options.cost = {1.0, 1.0 / movie.fps()};
  options.buffer_quantum_bits = 2 * kKilobit;
  options.decision_period = 6;
  core::EfficiencyTarget target;
  target.min_efficiency = 0.95;
  try {
    const core::DpResult dp =
        core::SolveForEfficiency(movie.frame_bits(), options, target);
    const core::ScheduleMetrics m = core::EvaluateSchedule(
        movie.frame_bits(), dp.schedule, options.buffer_bits,
        movie.slot_seconds(), options.cost);
    const double cbr = core::MinRateForLoss(movie.frame_bits(),
                                            options.buffer_bits, 1e-6,
                                            1e-3) *
                       movie.fps();
    std::printf("renegotiate every %.1f s -> mean reservation %.0f kb/s "
                "(efficiency %.1f%%)\n",
                m.mean_interval_seconds,
                dp.schedule.Mean() * movie.fps() / kKbps,
                100.0 * m.bandwidth_efficiency);
    std::printf("a one-shot CBR at the same buffer needs %.0f kb/s: RCBR "
                "saves %.0f%%\n",
                cbr / kKbps,
                100.0 * (1.0 - dp.schedule.Mean() * movie.fps() / cbr));
    const core::PlaybackAnalysis playback =
        core::AnalyzePlayback(movie.frame_bits(), dp.schedule);
    std::printf("stored-video startup delay: %.2f s, client buffer "
                "%.0f kb\n",
                static_cast<double>(playback.min_startup_slots) /
                    movie.fps(),
                playback.client_buffer_bits / kKilobit);
  } catch (const Error& e) {
    std::printf("(scheduling failed: %s)\n", e.what());
  }
  return 0;
}
