// Ablation: RM-cell loss, drift, and periodic absolute-rate resync
// (Sec. III-B, footnote 2). For each (cell loss probability, resync
// period) pair, a source renegotiates through a lossy channel to a single
// port (a 1-hop signaling path) for the length of a movie's schedule; we
// report the mean and max absolute drift between the port's and the
// source's view of the reserved rate.
#include <cmath>
#include <vector>

#include "experiment_lib.h"
#include "signaling/lossy_channel.h"
#include "signaling/path.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace rcbr;
  const bench::Args args = bench::ParseArgs(argc, argv);
  const trace::FrameTrace movie = bench::MakeTrace(args, 14400);
  const bench::MbacSetup setup(movie);
  const auto& steps = setup.profile.rates_bps.steps();

  bench::PrintPreamble(
      "ablation_resync",
      {"RM-cell loss drift vs resync period (Sec. III-B footnote 2)",
       "the source replays its movie schedule 20x through a lossy "
       "channel; drift in kb/s between port and source views",
       "resync 0 = never (drift is unbounded in the loss rate); small "
       "periods bound it near zero"},
      {"loss_prob", "resync_every", "mean_drift_kbps", "max_drift_kbps",
       "resyncs"});

  for (double loss : {0.001, 0.01, 0.05}) {
    for (std::int64_t resync_every : {0, 100, 10}) {
      signaling::PortController port(1e12);
      const double initial = steps.front().value;
      port.AdmitConnection(1, initial);
      Rng rng(args.seed + 41);
      signaling::LossyChannelOptions options;
      options.cell_loss_probability = loss;
      options.resync_every_cells = resync_every;
      signaling::SignalingPath path({&port}, 0.0);
      signaling::LossyPathRenegotiator source(&path, 1, initial, options,
                                              &rng);
      double drift_sum = 0;
      double drift_max = 0;
      std::int64_t samples = 0;
      for (int replay = 0; replay < 20; ++replay) {
        for (std::size_t i = 1; i < steps.size(); ++i) {
          source.Renegotiate(steps[i].value,
                             replay * setup.profile.duration_seconds() +
                                 steps[i].start * setup.profile.slot_seconds);
          const double drift = std::abs(source.DriftBps(0));
          drift_sum += drift;
          drift_max = std::max(drift_max, drift);
          ++samples;
        }
      }
      bench::PrintRow({loss, static_cast<double>(resync_every),
                       drift_sum / static_cast<double>(samples) / 1e3,
                       drift_max / 1e3,
                       static_cast<double>(source.stats().resyncs_sent)});
    }
  }
  return 0;
}
