#include "sim/cell_mux.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace rcbr::sim {

double CellMuxResult::Tail(std::int64_t q) const {
  if (q <= 0) return 1.0;
  double tail = 0;
  for (std::size_t i = static_cast<std::size_t>(q);
       i < queue_distribution.size(); ++i) {
    tail += queue_distribution[i];
  }
  return tail;
}

CellMuxResult SimulateCellMux(std::int64_t n_streams, std::int64_t period,
                              std::int64_t replications, Rng& rng,
                              obs::Recorder* recorder) {
  Require(n_streams >= 1, "SimulateCellMux: need at least one stream");
  Require(period >= n_streams,
          "SimulateCellMux: utilization must be <= 1 (period >= streams)");
  Require(replications >= 1, "SimulateCellMux: need replications");

  std::vector<double> histogram;
  double queue_sum = 0;
  std::int64_t samples = 0;
  std::int64_t max_queue = 0;
  std::vector<std::int64_t> arrivals(static_cast<std::size_t>(period));
  for (std::int64_t rep = 0; rep < replications; ++rep) {
    std::fill(arrivals.begin(), arrivals.end(), 0);
    for (std::int64_t s = 0; s < n_streams; ++s) {
      ++arrivals[static_cast<std::size_t>(rng.UniformInt(0, period - 1))];
    }
    // Two passes over the period: the first warms the queue to its
    // periodic steady state (the pattern repeats every period), the
    // second is measured.
    std::int64_t queue = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::int64_t t = 0; t < period; ++t) {
        queue += arrivals[static_cast<std::size_t>(t)];
        if (queue > 0) --queue;  // unit service per cell slot
        if (pass == 1) {
          if (static_cast<std::size_t>(queue) >= histogram.size()) {
            histogram.resize(static_cast<std::size_t>(queue) + 1, 0.0);
          }
          ++histogram[static_cast<std::size_t>(queue)];
          queue_sum += static_cast<double>(queue);
          ++samples;
          max_queue = std::max(max_queue, queue);
        }
      }
    }
  }
  CellMuxResult result;
  for (double& h : histogram) h /= static_cast<double>(samples);
  result.queue_distribution = std::move(histogram);
  result.mean_queue_cells = queue_sum / static_cast<double>(samples);
  result.max_queue_cells = max_queue;
  if constexpr (obs::kEnabled) {
    obs::Count(recorder, "cellmux.replications", replications);
    obs::Count(recorder, "cellmux.measured_slots", samples);
  }
  return result;
}

namespace {

/// log P(Bin(n, p) >= k) upper bound via the Chernoff/KL form; exact 0
/// when k > n.
double LogBinomialTailBound(std::int64_t n, double p, std::int64_t k) {
  if (k <= 0) return 0.0;  // log 1
  if (k > n) return -1e300;
  const double a = static_cast<double>(k) / static_cast<double>(n);
  if (a <= p) return 0.0;
  // KL(a || p) = a ln(a/p) + (1-a) ln((1-a)/(1-p)).
  double kl = a * std::log(a / p);
  if (a < 1.0) kl += (1.0 - a) * std::log((1.0 - a) / (1.0 - p));
  return -static_cast<double>(n) * kl;
}

}  // namespace

double CellMuxTailBound(std::int64_t n_streams, std::int64_t period,
                        std::int64_t q_cells) {
  Require(n_streams >= 1 && period >= n_streams,
          "CellMuxTailBound: need 1 <= streams <= period");
  if (q_cells <= 0) return 1.0;
  // Q >= q implies some window of w slots received at least w + q cells.
  double total = 0;
  for (std::int64_t w = 1; w <= period; ++w) {
    const double p = static_cast<double>(w) / static_cast<double>(period);
    total += std::exp(
        LogBinomialTailBound(n_streams, p, w + q_cells));
  }
  return std::min(total, 1.0);
}

std::int64_t CellsForLossTarget(std::int64_t n_streams, std::int64_t period,
                                double loss_target) {
  Require(loss_target > 0 && loss_target < 1,
          "CellsForLossTarget: target in (0,1)");
  for (std::int64_t q = 1; q <= n_streams; ++q) {
    if (CellMuxTailBound(n_streams, period, q) <= loss_target) return q;
  }
  return n_streams;  // Q can never exceed N in an N*D/D/1 queue
}

}  // namespace rcbr::sim
