// Cell-level multiplexing of CBR streams (the N*D/D/1 queue).
//
// "Because all traffic entering the network is CBR, RCBR requires minimal
// buffering and scheduling support in switches" — minimal, not zero: N
// periodic cell streams with random phases build a small cell-scale queue
// even though each stream is perfectly smooth. This module quantifies
// that queue (the classic N*D/D/1 model: N sources, one cell each per
// period of D cell slots, unit service), so the "some cell level
// buffering" of Fig. 3(c) can be dimensioned:
//  * SimulateCellMux — Monte Carlo over random phasings;
//  * CellMuxTailBound — a rigorous union-of-Chernoff upper bound on
//    P(Q >= q), tight enough for dimensioning;
//  * CellsForLossTarget — smallest buffer whose bound meets a target.
// The punchline (bench/fig_cell_buffer): tens of cells suffice at 95%
// load — versus the ~300 kb *burst*-scale buffer per source.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/recorder.h"
#include "util/rng.h"

namespace rcbr::sim {

struct CellMuxResult {
  /// distribution[q] = fraction of cell slots with queue length == q.
  std::vector<double> queue_distribution;
  double mean_queue_cells = 0;
  std::int64_t max_queue_cells = 0;

  /// Empirical P(Q >= q).
  double Tail(std::int64_t q) const;
};

/// Simulates `n_streams` periodic streams (one cell per `period` slots,
/// i.i.d. uniform phases redrawn each replication) through a unit-rate
/// server for `replications` periods. Requires n_streams <= period
/// (utilization <= 1). With a recorder, counts "cellmux.replications"
/// and "cellmux.measured_slots".
CellMuxResult SimulateCellMux(std::int64_t n_streams, std::int64_t period,
                              std::int64_t replications, Rng& rng,
                              obs::Recorder* recorder = nullptr);

/// Rigorous upper bound on the stationary P(Q >= q) of the N*D/D/1 queue:
/// a union bound over window sizes w of the binomial tail
/// P(Bin(N, w/D) >= w + q). Returns a value possibly > 1 for tiny q.
double CellMuxTailBound(std::int64_t n_streams, std::int64_t period,
                        std::int64_t q_cells);

/// Smallest buffer (cells) whose tail bound is <= `loss_target`.
std::int64_t CellsForLossTarget(std::int64_t n_streams, std::int64_t period,
                                double loss_target);

}  // namespace rcbr::sim
