// Optimal offline renegotiation schedules (Sec. IV-A).
//
// Given the whole workload a_1..a_T (bits per slot), a finite set of rate
// levels, a buffer bound B (eq. 2) or delay bound d (eq. 5), and the cost
// model c = alpha * (#renegotiations) + beta * sum_t r_t (eq. 1), compute
// the cost-minimal stepwise-CBR schedule.
//
// The paper solves this with a Viterbi-like algorithm over a trellis of
// nodes (t, rate, buffer, weight), pruned by the dominance Lemma 1: a path
// ending at (v, b, w) is not optimal if another path ends at (v', b', w')
// with b' <= b and w' <= w (same rate) or w' + alpha <= w (different
// rate). This implementation keeps, per rate level, a Pareto frontier of
// (buffer, weight) pairs — a structure-of-arrays arena of per-rate runs,
// each sorted by buffer ascending with weight strictly descending — and
// realizes the cross-rate pruning by merging each frontier with the
// alpha-shifted global frontier at every step, which yields exactly the
// Lemma-1-pruned node set in O(K * frontier) per slot. On a buffer quantum
// the global frontier is built by grid cell: while the transform writes an
// epoch's nodes, each worker keeps each cell's lightest node, and the next
// epoch merges the workers' cells in rate order and keeps the Pareto ones
// in one sweep. Without a quantum, on a grid far wider than the frontier,
// or where the cells could not hold every node, it is a Pareto fold of the
// sorted per-rate runs in rate order that skips runs the running frontier
// already dominates. Either way the lowest rate wins exact (buffer, weight)
// ties. The per-rate transform is parallelized over the runtime thread
// pool with a rate-major merge order, so results are byte-identical for
// every thread count. The transform
// starts each input at the last of the nodes that the end-of-epoch floor
// clamps onto the lowest end buffer, and on a whole-number buffer quantum
// it shifts a buffer by whole quanta instead of dividing. There, past the
// floor buffer, a rate whose inputs span few cells per node runs as a
// dense step: each buffer cell offers the lighter of the rate's own node
// and the alpha-shifted global envelope (own on an exact tie), and the
// cells where the running minimum strictly drops are the frontier. The
// choice between the dense step and the merge reads only the trellis
// shape. None of these shortcuts changes a frontier or backpointer
// (docs/algorithms.md §1).
//
// Memory is bounded for arbitrarily long traces by streaming the
// backtracking chain in blocks: the frontier is checkpointed every
// `checkpoint_slots`, and when the retained backpointer records exceed
// `max_resident_nodes` the oldest blocks are discarded and recomputed from
// their checkpoint on demand during backtracking (docs/algorithms.md §1).
// A record is stored relative to its epoch, at 1, 2 or 4 bytes.
//
// The delay-bound variant is reduced to a time-varying buffer bound: data
// entering at slot t leaves by slot t + d iff q_u <= A(u) - A(u - d) for
// every u (the bits that arrived in the last d slots), which the same DP
// enforces slot by slot.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "core/schedule.h"
#include "obs/recorder.h"
#include "util/piecewise.h"

namespace rcbr::core {

/// Read-only view of the Lemma-1 frontiers after one epoch, handed to
/// DpOptions::inspect. Test-only surface: lets property tests check the
/// sortedness/dominance invariants and recount the diagnostics without
/// copying scheduler internals. Spans are valid only during the callback.
struct DpFrontierView {
  /// First slot of the epoch just processed.
  std::int64_t first_slot = 0;
  std::size_t num_rates = 0;
  /// Live nodes across all rates after this epoch (Σ per-rate sizes).
  std::size_t live_nodes = 0;
  /// Backtracking records appended so far, including this epoch's.
  std::size_t arena_nodes = 0;

  /// Rate v's frontier buffers, ascending (strictly, within one rate).
  std::span<const double> buffers(std::size_t rate) const {
    return {buf + begin[rate], end[rate] - begin[rate]};
  }
  /// Rate v's frontier weights, strictly descending.
  std::span<const double> weights(std::size_t rate) const {
    return {wgt + begin[rate], end[rate] - begin[rate]};
  }
  /// Rate v's parents: each node's predecessor as an offset among the
  /// previous epoch's live nodes, counted rate-major (all ones in the
  /// first epoch).
  std::span<const std::uint32_t> parents(std::size_t rate) const {
    return {back + begin[rate], end[rate] - begin[rate]};
  }

  // Implementation wiring (SoA slices); use the accessors above.
  const double* buf = nullptr;
  const double* wgt = nullptr;
  const std::uint32_t* back = nullptr;
  const std::uint32_t* begin = nullptr;
  const std::uint32_t* end = nullptr;
};

struct DpOptions {
  /// Allowed service rates, bits per slot, strictly increasing. The paper
  /// uses ~20 uniformly spaced levels (Sec. IV-A).
  std::vector<double> rate_levels;

  /// Buffer bound in bits (eq. 2). With delay_bound_slots >= 0 and a
  /// positive value, *both* constraints are enforced (a real-time source
  /// with a finite buffer); 0 with a delay bound means delay-only.
  double buffer_bits = 0;

  /// Delay bound in slots (eq. 5); negative selects the buffer bound.
  std::int64_t delay_bound_slots = -1;

  /// alpha (per renegotiation) and beta (per bandwidth-slot).
  CostModel cost;

  /// Coalesce buffer states onto a grid of this size (bits). 0 keeps the
  /// exact continuum of reachable states. Quantization rounds occupancy
  /// *up*, so feasibility is conservative and the cost error is bounded by
  /// the extra rate needed to cover one quantum.
  double buffer_quantum_bits = 0;

  /// Renegotiations permitted only every `decision_period` slots (the
  /// buffer bound is still enforced every slot). 1 = every slot boundary.
  std::int64_t decision_period = 1;

  /// Largest buffer occupancy permitted at the end of the session.
  /// Unbounded by default (the cost optimum may leave up to B bits
  /// buffered). Set to 0 when the schedule will be used as a *rotated*
  /// (randomly phased) copy: a drained terminal buffer guarantees the
  /// rotation stays feasible across the wrap seam.
  double final_buffer_bits = std::numeric_limits<double>::infinity();

  /// Worker threads for the per-rate transform (0 =
  /// runtime::HardwareThreads(), 1 = fully sequential). Results are
  /// byte-identical for every value. With threads > 1 a private
  /// runtime::ThreadPool is created for the call.
  std::size_t threads = 1;

  /// Budget of *resident* backtracking records (the working set). The
  /// forward pass checkpoints the frontier every `checkpoint_slots`;
  /// exceeding the budget discards the oldest blocks of backpointers,
  /// which are recomputed from their checkpoint during backtracking.
  /// Memory is therefore bounded for arbitrarily long traces — unlike the
  /// pre-streaming implementation, nothing throws on large trellises.
  /// A record is one parent of 1, 2 or 4 bytes (the narrowest that holds
  /// its epoch's values), so the default budget holds at most 240 MB of
  /// parents. Records sit in 64 KiB pages that never move; a resident
  /// block adds one partly filled page and, per epoch, one run-end offset
  /// per rate level at the epoch's width.
  std::size_t max_resident_nodes = 60'000'000;

  /// Checkpoint cadence in slots. 0 picks a cadence automatically (a few
  /// thousand epochs per block). Smaller values bound the recompute
  /// working set at O(K * frontier * checkpoint_slots) but checkpoint the
  /// frontier more often.
  std::int64_t checkpoint_slots = 0;

  /// Test-only inspection hook: called after every forward-pass epoch
  /// with a view of the pruned frontiers (not during backtracking
  /// recomputes). Adds overhead; leave empty outside tests.
  std::function<void(const DpFrontierView&)> inspect;

  /// Optional observability sink: per-epoch kDpPrune events (time = first
  /// slot of the epoch, id = `obs_id`) comparing candidate nodes against
  /// Lemma-1 survivors, and the "dp.*" counters.
  obs::Recorder* recorder = nullptr;
  /// Identifier stamped into this run's events (e.g. a trace index).
  std::uint64_t obs_id = 0;
};

struct DpResult {
  PiecewiseConstant schedule;
  double optimal_cost = 0;
  /// Diagnostics: widest frontier (live nodes) seen at any slot, and total
  /// nodes retained for backtracking across the whole run (resident or
  /// streamed).
  std::size_t peak_live_nodes = 0;
  std::size_t total_nodes = 0;
  /// Streaming diagnostics: peak backpointer records held in memory at
  /// once, and epochs re-solved during backtracking (0 when everything
  /// stayed resident).
  std::size_t peak_resident_nodes = 0;
  std::int64_t recomputed_epochs = 0;
  /// Peak bytes of resident backtracking records (parents and run ends,
  /// alignment included): deterministic, and the same at every thread
  /// count.
  std::size_t peak_record_bytes = 0;
};

/// Computes the cost-optimal schedule. Throws rcbr::Infeasible when no
/// schedule within the rate set satisfies the bound (e.g. the top rate is
/// below what the buffer requires) and rcbr::InvalidArgument on malformed
/// options (NaN bounds or costs, unsorted rate levels, ...).
DpResult ComputeOptimalSchedule(const std::vector<double>& workload_bits,
                                const DpOptions& options);

/// Convenience: uniformly spaced rate levels covering [0, peak], like the
/// paper's "bandwidth levels chosen uniformly within 48 kb/s and
/// 2.4 Mb/s". Returns `count` levels from `lo` to `hi`.
std::vector<double> UniformRateLevels(double lo, double hi,
                                      std::size_t count);

}  // namespace rcbr::core
