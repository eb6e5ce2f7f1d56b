// Kernel choice inside the DP transform (core/dp_scheduler.cc); internal to
// the scheduler and its tests, not part of the public DP API.
//
// On a whole-number buffer quantum Q the transform of one (epoch, rate)
// can run as a dense step over buffer cells instead of the two-cursor
// Pareto merge; both write the same frontier and parents
// (docs/algorithms.md §1, "Dense step on the whole-number grid"). After
// the floor cell, the dense step visits every input cell from the first
// remaining node up to the last cell at or below the epoch's admissible
// buffer (capped at the last node of either stream), while the merge
// visits every remaining node. The choice depends only on those two
// counts, never on an option.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rcbr::core::dp_internal {

/// Input cells the dense step may visit per remaining node and still beat
/// the merge: the crossover measured on tab1's K = 100 grid (dense, about
/// two thirds of the cells filled) and engine_mbac's set-up solve (sparse).
inline constexpr std::int64_t kDenseCellsPerNode = 2;

/// True when the dense step runs for a rate whose remaining inputs span
/// `cells` buffer cells and hold at most `nodes` nodes across its own run
/// and the global frontier.
constexpr bool TakesDenseStep(std::int64_t cells, std::size_t nodes) {
  return cells <= kDenseCellsPerNode * static_cast<std::int64_t>(nodes);
}

}  // namespace rcbr::core::dp_internal
