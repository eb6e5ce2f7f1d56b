// Brute-force reference for the optimal-schedule DP: enumerate every
// reachable (rate, buffer) state per decision epoch with no Lemma-1
// pruning and no transition-coefficient shortcuts — each candidate
// transition replays the slot-by-slot Lindley recursion. Exponential in
// the worst case; use only on small differential-test instances.
//
// Semantics mirror ComputeOptimalSchedule exactly: per-slot buffer bound
// (constant or delay-window), an initially empty buffer, alpha charged
// per rate switch (the first epoch's rate is free), beta per
// bandwidth-slot, occupancy quantized upward once per epoch, terminal
// states filtered by final_buffer_bits.
//
// Mirrored up to floating-point rounding: the scheduler composes an epoch
// as max(b + (P - r·slots), floor), while this replay steps it slot by
// slot. For arrivals that are not binary fractions the two can round
// apart, and the upward quantization then lands a quantum apart. On a
// quantum-1 instance with arrivals in tenths, the scheduler ends an epoch
// at 4 + (3.8 + 0.2 - 6) = 2, this replay at 4.8000000000000007 and then
// 2.0000000000000009, which quantizes to 3: ReferenceScheduleCost calls
// the DP's optimal schedule infeasible, and on another instance
// ReferenceOptimalCost found 96 against the DP's 92. Brute-force
// differential tests therefore use exactly representable arrivals (whole
// numbers, quarters); see docs/algorithms.md, "Buffer-state quantization".
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/dp_scheduler.h"

namespace rcbr::core::reference {

/// The per-slot buffer bound: constant B, or the delay-window bound.
inline std::vector<double> ReferenceBound(const std::vector<double>& workload,
                                          const DpOptions& options) {
  const auto total = static_cast<std::int64_t>(workload.size());
  std::vector<double> bound(workload.size());
  if (options.delay_bound_slots >= 0) {
    const double hard =
        options.buffer_bits > 0 ? options.buffer_bits
                                : std::numeric_limits<double>::infinity();
    double window = 0;
    for (std::int64_t t = 0; t < total; ++t) {
      window += workload[static_cast<std::size_t>(t)];
      if (t - options.delay_bound_slots >= 0) {
        window -=
            workload[static_cast<std::size_t>(t - options.delay_bound_slots)];
      }
      bound[static_cast<std::size_t>(t)] = std::min(window, hard);
    }
  } else {
    std::fill(bound.begin(), bound.end(), options.buffer_bits);
  }
  return bound;
}

/// Occupancy rounded up onto the buffer_quantum_bits grid.
inline double ReferenceQuantizeUp(double b, const DpOptions& options) {
  const double quantum = options.buffer_quantum_bits;
  if (quantum <= 0 || b <= 0) return b;
  return std::ceil(b / quantum) * quantum;
}

/// Returns the optimal cost, or nullopt when no schedule is feasible.
inline std::optional<double> ReferenceOptimalCost(
    const std::vector<double>& workload, const DpOptions& options) {
  const auto total = static_cast<std::int64_t>(workload.size());
  const std::int64_t period = options.decision_period;
  const std::size_t num_rates = options.rate_levels.size();
  const double alpha = options.cost.per_renegotiation;
  const double beta = options.cost.per_bandwidth;

  const std::vector<double> bound = ReferenceBound(workload, options);

  // (last rate, buffer) -> cheapest cost; num_rates = "no rate yet".
  std::map<std::pair<std::size_t, double>, double> states;
  states[{num_rates, 0.0}] = 0.0;
  bool first = true;
  for (std::int64_t t0 = 0; t0 < total; t0 += period) {
    const std::int64_t slots = std::min(period, total - t0);
    std::map<std::pair<std::size_t, double>, double> next;
    for (const auto& [key, weight] : states) {
      for (std::size_t v = 0; v < num_rates; ++v) {
        const double switch_cost = !first && key.first != v ? alpha : 0.0;
        double q = key.second;
        bool feasible = true;
        for (std::int64_t s = 0; s < slots; ++s) {
          q = std::max(
              q + workload[static_cast<std::size_t>(t0 + s)] -
                  options.rate_levels[v],
              0.0);
          if (q > bound[static_cast<std::size_t>(t0 + s)] + 1e-9) {
            feasible = false;
            break;
          }
        }
        if (!feasible) continue;
        const double cost = weight + switch_cost +
                            beta * options.rate_levels[v] *
                                static_cast<double>(slots);
        const std::pair<std::size_t, double> state{
            v, ReferenceQuantizeUp(q, options)};
        const auto it = next.find(state);
        if (it == next.end() || cost < it->second) next[state] = cost;
      }
    }
    states.swap(next);
    first = false;
    if (states.empty()) return std::nullopt;
  }

  std::optional<double> best;
  for (const auto& [key, weight] : states) {
    if (key.second > options.final_buffer_bits + 1e-9) continue;
    if (!best.has_value() || weight < *best) best = weight;
  }
  return best;
}

/// Prices `schedule` (one rate per decision epoch) under the same
/// semantics, or nullopt when it overflows the bound or ends above
/// final_buffer_bits.
inline std::optional<double> ReferenceScheduleCost(
    const std::vector<double>& workload, const DpOptions& options,
    const PiecewiseConstant& schedule) {
  const auto total = static_cast<std::int64_t>(workload.size());
  const std::vector<double> bound = ReferenceBound(workload, options);
  double cost = 0;
  double q = 0;
  for (std::int64_t t0 = 0; t0 < total; t0 += options.decision_period) {
    const std::int64_t slots = std::min(options.decision_period, total - t0);
    const double rate = schedule.At(t0);
    for (std::int64_t t = t0; t < t0 + slots; ++t) {
      if (schedule.At(t) != rate) return std::nullopt;  // not epoch-wise
      q = std::max(q + workload[static_cast<std::size_t>(t)] - rate, 0.0);
      if (q > bound[static_cast<std::size_t>(t)] + 1e-9) return std::nullopt;
    }
    const double switch_cost = schedule.ChangesAt(t0)
                                   ? options.cost.per_renegotiation
                                   : 0.0;
    cost = cost + switch_cost +
           options.cost.per_bandwidth * rate * static_cast<double>(slots);
    q = ReferenceQuantizeUp(q, options);
  }
  if (q > options.final_buffer_bits + 1e-9) return std::nullopt;
  return cost;
}

/// Width, in bytes, of an epoch's backtracking records whose largest
/// value is `largest`: the narrowest of 1, 2 or 4 whose all-ones value
/// (the no-parent sentinel) exceeds it.
inline std::size_t ReferenceRecordWidth(std::size_t largest) {
  if (largest < 0xffu) return 1;
  if (largest < 0xffffu) return 2;
  return 4;
}

/// Record bytes of each streaming block of `block_epochs` epochs, where
/// epoch e keeps `live[e]` survivors (docs/algorithms.md §1). An epoch
/// stores its K run ends (largest: its survivor count) and one parent per
/// survivor (below the previous epoch's count, or the checkpoint's in a
/// block's first epoch) at the epoch's width, from a byte of its block
/// aligned to that width.
inline std::vector<std::size_t> ReferenceBlockRecordBytes(
    const std::vector<std::size_t>& live, std::size_t num_rates,
    std::size_t block_epochs) {
  std::vector<std::size_t> blocks;
  for (std::size_t e = 0; e < live.size(); ++e) {
    if (e % block_epochs == 0) blocks.push_back(0);
    const std::size_t previous = e == 0 ? 0 : live[e - 1];
    const std::size_t width = ReferenceRecordWidth(std::max(live[e], previous));
    std::size_t& bytes = blocks.back();
    bytes = (bytes + width - 1) / width * width + (num_rates + live[e]) * width;
  }
  return blocks;
}

}  // namespace rcbr::core::reference
