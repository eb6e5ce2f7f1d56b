// Property tests for the DP trellis frontiers, via the test-only
// DpOptions::inspect hook:
//  - every per-rate frontier is Pareto-sorted (buffers strictly
//    ascending, weights strictly descending) — equivalently, no node
//    dominates another within a rate;
//  - each epoch's frontier equals an independently reconstructed Pareto
//    merge of the same-rate candidates and the alpha-shifted cross-rate
//    global frontier (the Lemma-1 pruning rule), bit-for-bit;
//  - the peak_live_nodes / total_nodes diagnostics match a recount;
//  - results are byte-identical across worker-thread counts;
//  - exact (buffer, weight) ties resolve as they do without the
//    scheduler's dominance skips, to the same schedule;
//  - the grid-indexed cross-rate frontier equals the rate-order fold;
//  - the dense step on whole-number grids writes the merge's frontiers and
//    parents, ties included.
#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dp_dense_step.h"
#include "core/dp_scheduler.h"
#include "dp_reference.h"
#include "util/error.h"
#include "util/rng.h"

namespace rcbr::core {
namespace {

struct Node {
  double buffer = 0;
  double weight = 0;
};

void PushPareto(std::vector<Node>& out, const Node& node) {
  if (!out.empty()) {
    const Node& back = out.back();
    if (node.buffer == back.buffer) {
      if (node.weight >= back.weight) return;
      out.pop_back();
    } else if (node.weight >= back.weight) {
      return;
    }
  }
  out.push_back(node);
}

// Merges two buffer-sorted Pareto lists, preferring `a` on exact ties —
// the production merge preference.
std::vector<Node> MergePareto(const std::vector<Node>& a,
                              const std::vector<Node>& b) {
  std::vector<Node> out;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const bool take_a =
        j >= b.size() ||
        (i < a.size() && (a[i].buffer < b[j].buffer ||
                          (a[i].buffer == b[j].buffer &&
                           a[i].weight <= b[j].weight)));
    PushPareto(out, take_a ? a[i++] : b[j++]);
  }
  return out;
}

/// Independently replays one epoch of the Lemma-1 recursion from the
/// previous frontiers, with the production implementation's exact
/// floating-point expression structure, and checks the frontier view.
class EpochReconstructor {
 public:
  EpochReconstructor(const std::vector<double>& workload,
                     const DpOptions& options)
      : workload_(workload), options_(options) {
    bound_.resize(workload.size());
    if (options.delay_bound_slots >= 0) {
      const double hard =
          options.buffer_bits > 0 ? options.buffer_bits
                                  : std::numeric_limits<double>::infinity();
      double window = 0;
      for (std::size_t t = 0; t < workload.size(); ++t) {
        window += workload[t];
        const auto d = static_cast<std::size_t>(options.delay_bound_slots);
        if (t >= d) window -= workload[t - d];
        bound_[t] = std::min(window, hard);
      }
    } else {
      std::fill(bound_.begin(), bound_.end(), options.buffer_bits);
    }
  }

  void Check(const DpFrontierView& view) {
    const auto total = static_cast<std::int64_t>(workload_.size());
    const std::int64_t slots =
        std::min(options_.decision_period, total - view.first_slot);
    const double alpha = options_.cost.per_renegotiation;
    const double quantum = options_.buffer_quantum_bits;
    const auto quantize_up = [quantum](double b) {
      if (quantum <= 0 || b <= 0) return b;
      return std::ceil(b / quantum) * quantum;
    };

    // Cross-rate global frontier of the previous epoch, folded in rate
    // order (lowest rate wins ties).
    std::vector<Node> global;
    for (const std::vector<Node>& f : prev_) global = MergePareto(global, f);

    std::vector<std::vector<Node>> now(view.num_rates);
    for (std::size_t v = 0; v < view.num_rates; ++v) {
      const double rate = options_.rate_levels[v];
      bool feasible = true;
      double prefix = 0;
      double lindley_empty = 0;
      double b_max = std::numeric_limits<double>::infinity();
      for (std::int64_t s = 0; s < slots; ++s) {
        const auto t = static_cast<std::size_t>(view.first_slot + s);
        prefix += workload_[t];
        lindley_empty = std::max(lindley_empty + workload_[t] - rate, 0.0);
        if (lindley_empty > bound_[t]) {
          feasible = false;
          break;
        }
        b_max = std::min(b_max,
                         bound_[t] - prefix + rate * static_cast<double>(s + 1));
      }
      if (!feasible) continue;
      const double shift = prefix - rate * static_cast<double>(slots);
      const double cost_add = options_.cost.per_bandwidth * rate *
                              static_cast<double>(slots);
      const auto transform = [&](const std::vector<Node>& src,
                                 double extra) {
        std::vector<Node> dst;
        for (const Node& n : src) {
          if (n.buffer > b_max + 1e-9) break;
          PushPareto(dst,
                     {quantize_up(std::max(n.buffer + shift, lindley_empty)),
                      n.weight + cost_add + extra});
        }
        return dst;
      };
      if (view.first_slot == 0) {
        now[v] = transform({{0.0, 0.0}}, 0.0);
      } else {
        now[v] = MergePareto(transform(prev_[v], 0.0),
                             transform(global, alpha));
      }
    }

    std::size_t live = 0;
    for (std::size_t v = 0; v < view.num_rates; ++v) {
      const auto buffers = view.buffers(v);
      const auto weights = view.weights(v);
      ASSERT_EQ(buffers.size(), now[v].size()) << "rate " << v;
      for (std::size_t i = 0; i < buffers.size(); ++i) {
        EXPECT_EQ(buffers[i], now[v][i].buffer) << "rate " << v;
        EXPECT_EQ(weights[i], now[v][i].weight) << "rate " << v;
        if (i > 0) {
          // Strict Pareto order = no same-rate dominance.
          EXPECT_LT(buffers[i - 1], buffers[i]);
          EXPECT_GT(weights[i - 1], weights[i]);
        }
      }
      live += buffers.size();
    }
    EXPECT_EQ(view.live_nodes, live);
    prev_ = std::move(now);
  }

 private:
  const std::vector<double>& workload_;
  const DpOptions& options_;
  std::vector<double> bound_;
  std::vector<std::vector<Node>> prev_;
};

DpOptions RandomOptions(Rng& rng, int trial) {
  DpOptions options;
  const int k = 2 + static_cast<int>(rng.Uniform(0.0, 5.0));
  options.rate_levels =
      UniformRateLevels(0.0, 3.0 + rng.Uniform(0.0, 9.0), k);
  options.buffer_bits = rng.Uniform(4.0, 40.0);
  options.cost = {rng.Uniform(0.0, 5.0), rng.Uniform(0.1, 2.0)};
  if (trial % 4 == 1) options.buffer_quantum_bits = rng.Uniform(0.2, 2.0);
  if (trial % 5 == 2) {
    options.decision_period =
        1 + static_cast<std::int64_t>(rng.Uniform(0.0, 4.0));
  }
  if (trial % 3 == 0) {
    options.delay_bound_slots =
        static_cast<std::int64_t>(rng.Uniform(0.0, 6.0));
  }
  return options;
}

TEST(DpProperty, FrontiersMatchReconstructedLemma1Recursion) {
  Rng rng(4711);
  int checked_epochs = 0;
  for (int trial = 0; trial < 30; ++trial) {
    DpOptions options = RandomOptions(rng, trial);
    const int slots = 10 + static_cast<int>(rng.Uniform(0.0, 40.0));
    std::vector<double> workload(static_cast<std::size_t>(slots));
    for (double& a : workload) a = rng.Uniform(0.0, 10.0);

    EpochReconstructor reconstructor(workload, options);
    std::size_t peak = 0;
    std::size_t total = 0;
    options.inspect = [&](const DpFrontierView& view) {
      reconstructor.Check(view);
      peak = std::max(peak, view.live_nodes);
      total += view.live_nodes;
      EXPECT_EQ(view.arena_nodes, total);
      ++checked_epochs;
    };
    try {
      const DpResult result = ComputeOptimalSchedule(workload, options);
      EXPECT_EQ(result.peak_live_nodes, peak) << "trial " << trial;
      EXPECT_EQ(result.total_nodes, total) << "trial " << trial;
    } catch (const Infeasible&) {
      // Epochs inspected before the dead end are still verified.
    }
  }
  EXPECT_GT(checked_epochs, 200);
}

TEST(DpProperty, ByteIdenticalAcrossThreadCounts) {
  Rng rng(1213);
  for (int trial = 0; trial < 8; ++trial) {
    DpOptions options = RandomOptions(rng, trial);
    const int slots = 30 + static_cast<int>(rng.Uniform(0.0, 60.0));
    std::vector<double> workload(static_cast<std::size_t>(slots));
    for (double& a : workload) a = rng.Uniform(0.0, 10.0);

    std::vector<DpResult> results;
    bool infeasible = false;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      options.threads = threads;
      try {
        results.push_back(ComputeOptimalSchedule(workload, options));
      } catch (const Infeasible&) {
        infeasible = true;
      }
    }
    if (infeasible) {
      EXPECT_TRUE(results.empty()) << "trial " << trial;
      continue;
    }
    ASSERT_EQ(results.size(), 3u);
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].optimal_cost, results[0].optimal_cost)
          << "trial " << trial;
      EXPECT_EQ(results[i].peak_live_nodes, results[0].peak_live_nodes);
      EXPECT_EQ(results[i].total_nodes, results[0].total_nodes);
      EXPECT_TRUE(results[i].schedule == results[0].schedule)
          << "trial " << trial;
    }
  }
}

// The scheduler skips merging a run or transforming a node that the
// running frontier already dominates. A skip must not change which node
// survives an exact (buffer, weight) tie, or backtracking returns another,
// equally cheap schedule. ReplayWithoutSkips folds every run, transforms
// each input list whole without collapsing equal end buffers, and merges
// by the production's two-cursor rule, under the per-slot bound of
// either variant. It keeps each node's predecessor and counts the ties it
// resolves.
struct TracedNode {
  double buffer = 0;
  double weight = 0;
  std::size_t from_rate = 0;   // predecessor's rate, one epoch earlier
  std::size_t from_index = 0;  // and its index in that rate's frontier
};

// The production push rule: drop a node at or above the running weight
// minimum, replace the last node on an equal buffer.
void PushTraced(std::vector<TracedNode>& out, const TracedNode& node) {
  if (!out.empty()) {
    if (node.weight >= out.back().weight) return;
    if (node.buffer == out.back().buffer) {
      out.back() = node;
      return;
    }
  }
  out.push_back(node);
}

// Two-cursor merge preferring `a` on exact ties; counts those ties.
std::vector<TracedNode> MergeTraced(const std::vector<TracedNode>& a,
                                    const std::vector<TracedNode>& b,
                                    int& ties) {
  std::vector<TracedNode> out;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    bool take_a = j >= b.size();
    if (!take_a && i < a.size()) {
      const bool same_buffer = a[i].buffer == b[j].buffer;
      ties += same_buffer && a[i].weight == b[j].weight;
      take_a = a[i].buffer < b[j].buffer ||
               (same_buffer && a[i].weight <= b[j].weight);
    }
    PushTraced(out, take_a ? a[i++] : b[j++]);
  }
  return out;
}

struct UnskippedSolve {
  std::optional<PiecewiseConstant> schedule;  // nullopt: infeasible
  double cost = 0;
  int cross_rate_ties = 0;   // in the global fold
  int own_global_ties = 0;   // between a rate and the alpha-shifted global
  // Merges whose floor buffer (the clamped end buffer) holds nodes of both
  // streams, the lightest of each at one weight.
  int floor_ties = 0;
  // Merges on an integer quantum Q, by whether shift/Q lies more than
  // 1e-6 from an integer.
  int off_grid_shifts = 0;
  int near_grid_shifts = 0;
  // Merges the scheduler runs as its dense step (DenseStepTaken), and
  // among them: surviving nodes above the floor buffer that both streams
  // offered at one weight from different predecessors, floor ties as
  // above (from different predecessors), and unclamped inputs that land
  // on the floor buffer.
  int dense_steps = 0;
  int dense_ties = 0;
  int dense_floor_ties = 0;
  int dense_unclamped_on_floor = 0;
  // Every epoch's frontiers, each node with its predecessor.
  std::vector<std::vector<std::vector<TracedNode>>> epochs;
};

/// Weight of the last node of `list` on `buffer`, if any.
std::optional<double> LightestOn(const std::vector<TracedNode>& list,
                                 double buffer) {
  std::optional<double> weight;
  for (const TracedNode& node : list) {
    if (node.buffer == buffer) weight = node.weight;
  }
  return weight;
}

using Frontiers = std::vector<std::vector<TracedNode>>;

/// Whether the scheduler builds the cross-rate frontier of `frontiers` by
/// grid cell: every buffer is double(m)·Q for m = b·(1/Q) rounded, and the
/// cells from the lowest to the highest buffer number at most
/// 4·live + 64.
bool GridBuilt(const Frontiers& frontiers, double quantum) {
  if (quantum <= 0) return false;
  const double inv_q = 1.0 / quantum;
  const auto cell_of = [inv_q](double b) {
    return static_cast<std::int64_t>(b * inv_q + 0.5);
  };
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  std::size_t live = 0;
  for (const std::vector<TracedNode>& run : frontiers) {
    for (const TracedNode& node : run) {
      if (static_cast<double>(cell_of(node.buffer)) * quantum != node.buffer) {
        return false;
      }
      lo = std::min(lo, node.buffer);
      hi = std::max(hi, node.buffer);
    }
    live += run.size();
  }
  if (live == 0) return false;
  const auto cells = static_cast<std::size_t>(cell_of(hi) - cell_of(lo) + 1);
  return cells <= 4 * live + 64;
}

/// Whether the scheduler transforms rate input `own` against the global
/// frontier `global` by its dense step (docs/algorithms.md §1, "Dense step
/// on the whole-number grid"), restated: a whole-number quantum whose
/// shift passes the near-integer and magnitude guards, a grid-built global
/// frontier, and inputs left after each stream's floor group whose cell
/// span the selection rule accepts against the nodes left in both lists.
bool DenseStepTaken(const std::vector<TracedNode>& own,
                    const std::vector<TracedNode>& global, bool grid_built,
                    double shift, double floor_q, double b_max,
                    const DpOptions& options) {
  const double quantum = options.buffer_quantum_bits;
  if (!grid_built || quantum != std::floor(quantum)) return false;
  const auto last = [](const std::vector<TracedNode>& list) {
    return list.empty() ? 0.0 : list.back().buffer;
  };
  const double largest = std::max(last(own), last(global));
  const double reach = largest + std::abs(shift);
  const double steps = shift / quantum;
  const double up = std::ceil(steps);
  if (!(reach <= 0x1p30 * quantum && reach + quantum < 0x1p52 &&
        up - steps > 1e-6 && steps - (up - 1) > 1e-6)) {
    return false;
  }
  const double b_cut = b_max + 1e-9;
  const double floor_buffer = reference::ReferenceQuantizeUp(floor_q, options);
  std::optional<double> first;  // lowest input past both floor groups
  std::size_t left = 0;         // nodes past both floor groups
  for (const std::vector<TracedNode>* list : {&own, &global}) {
    std::size_t on_floor = 0;
    for (const TracedNode& node : *list) {
      if (node.buffer > b_cut) break;
      if (reference::ReferenceQuantizeUp(
              std::max(node.buffer + shift, floor_q), options) ==
          floor_buffer) {
        ++on_floor;
        continue;
      }
      if (!first.has_value() || node.buffer < *first) first = node.buffer;
      break;
    }
    left += list->size() - on_floor;
  }
  if (!first.has_value()) return false;
  // The last cell at or below b_cut, capped at the last node's.
  auto last_cell = std::llround(std::min(largest, b_cut) / quantum);
  while (static_cast<double>(last_cell) * quantum > b_cut) --last_cell;
  const std::int64_t cells = last_cell - std::llround(*first / quantum) + 1;
  return dp_internal::TakesDenseStep(cells, left);
}

/// Whether `list` holds a node with the buffer and weight of `node` but
/// another predecessor (with alpha = 0 the shifted global frontier offers
/// the rate's own nodes at their own weights, a tie that picks nothing).
bool OffersTie(const std::vector<TracedNode>& list, const TracedNode& node) {
  return std::any_of(list.begin(), list.end(), [&](const TracedNode& n) {
    return n.buffer == node.buffer && n.weight == node.weight &&
           (n.from_rate != node.from_rate || n.from_index != node.from_index);
  });
}

/// Nodes of `merged` above `floor_buffer` that `a` and `b` both offered on
/// that buffer at that weight, from different predecessors.
int TiedSurvivors(const std::vector<TracedNode>& merged,
                  const std::vector<TracedNode>& a,
                  const std::vector<TracedNode>& b, double floor_buffer) {
  int ties = 0;
  for (const TracedNode& node : merged) {
    ties += node.buffer > floor_buffer && (OffersTie(a, node) ||
                                           OffersTie(b, node));
  }
  return ties;
}

UnskippedSolve ReplayWithoutSkips(const std::vector<double>& workload,
                                  const DpOptions& options) {
  const auto total = static_cast<std::int64_t>(workload.size());
  const std::int64_t period = options.decision_period;
  const std::size_t num_rates = options.rate_levels.size();
  const std::vector<double> bound =
      reference::ReferenceBound(workload, options);
  UnskippedSolve solve;
  std::vector<Frontiers> epochs;
  for (std::int64_t t0 = 0; t0 < total; t0 += period) {
    const std::int64_t slots = std::min(period, total - t0);
    std::vector<TracedNode> global;
    if (!epochs.empty()) {
      for (std::size_t v = 0; v < num_rates; ++v) {
        std::vector<TracedNode> run = epochs.back()[v];
        for (std::size_t i = 0; i < run.size(); ++i) {
          run[i] = {run[i].buffer, run[i].weight, v, i};
        }
        global = MergeTraced(global, run, solve.cross_rate_ties);
      }
    }
    const bool grid_built =
        !epochs.empty() &&
        GridBuilt(epochs.back(), options.buffer_quantum_bits);
    Frontiers now(num_rates);
    for (std::size_t v = 0; v < num_rates; ++v) {
      const double rate = options.rate_levels[v];
      bool feasible = true;
      double prefix = 0;
      double floor_q = 0;
      double b_max = std::numeric_limits<double>::infinity();
      for (std::int64_t s = 0; s < slots && feasible; ++s) {
        const auto t = static_cast<std::size_t>(t0 + s);
        prefix += workload[t];
        floor_q = std::max(floor_q + workload[t] - rate, 0.0);
        feasible = floor_q <= bound[t];
        b_max = std::min(
            b_max, bound[t] - prefix + rate * static_cast<double>(s + 1));
      }
      if (!feasible) continue;
      const double shift = prefix - rate * static_cast<double>(slots);
      const double cost_add =
          options.cost.per_bandwidth * rate * static_cast<double>(slots);
      const auto transform = [&](const std::vector<TracedNode>& src,
                                 double extra, bool from_global) {
        std::vector<TracedNode> dst;
        for (std::size_t i = 0; i < src.size(); ++i) {
          if (src[i].buffer > b_max + 1e-9) break;
          dst.push_back({reference::ReferenceQuantizeUp(
                             std::max(src[i].buffer + shift, floor_q), options),
                         src[i].weight + cost_add + extra,
                         from_global ? src[i].from_rate : v,
                         from_global ? src[i].from_index : i});
        }
        return dst;
      };
      if (epochs.empty()) {
        now[v] = transform({{0.0, 0.0, 0, 0}}, 0.0, false);
      } else {
        // `w + cost_add + 0.0` is bit-equal to the production's
        // `w + cost_add`.
        const std::vector<TracedNode> own =
            transform(epochs.back()[v], 0.0, false);
        const std::vector<TracedNode> shifted =
            transform(global, options.cost.per_renegotiation, true);
        const double floor_buffer =
            reference::ReferenceQuantizeUp(floor_q, options);
        const std::optional<double> own_floor = LightestOn(own, floor_buffer);
        const bool floor_tie =
            own_floor.has_value() && own_floor == LightestOn(shifted, floor_buffer);
        solve.floor_ties += floor_tie;
        const double quantum = options.buffer_quantum_bits;
        if (quantum > 0 && quantum == std::floor(quantum)) {
          const double steps = shift / quantum;
          const bool near = std::abs(steps - std::round(steps)) <= 1e-6;
          ++(near ? solve.near_grid_shifts : solve.off_grid_shifts);
        }
        now[v] = MergeTraced(own, shifted, solve.own_global_ties);
        if (DenseStepTaken(epochs.back()[v], global, grid_built, shift,
                           floor_q, b_max, options)) {
          ++solve.dense_steps;
          solve.dense_ties += TiedSurvivors(now[v], own, shifted, floor_buffer);
          solve.dense_floor_ties +=
              floor_tie && !now[v].empty() &&
              now[v].front().buffer == floor_buffer &&
              (OffersTie(own, now[v].front()) ||
               OffersTie(shifted, now[v].front()));
          for (const std::vector<TracedNode>* input :
               {&epochs.back()[v], &global}) {
            for (const TracedNode& node : *input) {
              if (node.buffer > b_max + 1e-9) break;
              solve.dense_unclamped_on_floor +=
                  node.buffer + shift > floor_q &&
                  reference::ReferenceQuantizeUp(node.buffer + shift,
                                                 options) == floor_buffer;
            }
          }
        }
      }
    }
    epochs.push_back(std::move(now));
  }

  // Terminal argmin, rate-major with strict improvement, then backtrack.
  const TracedNode* best = nullptr;
  std::size_t rate = 0;
  for (std::size_t v = 0; v < num_rates; ++v) {
    for (const TracedNode& node : epochs.back()[v]) {
      if (node.buffer > options.final_buffer_bits + 1e-9) continue;
      if (best == nullptr || node.weight < best->weight) {
        best = &node;
        rate = v;
      }
    }
  }
  if (best == nullptr) {
    solve.epochs = std::move(epochs);
    return solve;
  }
  solve.cost = best->weight;
  std::vector<Step> steps(epochs.size());
  for (std::size_t e = epochs.size(); e-- > 0;) {
    steps[e] = {static_cast<std::int64_t>(e) * period,
                options.rate_levels[rate]};
    if (e > 0) {
      const std::size_t from_rate = best->from_rate;
      best = &epochs[e - 1][from_rate][best->from_index];
      rate = from_rate;
    }
  }
  solve.schedule.emplace(std::move(steps), total);
  solve.epochs = std::move(epochs);
  return solve;
}

TEST(DpProperty, ExactTiesResolveAsWithoutDominanceSkips) {
  // Integer arrivals, buffers and rates, with alpha a multiple of beta
  // times the rate step: equal (buffer, weight) pairs reach the global
  // fold from different rates and each rate's merge from both streams.
  // Rare instances put several nodes of both streams on one transformed
  // buffer, tied at its minimum weight: there the first node of each
  // stream decides which tied node survives, skipped global nodes too.
  Rng rng(2611);
  int cross_rate_ties = 0;
  int own_global_ties = 0;
  int feasible = 0;
  for (const double quantum : {0.0, 1.0, 3.0}) {  // 3 never divides B
    for (int trial = 0; trial < 400; ++trial) {
      DpOptions options;
      const int k = 4 + static_cast<int>(rng.Uniform(0.0, 4.0));
      const double step = 1.0 + std::floor(rng.Uniform(0.0, 3.0));
      for (int v = 0; v < k; ++v) options.rate_levels.push_back(step * v);
      options.buffer_bits = 3.0 * std::floor(rng.Uniform(2.0, 10.0)) + 1.0;
      options.buffer_quantum_bits = quantum;
      options.cost = {step * std::floor(rng.Uniform(0.0, 4.0)), 1.0};
      options.decision_period =
          1 + static_cast<std::int64_t>(rng.Uniform(0.0, 3.0));
      if (trial % 3 == 0) options.final_buffer_bits = 0;
      const int slots = 8 + static_cast<int>(rng.Uniform(0.0, 40.0));
      std::vector<double> workload(static_cast<std::size_t>(slots));
      for (double& a : workload) a = std::floor(rng.Uniform(0.0, step * k));

      const UnskippedSolve want = ReplayWithoutSkips(workload, options);
      cross_rate_ties += want.cross_rate_ties;
      own_global_ties += want.own_global_ties;
      const std::optional<double> reference_cost =
          reference::ReferenceOptimalCost(workload, options);
      ASSERT_EQ(want.schedule.has_value(), reference_cost.has_value());
      if (!want.schedule.has_value()) continue;
      ++feasible;
      ASSERT_EQ(want.cost, *reference_cost);

      for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(testing::Message() << "quantum " << quantum << " trial "
                                        << trial << " threads " << threads);
        options.threads = threads;
        EpochReconstructor reconstructor(workload, options);
        options.inspect = [&](const DpFrontierView& view) {
          reconstructor.Check(view);
        };
        const DpResult got = ComputeOptimalSchedule(workload, options);
        EXPECT_EQ(got.optimal_cost, *reference_cost);
        EXPECT_TRUE(got.schedule == *want.schedule);
        EXPECT_EQ(reference::ReferenceScheduleCost(workload, options,
                                                   got.schedule),
                  reference_cost);
      }
    }
  }
  EXPECT_GT(feasible, 600);
  EXPECT_GT(cross_rate_ties, 1000);
  EXPECT_GT(own_global_ties, 1000);
}

/// Every node of the epoch in `view` has the parent the replay gave it:
/// its predecessor's offset among the previous epoch's nodes, rate-major.
void ExpectParentsAsReplayed(const DpFrontierView& view,
                             const UnskippedSolve& replay,
                             std::int64_t period) {
  const auto e = static_cast<std::size_t>(view.first_slot / period);
  if (e == 0) return;  // the seed epoch has no parents
  ASSERT_LT(e, replay.epochs.size());
  const std::vector<std::vector<TracedNode>>& before = replay.epochs[e - 1];
  std::vector<std::size_t> rate_offset(before.size() + 1, 0);
  for (std::size_t v = 0; v < before.size(); ++v) {
    rate_offset[v + 1] = rate_offset[v] + before[v].size();
  }
  for (std::size_t v = 0; v < view.num_rates; ++v) {
    const std::span<const std::uint32_t> parents = view.parents(v);
    const std::vector<TracedNode>& now = replay.epochs[e][v];
    ASSERT_EQ(parents.size(), now.size()) << "epoch " << e << " rate " << v;
    for (std::size_t i = 0; i < parents.size(); ++i) {
      EXPECT_EQ(parents[i], rate_offset[now[i].from_rate] + now[i].from_index)
          << "epoch " << e << " rate " << v << " node " << i;
    }
  }
}

TEST(DpProperty, ClampedPrefixTiesResolveAsWithoutCollapse) {
  // High rates drain most entering buffers to the floor buffer, where the
  // scheduler keeps only the last node of each stream's clamped prefix
  // and compares it at the weight of the stream's node 0. Integer rates
  // and costs tie own and shifted-global nodes there exactly, so every
  // node's parent is checked against the replay, not only the schedule.
  // On integer quanta, arrivals in quarters put shift/Q off the integer
  // grid, where the scheduler adds a whole number of quanta; integer
  // arrivals put it on the grid and tenths within rounding of it, where
  // it quantizes each buffer itself.
  Rng rng(4243);
  int floor_ties = 0;
  int off_grid = 0;
  int near_grid = 0;
  int feasible = 0;
  for (const double quantum : {1.0, 2.0, 3.0}) {
    for (const double grain : {0.25, 1.0, 0.1}) {
      // Sums of tenths round, and the brute force's slot-by-slot Lindley
      // rounds differently from the composed epoch shift: an epoch can end
      // an ulp apart and so a quantum apart. Tenths are scored against the
      // replay only, which shares the scheduler's arithmetic.
      const bool exact = grain != 0.1;
      for (int trial = 0; trial < 120; ++trial) {
        DpOptions options;
        const int k = 4 + static_cast<int>(rng.Uniform(0.0, 4.0));
        const double step = 1.0 + std::floor(rng.Uniform(0.0, 3.0));
        for (int v = 0; v < k; ++v) options.rate_levels.push_back(step * v);
        options.buffer_bits = 3.0 * std::floor(rng.Uniform(3.0, 10.0)) + 1.0;
        options.buffer_quantum_bits = quantum;
        options.cost = {step * std::floor(rng.Uniform(0.0, 4.0)), 1.0};
        options.decision_period =
            1 + static_cast<std::int64_t>(rng.Uniform(0.0, 3.0));
        if (trial % 3 == 0) options.final_buffer_bits = 0;
        const int slots = 8 + static_cast<int>(rng.Uniform(0.0, 30.0));
        std::vector<double> workload(static_cast<std::size_t>(slots));
        for (double& a : workload) {
          a = grain * std::floor(rng.Uniform(0.0, 0.7 * step * k) / grain);
        }

        const UnskippedSolve want = ReplayWithoutSkips(workload, options);
        floor_ties += want.floor_ties;
        off_grid += want.off_grid_shifts;
        near_grid += want.near_grid_shifts;
        std::optional<double> reference_cost;
        if (exact) {
          reference_cost = reference::ReferenceOptimalCost(workload, options);
          ASSERT_EQ(want.schedule.has_value(), reference_cost.has_value());
        }
        if (!want.schedule.has_value()) continue;
        ++feasible;
        if (exact) {
          ASSERT_EQ(want.cost, *reference_cost);
        }

        for (const std::size_t threads : {1u, 4u}) {
          SCOPED_TRACE(testing::Message()
                       << "quantum " << quantum << " grain " << grain
                       << " trial " << trial << " threads " << threads);
          options.threads = threads;
          EpochReconstructor reconstructor(workload, options);
          options.inspect = [&](const DpFrontierView& view) {
            reconstructor.Check(view);
            ExpectParentsAsReplayed(view, want, options.decision_period);
          };
          const DpResult got = ComputeOptimalSchedule(workload, options);
          EXPECT_EQ(got.optimal_cost, want.cost);
          EXPECT_TRUE(got.schedule == *want.schedule);
          if (exact) {
            EXPECT_EQ(reference::ReferenceScheduleCost(workload, options,
                                                       got.schedule),
                      reference_cost);
          }
        }
      }
    }
  }
  EXPECT_GT(feasible, 1000);
  EXPECT_GT(floor_ties, 7000);
  EXPECT_GT(off_grid, 25000);
  EXPECT_GT(near_grid, 9000);
}

/// How the scheduler builds the next epoch's cross-rate frontier from the
/// frontiers in `view`: by grid cell when every buffer b is double(m)·Q for
/// m = b·(1/Q) rounded, and the cells from the lowest to the highest buffer
/// number at most 4·live + 64; else by the rate-order fold. `ties` counts
/// the buffers the grid keeps whose lightest weight two rates share.
struct GridEpoch {
  bool on_grid = false;
  int ties = 0;
};

GridEpoch ClassifyGridEpoch(const DpFrontierView& view, double quantum) {
  GridEpoch epoch;
  if (quantum <= 0) return epoch;
  const double inv_q = 1.0 / quantum;
  const auto cell_of = [inv_q](double b) {
    return static_cast<std::size_t>(b * inv_q + 0.5);
  };
  // Buffer -> its lightest weight and the number of rates holding it.
  std::map<double, std::pair<double, int>> lightest;
  for (std::size_t v = 0; v < view.num_rates; ++v) {
    const auto buffers = view.buffers(v);
    const auto weights = view.weights(v);
    for (std::size_t i = 0; i < buffers.size(); ++i) {
      if (static_cast<double>(cell_of(buffers[i])) * quantum != buffers[i]) {
        return epoch;
      }
      const auto [it, fresh] =
          lightest.try_emplace(buffers[i], weights[i], 1);
      if (fresh) continue;
      if (weights[i] < it->second.first) {
        it->second = {weights[i], 1};
      } else if (weights[i] == it->second.first) {
        ++it->second.second;
      }
    }
  }
  if (lightest.empty()) return epoch;
  const std::size_t cells = cell_of(lightest.rbegin()->first) -
                            cell_of(lightest.begin()->first) + 1;
  if (cells > 4 * view.live_nodes + 64) return epoch;
  epoch.on_grid = true;
  double running = std::numeric_limits<double>::infinity();
  for (const auto& [buffer, lightest_weight] : lightest) {
    const auto [weight, rates] = lightest_weight;
    if (weight >= running) continue;
    running = weight;
    epoch.ties += rates > 1;
  }
  return epoch;
}

/// Every node of the epoch in `view` has the buffer and weight the replay
/// gave it.
void ExpectFrontierAsReplayed(const DpFrontierView& view,
                              const UnskippedSolve& replay,
                              std::int64_t period) {
  const auto e = static_cast<std::size_t>(view.first_slot / period);
  ASSERT_LT(e, replay.epochs.size());
  for (std::size_t v = 0; v < view.num_rates; ++v) {
    const auto buffers = view.buffers(v);
    const auto weights = view.weights(v);
    const std::vector<TracedNode>& now = replay.epochs[e][v];
    ASSERT_EQ(buffers.size(), now.size()) << "epoch " << e << " rate " << v;
    for (std::size_t i = 0; i < buffers.size(); ++i) {
      EXPECT_EQ(buffers[i], now[i].buffer) << "epoch " << e << " rate " << v;
      EXPECT_EQ(weights[i], now[i].weight) << "epoch " << e << " rate " << v;
    }
  }
}

TEST(DpProperty, GridGlobalMatchesRateOrderFold) {
  // On a buffer quantum the scheduler builds the cross-rate frontier by
  // grid cell: each cell keeps its strictly lightest node, the lowest rate
  // on an exact tie, and an ascending sweep keeps a cell lighter than all
  // below it. The exact-tie instances of
  // ExactTiesResolveAsWithoutDominanceSkips tie (buffer, weight) pairs
  // across rates on whole-number quanta, and non-integer quanta put the
  // cells at double(m)·Q. A quantum of 1/64 on whole-number buffers spreads
  // the grid past its bound of 4·live + 64 cells, where the scheduler
  // folds the runs in rate order instead. Either way every node and its
  // parent must be the replay's, whose fold merges every run.
  Rng rng(3307);
  int grid_ties = 0;
  int grid_epochs = 0;
  int fold_epochs = 0;
  int feasible = 0;
  for (const double quantum : {1.0, 3.0, 0.75, 0.3, 1.0 / 64}) {
    for (int trial = 0; trial < 150; ++trial) {
      DpOptions options;
      const int k = 4 + static_cast<int>(rng.Uniform(0.0, 4.0));
      const double step = 1.0 + std::floor(rng.Uniform(0.0, 3.0));
      for (int v = 0; v < k; ++v) options.rate_levels.push_back(step * v);
      options.buffer_bits = 3.0 * std::floor(rng.Uniform(2.0, 10.0)) + 1.0;
      options.buffer_quantum_bits = quantum;
      options.cost = {step * std::floor(rng.Uniform(0.0, 4.0)), 1.0};
      options.decision_period =
          1 + static_cast<std::int64_t>(rng.Uniform(0.0, 3.0));
      if (trial % 3 == 0) options.final_buffer_bits = 0;
      const int slots = 8 + static_cast<int>(rng.Uniform(0.0, 40.0));
      std::vector<double> workload(static_cast<std::size_t>(slots));
      for (double& a : workload) a = std::floor(rng.Uniform(0.0, step * k));

      const UnskippedSolve want = ReplayWithoutSkips(workload, options);
      if (!want.schedule.has_value()) continue;
      ++feasible;

      const std::int64_t period = options.decision_period;
      for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(testing::Message() << "quantum " << quantum << " trial "
                                        << trial << " threads " << threads);
        options.threads = threads;
        options.inspect = [&](const DpFrontierView& view) {
          ExpectFrontierAsReplayed(view, want, period);
          ExpectParentsAsReplayed(view, want, period);
          // The last epoch's frontiers build no cross-rate frontier.
          if (threads != 1 || view.first_slot + period >= slots) return;
          const GridEpoch epoch = ClassifyGridEpoch(view, quantum);
          ++(epoch.on_grid ? grid_epochs : fold_epochs);
          grid_ties += epoch.ties;
        };
        const DpResult got = ComputeOptimalSchedule(workload, options);
        EXPECT_EQ(got.optimal_cost, want.cost);
        EXPECT_TRUE(got.schedule == *want.schedule);
      }
    }
  }
  RecordProperty("feasible", feasible);
  RecordProperty("grid_ties", grid_ties);
  RecordProperty("grid_epochs", grid_epochs);
  RecordProperty("fold_epochs", fold_epochs);
  EXPECT_GT(feasible, 600);
  EXPECT_GT(grid_ties, 20000);
  EXPECT_GT(grid_epochs, 8000);
  EXPECT_GT(fold_epochs, 1500);
}

TEST(DpProperty, DenseStepMatchesUnskippedMerge) {
  // On a whole-number quantum whose shift passes the guards, the scheduler
  // transforms a rate by its dense step when the inputs left after the
  // floor cell span few enough cells. Small grids with integer rates and
  // costs keep frontiers dense and tie own and shifted-global nodes
  // exactly, above the floor buffer and on it. Arrivals in quarters put
  // shift/Q off the grid, integer arrivals on it, and tenths within 1e-6
  // of it, where the guard keeps the merge. Quarters also land unclamped
  // inputs on the floor buffer. Some instances bound the delay instead of
  // (or as well as) the buffer. Every node and its parent must be the
  // replay's, at 1 and 4 threads.
  Rng rng(5813);
  int dense_steps = 0;
  int dense_ties = 0;
  int dense_floor_ties = 0;
  int dense_unclamped_on_floor = 0;
  int delay_dense_steps = 0;
  int feasible = 0;
  for (const double quantum : {1.0, 2.0, 3.0}) {
    for (const double grain : {0.25, 1.0, 0.1}) {
      for (int trial = 0; trial < 80; ++trial) {
        DpOptions options;
        const int k = 4 + static_cast<int>(rng.Uniform(0.0, 5.0));
        const double step = 1.0 + std::floor(rng.Uniform(0.0, 3.0));
        for (int v = 0; v < k; ++v) options.rate_levels.push_back(step * v);
        options.buffer_bits = 3.0 * std::floor(rng.Uniform(3.0, 12.0)) + 1.0;
        options.buffer_quantum_bits = quantum;
        options.cost = {step * std::floor(rng.Uniform(0.0, 4.0)), 1.0};
        options.decision_period =
            1 + static_cast<std::int64_t>(rng.Uniform(0.0, 3.0));
        if (trial % 3 == 0) options.final_buffer_bits = 0;
        if (trial % 3 == 1) {
          options.final_buffer_bits = std::floor(rng.Uniform(0.0, 8.0));
        }
        const bool delay = trial % 4 == 3;
        if (delay) {
          options.delay_bound_slots =
              1 + static_cast<std::int64_t>(rng.Uniform(0.0, 4.0));
          if (trial % 8 == 7) options.buffer_bits = 0;
        }
        const int slots = 8 + static_cast<int>(rng.Uniform(0.0, 30.0));
        std::vector<double> workload(static_cast<std::size_t>(slots));
        for (double& a : workload) {
          a = grain * std::floor(rng.Uniform(0.0, 0.7 * step * k) / grain);
        }

        const UnskippedSolve want = ReplayWithoutSkips(workload, options);
        if (!want.schedule.has_value()) continue;
        ++feasible;
        dense_steps += want.dense_steps;
        dense_ties += want.dense_ties;
        dense_floor_ties += want.dense_floor_ties;
        dense_unclamped_on_floor += want.dense_unclamped_on_floor;
        if (delay) delay_dense_steps += want.dense_steps;

        const std::int64_t period = options.decision_period;
        for (const std::size_t threads : {1u, 4u}) {
          SCOPED_TRACE(testing::Message()
                       << "quantum " << quantum << " grain " << grain
                       << " trial " << trial << " threads " << threads);
          options.threads = threads;
          options.inspect = [&](const DpFrontierView& view) {
            ExpectFrontierAsReplayed(view, want, period);
            ExpectParentsAsReplayed(view, want, period);
          };
          const DpResult got = ComputeOptimalSchedule(workload, options);
          EXPECT_EQ(got.optimal_cost, want.cost);
          EXPECT_TRUE(got.schedule == *want.schedule);
        }
      }
    }
  }
  RecordProperty("feasible", feasible);
  RecordProperty("dense_steps", dense_steps);
  RecordProperty("dense_ties", dense_ties);
  RecordProperty("dense_floor_ties", dense_floor_ties);
  RecordProperty("dense_unclamped_on_floor", dense_unclamped_on_floor);
  RecordProperty("delay_dense_steps", delay_dense_steps);
  EXPECT_GT(feasible, 400);
  EXPECT_GT(dense_steps, 2000);
  EXPECT_GT(dense_ties, 100);
  EXPECT_GT(dense_floor_ties, 50);
  EXPECT_GT(dense_unclamped_on_floor, 20);
  EXPECT_GT(delay_dense_steps, 200);
}

TEST(DpProperty, GridFillMatchesUnskippedReplayAcrossFallbacks) {
  // The scheduler fills the next epoch's grid cells as its transform
  // writes nodes, each worker its own cells merged in worker order, and
  // folds an epoch the fill cannot cover. These solves switch between grid
  // and fold epochs mid-solve: after a quiet start, non-integer quanta
  // (0.3, and 1500.5 on arrivals in thousands) and a quantum of 1/64
  // outgrow the cell bound while the frontier is sparse, and an unbounded
  // buffer after a burst puts every buffer past the cells the fill
  // prepares. Some instances
  // bound the delay, and some spill their records, so backtracking replays
  // blocks whose first epoch cannot use the last fill. Every node and its
  // parent must be the replay's at 1, 3 (uneven rate chunks) and 4
  // threads.
  Rng rng(7129);
  int feasible = 0;
  int grid_epochs = 0;
  int fold_epochs = 0;
  int mixed_solves = 0;
  int spilled_solves = 0;
  int delay_solves = 0;
  int unbounded_solves = 0;
  struct Family {
    double quantum;
    double unit;  // arrivals, rates and buffers in multiples of this
    bool unbounded;
  };
  for (const Family family : {Family{0.3, 1.0, false},
                              Family{1500.5, 1000.0, false},
                              Family{1.0 / 64, 1.0, false},
                              Family{1.0, 1.0, true}}) {
    for (int trial = 0; trial < 60; ++trial) {
      DpOptions options;
      const int k = 4 + static_cast<int>(rng.Uniform(0.0, 4.0));
      const double step =
          family.unit * (1.0 + std::floor(rng.Uniform(0.0, 3.0)));
      for (int v = 0; v < k; ++v) options.rate_levels.push_back(step * v);
      options.buffer_bits =
          family.unbounded
              ? std::numeric_limits<double>::infinity()
              : family.unit * (3.0 * std::floor(rng.Uniform(2.0, 10.0)) + 1.0);
      options.buffer_quantum_bits = family.quantum;
      options.cost = {step * std::floor(rng.Uniform(0.0, 4.0)), 1.0};
      options.decision_period =
          1 + static_cast<std::int64_t>(rng.Uniform(0.0, 3.0));
      if (trial % 3 == 0) options.final_buffer_bits = 0;
      const bool delay = trial % 4 == 3;
      if (delay) {
        options.delay_bound_slots =
            1 + static_cast<std::int64_t>(rng.Uniform(0.0, 4.0));
        if (trial % 8 == 7) options.buffer_bits = 0;
      }
      if (trial % 5 == 4) {
        options.max_resident_nodes = 40;
        options.checkpoint_slots = 2 * options.decision_period;
      }
      // A quiet first third keeps every buffer on one cell, so each solve
      // starts on the grid before its frontier spreads.
      const int slots = 12 + static_cast<int>(rng.Uniform(0.0, 40.0));
      const int quiet = slots / 3;
      std::vector<double> workload(static_cast<std::size_t>(slots));
      for (int t = quiet; t < slots; ++t) {
        workload[static_cast<std::size_t>(t)] =
            family.unit *
            std::floor(rng.Uniform(0.0, 0.7 * k * step) / family.unit);
      }
      if (family.unbounded) {
        workload[static_cast<std::size_t>(quiet)] += 40.0 * step * k;
        workload[static_cast<std::size_t>(quiet) + 1] += 40.0 * step * k;
      }

      const UnskippedSolve want = ReplayWithoutSkips(workload, options);
      if (!want.schedule.has_value()) continue;
      ++feasible;
      delay_solves += delay;
      unbounded_solves += family.unbounded;

      const std::int64_t period = options.decision_period;
      for (const std::size_t threads : {1u, 3u, 4u}) {
        SCOPED_TRACE(testing::Message()
                     << "quantum " << family.quantum << " trial " << trial
                     << " threads " << threads);
        options.threads = threads;
        int grid = 0;
        int fold = 0;
        options.inspect = [&](const DpFrontierView& view) {
          ExpectFrontierAsReplayed(view, want, period);
          ExpectParentsAsReplayed(view, want, period);
          // The last epoch's frontiers build no cross-rate frontier.
          if (view.first_slot + period >= slots) return;
          ++(ClassifyGridEpoch(view, family.quantum).on_grid ? grid : fold);
        };
        const DpResult got = ComputeOptimalSchedule(workload, options);
        EXPECT_EQ(got.optimal_cost, want.cost);
        EXPECT_TRUE(got.schedule == *want.schedule);
        if (threads != 1) continue;
        grid_epochs += grid;
        fold_epochs += fold;
        mixed_solves += grid != 0 && fold != 0;
        spilled_solves += got.recomputed_epochs != 0;
      }
    }
  }
  RecordProperty("feasible", feasible);
  RecordProperty("grid_epochs", grid_epochs);
  RecordProperty("fold_epochs", fold_epochs);
  RecordProperty("mixed_solves", mixed_solves);
  RecordProperty("spilled_solves", spilled_solves);
  RecordProperty("delay_solves", delay_solves);
  RecordProperty("unbounded_solves", unbounded_solves);
  EXPECT_GT(feasible, 150);
  EXPECT_GT(grid_epochs, 1000);
  EXPECT_GT(fold_epochs, 500);
  EXPECT_GT(mixed_solves, 20);
  EXPECT_GT(spilled_solves, 10);
  EXPECT_GT(delay_solves, 10);
  EXPECT_GT(unbounded_solves, 10);
}

TEST(DpProperty, ValidationRejectsMalformedOptions) {
  const std::vector<double> workload = {1.0, 2.0, 1.0};
  const std::vector<double> levels = {0.0, 2.0, 4.0};
  const auto expect_invalid = [&](auto mutate) {
    DpOptions options;
    options.rate_levels = levels;
    options.buffer_bits = 5.0;
    options.cost = {3.0, 1.0};
    mutate(options);
    EXPECT_THROW(ComputeOptimalSchedule(workload, options), InvalidArgument);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  expect_invalid([&](DpOptions& o) { o.buffer_bits = nan; });
  expect_invalid([&](DpOptions& o) { o.buffer_bits = -1.0; });
  // Malformed ladders are built whole and moved in.
  for (std::vector<double> bad : {std::vector<double>{0.0, 2.0, 2.0},
                                  {4.0, 2.0}, {0.0, nan}, {0.0, inf},
                                  {-1.0, 2.0}}) {
    expect_invalid([&](DpOptions& o) { o.rate_levels = std::move(bad); });
  }
  expect_invalid([&](DpOptions& o) { o.cost.per_renegotiation = nan; });
  expect_invalid([&](DpOptions& o) { o.cost.per_bandwidth = nan; });
  expect_invalid([&](DpOptions& o) { o.cost.per_renegotiation = -1.0; });
  expect_invalid([&](DpOptions& o) { o.cost.per_bandwidth = inf; });
  expect_invalid([&](DpOptions& o) { o.decision_period = 0; });
  expect_invalid([&](DpOptions& o) { o.decision_period = -3; });
  expect_invalid([&](DpOptions& o) { o.buffer_quantum_bits = nan; });
  expect_invalid([&](DpOptions& o) { o.buffer_quantum_bits = -0.5; });
  expect_invalid([&](DpOptions& o) { o.buffer_quantum_bits = inf; });
  expect_invalid([&](DpOptions& o) { o.final_buffer_bits = nan; });
  expect_invalid([&](DpOptions& o) { o.final_buffer_bits = -1.0; });
  expect_invalid([&](DpOptions& o) { o.checkpoint_slots = -1; });
  expect_invalid([&](DpOptions& o) { o.max_resident_nodes = 0; });

  // Boundary values that must stay valid.
  DpOptions ok;
  ok.rate_levels = levels;
  ok.buffer_bits = 5.0;
  ok.cost = {0.0, 0.0};
  ok.decision_period = 1;
  ok.final_buffer_bits = 0.0;
  EXPECT_NO_THROW(ComputeOptimalSchedule(workload, ok));
}

}  // namespace
}  // namespace rcbr::core
