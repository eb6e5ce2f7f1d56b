// Property tests for the DP trellis frontiers, via the test-only
// DpOptions::inspect hook:
//  - every per-rate frontier is Pareto-sorted (buffers strictly
//    ascending, weights strictly descending) — equivalently, no node
//    dominates another within a rate;
//  - each epoch's frontier equals an independently reconstructed Pareto
//    merge of the same-rate candidates and the alpha-shifted cross-rate
//    global frontier (the Lemma-1 pruning rule), bit-for-bit;
//  - the peak_live_nodes / total_nodes diagnostics match a recount;
//  - results are byte-identical across worker-thread counts.
#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dp_scheduler.h"
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
