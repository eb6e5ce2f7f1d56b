#include "core/dp_scheduler.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>

#include <gtest/gtest.h>

#include "core/schedule.h"
#include "trace/star_wars.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/units.h"
#include "dp_reference.h"

namespace rcbr::core {
namespace {

/// Brute force: enumerates every rate assignment (K^T) and returns the
/// minimal feasible cost. Only usable for tiny instances.
double BruteForceOptimum(const std::vector<double>& workload,
                         const DpOptions& options) {
  const auto n = workload.size();
  const auto k = options.rate_levels.size();
  double best = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> choice(n, 0);
  const std::function<void(std::size_t)> recurse = [&](std::size_t t) {
    if (t == n) {
      double q = 0;
      double cost = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double r = options.rate_levels[choice[i]];
        q = std::max(q + workload[i] - r, 0.0);
        if (q > options.buffer_bits + 1e-12) return;  // infeasible
        cost += options.cost.per_bandwidth * r;
        if (i > 0 && choice[i] != choice[i - 1]) {
          cost += options.cost.per_renegotiation;
        }
      }
      best = std::min(best, cost);
      return;
    }
    for (std::size_t v = 0; v < k; ++v) {
      choice[t] = v;
      recurse(t + 1);
    }
  };
  recurse(0);
  return best;
}

DpOptions SmallOptions() {
  DpOptions options;
  options.rate_levels = {0.0, 2.0, 4.0, 8.0};
  options.buffer_bits = 5.0;
  options.cost = {3.0, 1.0};
  return options;
}

TEST(DpScheduler, Validation) {
  DpOptions options = SmallOptions();
  EXPECT_THROW(ComputeOptimalSchedule({}, options), InvalidArgument);
  options.rate_levels = {};
  EXPECT_THROW(ComputeOptimalSchedule({1.0}, options), InvalidArgument);
  options = SmallOptions();
  options.rate_levels = {2.0, 1.0};
  EXPECT_THROW(ComputeOptimalSchedule({1.0}, options), InvalidArgument);
  options = SmallOptions();
  options.rate_levels = {1.0, 1.0};
  EXPECT_THROW(ComputeOptimalSchedule({1.0}, options), InvalidArgument);
  options = SmallOptions();
  options.decision_period = 0;
  EXPECT_THROW(ComputeOptimalSchedule({1.0}, options), InvalidArgument);
}

TEST(DpScheduler, InfeasibleWhenTopRateTooSmall) {
  DpOptions options;
  options.rate_levels = {0.0, 1.0};
  options.buffer_bits = 2.0;
  // 10 bits arrive; at most 1 drains and 2 buffer -> must overflow.
  EXPECT_THROW(ComputeOptimalSchedule({10.0}, options), Infeasible);
}

TEST(DpScheduler, ConstantWorkloadGetsConstantSchedule) {
  DpOptions options = SmallOptions();
  const std::vector<double> workload(20, 2.0);
  const DpResult r = ComputeOptimalSchedule(workload, options);
  // Rate 2 throughout costs 40. The optimum shaves the tail: dropping to
  // rate 0 for the last 2 slots leaves 4 bits in the buffer (<= 5) and
  // saves 4 bandwidth for one renegotiation (3): cost 39.
  EXPECT_DOUBLE_EQ(r.schedule.At(0), 2.0);
  EXPECT_LE(r.schedule.change_count(), 1);
  EXPECT_DOUBLE_EQ(r.optimal_cost, 39.0);
  const ScheduleMetrics m = EvaluateSchedule(
      workload, r.schedule, options.buffer_bits, 1.0, options.cost);
  EXPECT_TRUE(m.feasible);
}

TEST(DpScheduler, BufferAbsorbsShortBurst) {
  DpOptions options = SmallOptions();
  // One 4-bit burst; buffer 5 absorbs 2 extra bits while rate 2 drains.
  const std::vector<double> workload = {2, 2, 4, 2, 0, 2};
  const DpResult r = ComputeOptimalSchedule(workload, options);
  // Flat rate 2 costs 12; the optimum may additionally exploit the
  // end-of-session buffer slack, but never exceeds the flat cost and
  // never renegotiates mid-burst more than once.
  EXPECT_LE(r.optimal_cost, 12.0);
  EXPECT_LE(r.schedule.change_count(), 1);
  const ScheduleMetrics m =
      EvaluateSchedule(workload, r.schedule, options.buffer_bits, 1.0,
                       options.cost);
  EXPECT_TRUE(m.feasible);
}

TEST(DpScheduler, MatchesBruteForceOnRandomInstances) {
  rcbr::Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    DpOptions options;
    options.rate_levels = {0.0, 1.0, 3.0, 6.0};
    options.buffer_bits = rng.Uniform(0.0, 6.0);
    options.cost = {rng.Uniform(0.1, 5.0), 1.0};
    std::vector<double> workload(7);
    bool feasible_exists = true;
    for (double& a : workload) {
      a = std::floor(rng.Uniform(0.0, 7.0));
    }
    // Quick feasibility probe: top rate forever.
    double q = 0;
    for (double a : workload) {
      q = std::max(q + a - options.rate_levels.back(), 0.0);
      if (q > options.buffer_bits) feasible_exists = false;
    }
    const double brute = feasible_exists
                             ? BruteForceOptimum(workload, options)
                             : std::numeric_limits<double>::infinity();
    if (!std::isfinite(brute)) {
      EXPECT_THROW(ComputeOptimalSchedule(workload, options), Infeasible)
          << "trial " << trial;
      continue;
    }
    const DpResult r = ComputeOptimalSchedule(workload, options);
    EXPECT_NEAR(r.optimal_cost, brute, 1e-9) << "trial " << trial;
    // The returned schedule must be feasible and cost what it claims.
    const ScheduleMetrics m = EvaluateSchedule(
        workload, r.schedule, options.buffer_bits, 1.0, options.cost);
    EXPECT_TRUE(m.feasible) << "trial " << trial;
    EXPECT_NEAR(m.cost, r.optimal_cost, 1e-9) << "trial " << trial;
  }
}

TEST(DpScheduler, HighAlphaSuppressesRenegotiations) {
  rcbr::Rng rng(7);
  std::vector<double> workload(60);
  for (double& a : workload) a = rng.Uniform(0.0, 8.0);
  DpOptions options;
  options.rate_levels = UniformRateLevels(0.0, 8.0, 9);
  options.buffer_bits = 10.0;

  options.cost = {0.01, 1.0};
  const DpResult cheap = ComputeOptimalSchedule(workload, options);
  options.cost = {1000.0, 1.0};
  const DpResult dear = ComputeOptimalSchedule(workload, options);
  EXPECT_LE(dear.schedule.change_count(), cheap.schedule.change_count());
  // With prohibitive alpha the schedule should be (nearly) flat.
  EXPECT_LE(dear.schedule.change_count(), 1);
  // And its mean rate must be at least the cheap one's (flat costs more
  // bandwidth).
  EXPECT_GE(dear.schedule.Mean(), cheap.schedule.Mean() - 1e-9);
}

TEST(DpScheduler, LargerBufferNeverCostsMore) {
  rcbr::Rng rng(13);
  std::vector<double> workload(50);
  for (double& a : workload) a = rng.Uniform(0.0, 6.0);
  DpOptions options;
  options.rate_levels = UniformRateLevels(0.0, 6.0, 7);
  options.cost = {2.0, 1.0};
  double prev = std::numeric_limits<double>::infinity();
  for (double buffer : {2.0, 5.0, 10.0, 40.0}) {
    options.buffer_bits = buffer;
    const DpResult r = ComputeOptimalSchedule(workload, options);
    EXPECT_LE(r.optimal_cost, prev + 1e-9) << "buffer " << buffer;
    prev = r.optimal_cost;
  }
}

TEST(DpScheduler, ScheduleNeverBelowWorkloadMeanOverall) {
  // Total service must cover total arrivals minus what the buffer can
  // still hold at the end.
  rcbr::Rng rng(17);
  std::vector<double> workload(40);
  for (double& a : workload) a = rng.Uniform(0.0, 5.0);
  DpOptions options;
  options.rate_levels = UniformRateLevels(0.0, 5.0, 6);
  options.buffer_bits = 4.0;
  options.cost = {1.0, 1.0};
  const DpResult r = ComputeOptimalSchedule(workload, options);
  double total_arrivals = 0;
  for (double a : workload) total_arrivals += a;
  EXPECT_GE(r.schedule.Integral() + options.buffer_bits + 1e-9,
            total_arrivals);
}

TEST(DpScheduler, DecisionPeriodRestrictsChangePoints) {
  rcbr::Rng rng(19);
  std::vector<double> workload(48);
  for (double& a : workload) a = rng.Uniform(0.0, 6.0);
  DpOptions options;
  options.rate_levels = UniformRateLevels(0.0, 6.0, 7);
  options.buffer_bits = 8.0;
  options.cost = {0.1, 1.0};
  options.decision_period = 6;
  const DpResult r = ComputeOptimalSchedule(workload, options);
  for (const Step& s : r.schedule.steps()) {
    EXPECT_EQ(s.start % 6, 0) << "change at slot " << s.start;
  }
  const ScheduleMetrics m = EvaluateSchedule(
      workload, r.schedule, options.buffer_bits, 1.0, options.cost);
  EXPECT_TRUE(m.feasible);
}

TEST(DpScheduler, DecisionPeriodCostDominatesPerSlot) {
  // Restricting change points can only increase the optimal cost.
  rcbr::Rng rng(23);
  std::vector<double> workload(48);
  for (double& a : workload) a = rng.Uniform(0.0, 6.0);
  DpOptions options;
  options.rate_levels = UniformRateLevels(0.0, 6.0, 7);
  options.buffer_bits = 8.0;
  options.cost = {1.0, 1.0};
  const DpResult fine = ComputeOptimalSchedule(workload, options);
  options.decision_period = 8;
  const DpResult coarse = ComputeOptimalSchedule(workload, options);
  EXPECT_GE(coarse.optimal_cost, fine.optimal_cost - 1e-9);
}

TEST(DpScheduler, QuantizationIsConservativeAndClose) {
  rcbr::Rng rng(29);
  std::vector<double> workload(100);
  for (double& a : workload) a = rng.Uniform(0.0, 10.0);
  DpOptions options;
  options.rate_levels = UniformRateLevels(0.0, 10.0, 11);
  options.buffer_bits = 15.0;
  options.cost = {2.0, 1.0};
  const DpResult exact = ComputeOptimalSchedule(workload, options);
  options.buffer_quantum_bits = 0.5;
  const DpResult quantized = ComputeOptimalSchedule(workload, options);
  // Conservative: quantized cost >= exact cost; close: within a few %.
  EXPECT_GE(quantized.optimal_cost, exact.optimal_cost - 1e-9);
  EXPECT_LE(quantized.optimal_cost, exact.optimal_cost * 1.10);
  // The quantized schedule must still be feasible against the real bound.
  const ScheduleMetrics m = EvaluateSchedule(
      workload, quantized.schedule, options.buffer_bits, 1.0, options.cost);
  EXPECT_TRUE(m.feasible);
  EXPECT_LE(quantized.total_nodes, exact.total_nodes);
}

TEST(DpScheduler, DelayBoundVariant) {
  const std::vector<double> workload = {6, 0, 0, 6, 0, 0};
  DpOptions options;
  options.rate_levels = {0.0, 2.0, 3.0, 6.0};
  options.cost = {0.1, 1.0};
  options.delay_bound_slots = 2;
  const DpResult r = ComputeOptimalSchedule(workload, options);
  EXPECT_TRUE(MeetsDelayBound(workload, r.schedule, 2));
}

TEST(DpScheduler, TighterDelayCostsMore) {
  rcbr::Rng rng(31);
  std::vector<double> workload(60);
  for (double& a : workload) a = rng.Uniform(0.0, 6.0);
  DpOptions options;
  options.rate_levels = UniformRateLevels(0.0, 6.0, 7);
  options.cost = {1.0, 1.0};
  options.delay_bound_slots = 1;
  const DpResult tight = ComputeOptimalSchedule(workload, options);
  options.delay_bound_slots = 10;
  const DpResult loose = ComputeOptimalSchedule(workload, options);
  EXPECT_GE(tight.optimal_cost, loose.optimal_cost - 1e-9);
  EXPECT_TRUE(MeetsDelayBound(workload, tight.schedule, 1));
  EXPECT_TRUE(MeetsDelayBound(workload, loose.schedule, 10));
}

TEST(DpScheduler, ZeroDelayForcesPerSlotPeakCoverage) {
  const std::vector<double> workload = {1, 5, 2};
  DpOptions options;
  options.rate_levels = {0.0, 1.0, 2.0, 5.0};
  options.cost = {0.0, 1.0};
  options.delay_bound_slots = 0;
  const DpResult r = ComputeOptimalSchedule(workload, options);
  // Each slot's service must cover its arrivals exactly-or-more.
  for (std::int64_t t = 0; t < 3; ++t) {
    EXPECT_GE(r.schedule.At(t) + 1e-9, workload[static_cast<std::size_t>(t)]);
  }
}

TEST(DpScheduler, ReportsTrellisDiagnostics) {
  rcbr::Rng rng(37);
  std::vector<double> workload(30);
  for (double& a : workload) a = rng.Uniform(0.0, 4.0);
  DpOptions options;
  options.rate_levels = UniformRateLevels(0.0, 4.0, 5);
  options.buffer_bits = 6.0;
  const DpResult r = ComputeOptimalSchedule(workload, options);
  EXPECT_GT(r.total_nodes, 0u);
  EXPECT_GT(r.peak_live_nodes, 0u);
}

TEST(DpScheduler, FinalBufferConstraintDrainsTail) {
  DpOptions options = SmallOptions();
  const std::vector<double> workload(20, 2.0);
  options.final_buffer_bits = 0.0;
  const DpResult r = ComputeOptimalSchedule(workload, options);
  // The tail trick (leaving bits buffered) is now forbidden: flat rate 2
  // throughout is optimal again.
  EXPECT_DOUBLE_EQ(r.optimal_cost, 40.0);
  // Terminal occupancy must be zero.
  double q = 0;
  for (std::size_t t = 0; t < workload.size(); ++t) {
    q = std::max(q + workload[t] -
                     r.schedule.At(static_cast<std::int64_t>(t)),
                 0.0);
  }
  EXPECT_NEAR(q, 0.0, 1e-9);
}

TEST(DpScheduler, FinalBufferConstraintCostsAtLeastUnconstrained) {
  rcbr::Rng rng(43);
  std::vector<double> workload(60);
  for (double& a : workload) a = rng.Uniform(0.0, 6.0);
  DpOptions options;
  options.rate_levels = UniformRateLevels(0.0, 6.0, 7);
  options.buffer_bits = 8.0;
  options.cost = {2.0, 1.0};
  const DpResult loose = ComputeOptimalSchedule(workload, options);
  options.final_buffer_bits = 0.0;
  const DpResult drained = ComputeOptimalSchedule(workload, options);
  EXPECT_GE(drained.optimal_cost, loose.optimal_cost - 1e-9);
}

TEST(DpScheduler, ImpossibleFinalBufferThrows) {
  // Arrivals in the last slot exceed the top rate: the buffer cannot be
  // empty at the end.
  DpOptions options;
  options.rate_levels = {0.0, 2.0};
  options.buffer_bits = 10.0;
  options.final_buffer_bits = 0.0;
  EXPECT_THROW(ComputeOptimalSchedule({1.0, 1.0, 5.0}, options),
               Infeasible);
}

TEST(DpScheduler, TinyResidencyBudgetStillSolvesExactly) {
  rcbr::Rng rng(41);
  std::vector<double> workload(200);
  for (double& a : workload) a = rng.Uniform(0.0, 10.0);
  DpOptions options;
  options.rate_levels = UniformRateLevels(0.0, 10.0, 21);
  options.buffer_bits = 50.0;
  const DpResult roomy = ComputeOptimalSchedule(workload, options);
  EXPECT_EQ(roomy.recomputed_epochs, 0);

  // An absurdly small residency budget forces every block but the last to
  // spill and be recomputed during backtracking; the result must be
  // byte-identical to the fully resident solve.
  options.max_resident_nodes = 100;
  options.checkpoint_slots = 16;
  const DpResult tight = ComputeOptimalSchedule(workload, options);
  EXPECT_GT(tight.recomputed_epochs, 0);
  EXPECT_LT(tight.peak_resident_nodes, roomy.peak_resident_nodes);
  EXPECT_EQ(tight.optimal_cost, roomy.optimal_cost);
  ASSERT_EQ(tight.schedule.steps().size(), roomy.schedule.steps().size());
  for (std::size_t i = 0; i < tight.schedule.steps().size(); ++i) {
    EXPECT_EQ(tight.schedule.steps()[i].start,
              roomy.schedule.steps()[i].start);
    EXPECT_EQ(tight.schedule.steps()[i].value,
              roomy.schedule.steps()[i].value);
  }
}

TEST(DpScheduler, ByteIdenticalAcrossThreadCounts) {
  // A tab1-shaped grid on a streamed trellis (blocks spill and are
  // recomputed during backtracking): every thread count must reproduce the
  // serial cost, schedule, and diagnostics bit for bit.
  rcbr::Rng rng(21);
  std::vector<double> workload(300);
  for (double& a : workload) a = rng.Uniform(0.0, 10.0);
  DpOptions options;
  options.rate_levels = UniformRateLevels(0.0, 10.0, 21);
  options.buffer_bits = 40.0;
  options.cost = {4.0, 1.0};
  options.max_resident_nodes = 200;
  options.checkpoint_slots = 32;
  const DpResult serial = ComputeOptimalSchedule(workload, options);
  EXPECT_GT(serial.recomputed_epochs, 0);
  for (const std::size_t threads : {2u, 8u}) {
    options.threads = threads;
    const DpResult parallel = ComputeOptimalSchedule(workload, options);
    EXPECT_EQ(parallel.optimal_cost, serial.optimal_cost);
    EXPECT_TRUE(parallel.schedule == serial.schedule) << threads;
    EXPECT_EQ(parallel.total_nodes, serial.total_nodes);
    EXPECT_EQ(parallel.peak_live_nodes, serial.peak_live_nodes);
    EXPECT_EQ(parallel.recomputed_epochs, serial.recomputed_epochs);
  }
}

TEST(DpScheduler, PagedArenaMatchesRoomySerialSolve) {
  // Records live in 64 KiB pages (DpOptions::max_resident_nodes), most
  // of this trellis's at 2 bytes. Blocks of several pages each are spilled
  // never, always, or under a budget of whole pages, at 1, 2 and 4
  // threads: every solve must reproduce the roomy serial one bit for bit.
  constexpr std::size_t kPageBytes = 64 * 1024;
  constexpr std::size_t kPageRecords = kPageBytes / 2;
  const trace::FrameTrace movie = trace::MakeStarWarsTrace(5, 240);
  const std::vector<double>& workload = movie.frame_bits();
  DpOptions options;
  options.rate_levels.push_back(0.0);
  const auto grid = UniformRateLevels(48.0 * kKilobit / movie.fps(),
                                      2400.0 * kKilobit / movie.fps(), 100);
  options.rate_levels.insert(options.rate_levels.end(), grid.begin(),
                             grid.end());
  options.buffer_bits = 300 * kKilobit;
  options.cost = {3000.0, 1.0 / movie.fps()};
  options.buffer_quantum_bits = 4.0 * kKilobit;

  std::vector<std::size_t> live;  // survivors per epoch
  options.inspect = [&](const DpFrontierView& view) {
    live.push_back(view.live_nodes);
  };
  const DpResult roomy = ComputeOptimalSchedule(workload, options);
  options.inspect = nullptr;
  ASSERT_EQ(roomy.recomputed_epochs, 0);

  for (const std::int64_t checkpoint : {48, 80}) {
    // The sweep means something only if every block spans over two pages.
    const std::vector<std::size_t> blocks =
        reference::ReferenceBlockRecordBytes(
            live, options.rate_levels.size(),
            static_cast<std::size_t>(checkpoint));
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      ASSERT_GT(blocks[b], 2 * kPageBytes) << "block " << b;
    }
    const auto epochs = static_cast<std::int64_t>(live.size());
    // Epochs before the last block: what spilling every block replays.
    const std::int64_t before_last = (epochs - 1) / checkpoint * checkpoint;
    for (const std::size_t budget :
         {std::size_t{60'000'000}, std::size_t{1}, 8 * kPageRecords}) {
      options.checkpoint_slots = checkpoint;
      options.max_resident_nodes = budget;
      options.threads = 1;
      const DpResult serial = ComputeOptimalSchedule(workload, options);
      if (budget == 60'000'000) {
        EXPECT_EQ(serial.recomputed_epochs, 0);
      } else if (budget == 1) {
        EXPECT_EQ(serial.recomputed_epochs, before_last);
      } else {  // some blocks spill, not all
        EXPECT_GT(serial.recomputed_epochs, 0);
        EXPECT_LT(serial.recomputed_epochs, before_last);
      }
      for (const std::size_t threads : {1u, 2u, 4u}) {
        options.threads = threads;
        const DpResult r = threads == 1
                               ? serial
                               : ComputeOptimalSchedule(workload, options);
        SCOPED_TRACE(testing::Message() << "checkpoint " << checkpoint
                                        << " budget " << budget
                                        << " threads " << threads);
        EXPECT_EQ(r.optimal_cost, roomy.optimal_cost);
        EXPECT_TRUE(r.schedule == roomy.schedule);
        EXPECT_EQ(r.total_nodes, roomy.total_nodes);
        EXPECT_EQ(r.peak_live_nodes, roomy.peak_live_nodes);
        EXPECT_EQ(r.recomputed_epochs, serial.recomputed_epochs);
        EXPECT_EQ(r.peak_resident_nodes, serial.peak_resident_nodes);
      }
    }
  }
}

/// Solves `workload` roomy and serial, then checkpointed every
/// `checkpoint` epochs, roomy and spilling every block, at 1 and 4
/// threads. Every solve must match the roomy serial one, its schedule
/// must price at the optimal cost, and its record bytes must be those the
/// epochs' survivor counts give. Returns those counts.
std::vector<std::size_t> ExpectRecordsMatchAcrossBudgetsAndThreads(
    const std::vector<double>& workload, DpOptions options,
    std::size_t checkpoint) {
  const std::size_t k = options.rate_levels.size();
  std::vector<std::size_t> live;  // survivors per epoch
  options.inspect = [&](const DpFrontierView& view) {
    live.push_back(view.live_nodes);
  };
  const DpResult roomy = ComputeOptimalSchedule(workload, options);
  options.inspect = nullptr;
  EXPECT_EQ(roomy.recomputed_epochs, 0);
  EXPECT_EQ(roomy.peak_record_bytes,
            reference::ReferenceBlockRecordBytes(live, k, live.size())[0]);
  const std::optional<double> priced =
      reference::ReferenceScheduleCost(workload, options, roomy.schedule);
  EXPECT_TRUE(priced.has_value());
  if (priced) {
    EXPECT_NEAR(*priced, roomy.optimal_cost, 1e-9 * roomy.optimal_cost);
  }

  const std::vector<std::size_t> blocks =
      reference::ReferenceBlockRecordBytes(live, k, checkpoint);
  EXPECT_GT(blocks.size(), 2u);
  const auto epochs = static_cast<std::int64_t>(live.size());
  const auto cadence = static_cast<std::int64_t>(checkpoint);
  const std::int64_t before_last = (epochs - 1) / cadence * cadence;
  options.checkpoint_slots = cadence;
  for (const std::size_t budget : {std::size_t{60'000'000}, std::size_t{1}}) {
    options.max_resident_nodes = budget;
    for (const std::size_t threads : {1u, 4u}) {
      options.threads = threads;
      const DpResult r = ComputeOptimalSchedule(workload, options);
      SCOPED_TRACE(testing::Message()
                   << "budget " << budget << " threads " << threads);
      EXPECT_EQ(r.optimal_cost, roomy.optimal_cost);
      EXPECT_TRUE(r.schedule == roomy.schedule);
      EXPECT_EQ(r.total_nodes, roomy.total_nodes);
      EXPECT_EQ(r.peak_live_nodes, roomy.peak_live_nodes);
      if (budget == 1) {  // only the block being written stays resident
        EXPECT_EQ(r.recomputed_epochs, before_last);
        EXPECT_EQ(r.peak_record_bytes,
                  *std::max_element(blocks.begin(), blocks.end()));
      } else {
        EXPECT_EQ(r.recomputed_epochs, 0);
        EXPECT_EQ(r.peak_record_bytes,
                  std::accumulate(blocks.begin(), blocks.end(),
                                  std::size_t{0}));
      }
    }
  }

  return live;
}

/// Record width of each epoch: its survivor count and its parents, below
/// the previous epoch's count, must fit.
std::vector<std::size_t> RecordWidths(const std::vector<std::size_t>& live) {
  std::vector<std::size_t> widths;
  for (std::size_t e = 0; e < live.size(); ++e) {
    widths.push_back(reference::ReferenceRecordWidth(
        std::max(live[e], e == 0 ? 0 : live[e - 1])));
  }
  return widths;
}

/// True when some epoch of a block (not its first) changes width from the
/// epoch before it in the direction `cmp` gives.
template <class Cmp>
bool WidthChangesInsideBlock(const std::vector<std::size_t>& widths,
                             std::size_t checkpoint, Cmp cmp) {
  for (std::size_t e = 1; e < widths.size(); ++e) {
    if (e % checkpoint != 0 && cmp(widths[e], widths[e - 1])) return true;
  }
  return false;
}

TEST(DpScheduler, EveryRecordWidthMatchesAcrossBudgetsAndThreads) {
  // Unquantized buffers on tab1's K = 100 grid widen the frontier from
  // one seed per rate to over 65535 nodes, so one solve stores epochs at
  // 1, 2 and 4 bytes and widens inside a block. Checkpointed, every block
  // after the first opens with a seed epoch whose parents are checkpoint
  // positions.
  const trace::FrameTrace movie = trace::MakeStarWarsTrace(1, 240);
  DpOptions options;
  options.rate_levels.push_back(0.0);
  const auto grid = UniformRateLevels(48.0 * kKilobit / movie.fps(),
                                      2400.0 * kKilobit / movie.fps(), 100);
  options.rate_levels.insert(options.rate_levels.end(), grid.begin(),
                             grid.end());
  options.buffer_bits = 300 * kKilobit;
  options.cost = {3000.0, 1.0 / movie.fps()};
  const std::vector<std::size_t> widths = RecordWidths(
      ExpectRecordsMatchAcrossBudgetsAndThreads(movie.frame_bits(), options,
                                                48));
  for (const std::size_t width : {1u, 2u, 4u}) {
    EXPECT_NE(std::find(widths.begin(), widths.end(), width), widths.end())
        << "no " << width << "-byte epoch";
  }
  EXPECT_TRUE(WidthChangesInsideBlock(widths, 48, std::greater<>()));

  // A frontier that swings across 255 nodes: an epoch of fewer survivors
  // still takes 2 bytes when its parents index a wider previous epoch.
  rcbr::Rng rng(21);
  std::vector<double> workload(300);
  for (double& a : workload) a = rng.Uniform(0.0, 10.0);
  DpOptions swinging;
  swinging.rate_levels = UniformRateLevels(0.0, 10.0, 11);
  swinging.buffer_bits = 30.0;
  swinging.cost = {4.0, 1.0};
  const std::vector<std::size_t> live =
      ExpectRecordsMatchAcrossBudgetsAndThreads(workload, swinging, 40);
  const std::vector<std::size_t> swing = RecordWidths(live);
  EXPECT_TRUE(WidthChangesInsideBlock(swing, 40, std::greater<>()));
  EXPECT_TRUE(WidthChangesInsideBlock(swing, 40, std::less<>()));
  bool parents_widen = false;
  for (std::size_t e = 0; e < live.size(); ++e) {
    if (reference::ReferenceRecordWidth(live[e]) < swing[e]) {
      parents_widen = true;
    }
  }
  EXPECT_TRUE(parents_widen);
}

TEST(DpScheduler, RecordWidthSkipsAWidthWhoseSentinelIsAValue) {
  // An epoch's largest value is its last run end, its survivor count. At
  // exactly 0xff or 0xffff it equals that width's all-ones no-parent
  // sentinel, so the epoch takes the next width. Epoch 33 of this
  // swinging frontier keeps 255 survivors after 254.
  rcbr::Rng rng(1);
  std::vector<double> workload(300);
  for (double& a : workload) a = rng.Uniform(0.0, 10.0);
  DpOptions swinging;
  swinging.rate_levels = UniformRateLevels(0.0, 10.0, 11);
  swinging.buffer_bits = 30.0;
  swinging.cost = {4.0, 1.0};
  const std::vector<std::size_t> live =
      ExpectRecordsMatchAcrossBudgetsAndThreads(workload, swinging, 40);
  ASSERT_GT(live.size(), 33u);
  EXPECT_EQ(live[32], 254u);
  EXPECT_EQ(live[33], 255u);
  EXPECT_EQ(RecordWidths(live)[33], 2u);

  // Without arrivals every rate keeps one node at an empty buffer, so
  // 65535 rate levels keep exactly 0xffff survivors in every epoch.
  DpOptions wide;
  wide.rate_levels = UniformRateLevels(0.0, 1.0, 0xffff);
  wide.buffer_bits = 1.0;
  wide.cost = {1.0, 1.0};
  const std::vector<std::size_t> flat =
      ExpectRecordsMatchAcrossBudgetsAndThreads(std::vector<double>(3, 0.0),
                                                wide, 1);
  EXPECT_EQ(flat, std::vector<std::size_t>(3, 0xffff));
  EXPECT_EQ(RecordWidths(flat), std::vector<std::size_t>(3, 4));
}

}  // namespace
}  // namespace rcbr::core
