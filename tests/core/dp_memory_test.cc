// The DP's heap peak is its resident backtracking record bytes plus a
// bounded allowance: the records are never reallocated, so no moment
// holds two copies of them. This binary replaces the global allocation
// functions to track the live heap bytes, and their peak, while one
// tab1-shaped solve runs.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dp_scheduler.h"
#include "dp_reference.h"
#include "trace/star_wars.h"
#include "util/units.h"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

void Track(std::int64_t delta) {
  const std::int64_t live =
      g_live_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

// Out of line, so the compiler never pairs a new-expression with the
// free() inside.
[[gnu::noinline]] void Release(void* p) noexcept {
  if (p == nullptr) return;
  Track(-static_cast<std::int64_t>(malloc_usable_size(p)));
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    Track(static_cast<std::int64_t>(malloc_usable_size(p)));
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }

namespace rcbr::core {
namespace {

/// tab1_dp_runtime's K = 100 options for a trace at `fps`.
DpOptions Tab1Options(double fps) {
  DpOptions options;
  options.rate_levels.push_back(0.0);
  const auto grid = UniformRateLevels(48.0 * kKilobit / fps,
                                      2400.0 * kKilobit / fps, 100);
  options.rate_levels.insert(options.rate_levels.end(), grid.begin(),
                             grid.end());
  options.buffer_bits = 300 * kKilobit;
  options.cost = {3000.0, 1.0 / fps};
  options.buffer_quantum_bits = 4.0 * kKilobit;
  return options;
}

/// Size of the cross-rate Pareto frontier of one epoch's view: the nodes
/// no other node beats on both buffer and weight.
std::size_t GlobalFrontierSize(const DpFrontierView& view) {
  std::vector<std::pair<double, double>> nodes;
  for (std::size_t v = 0; v < view.num_rates; ++v) {
    const auto b = view.buffers(v);
    const auto w = view.weights(v);
    for (std::size_t i = 0; i < b.size(); ++i) nodes.emplace_back(b[i], w[i]);
  }
  std::sort(nodes.begin(), nodes.end());
  std::size_t size = 0;
  double lightest = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0 && nodes[i].first == nodes[i - 1].first) continue;
    if (size > 0 && nodes[i].second >= lightest) continue;
    lightest = nodes[i].second;
    ++size;
  }
  return size;
}

TEST(DpMemory, PeakHeapIsResidentRecordBytesPlusAllowance) {
  const trace::FrameTrace movie = trace::MakeStarWarsTrace(1, 1800);
  const std::vector<double>& bits = movie.frame_bits();
  DpOptions options = Tab1Options(movie.fps());
  const std::size_t k = options.rate_levels.size();
  const std::size_t epochs = bits.size();

  // An unmeasured solve sizes the frontier arrays: an epoch that follows
  // `live` nodes whose cross-rate frontier holds `g` offers every rate its
  // own run plus that frontier, live + K * g output slots.
  std::size_t widest_output = 0;
  std::size_t widest_global = 0;
  std::vector<std::size_t> live;  // survivors per epoch
  options.inspect = [&](const DpFrontierView& view) {
    live.push_back(view.live_nodes);
    const std::size_t g = GlobalFrontierSize(view);
    widest_output = std::max(widest_output, view.live_nodes + k * g);
    widest_global = std::max(widest_global, g);
  };
  const DpResult sized = ComputeOptimalSchedule(bits, options);
  options.inspect = nullptr;

  const std::int64_t base = g_live_bytes.load();
  g_peak_bytes.store(base);
  const DpResult r = ComputeOptimalSchedule(bits, options);
  const std::int64_t peak = g_peak_bytes.load() - base;
  ASSERT_EQ(r.total_nodes, sized.total_nodes);
  ASSERT_EQ(r.peak_resident_nodes, r.total_nodes);  // one resident block
  ASSERT_EQ(r.peak_record_bytes,
            reference::ReferenceBlockRecordBytes(live, k, epochs)[0]);

  // The records are the parents and run ends, at 1, 2 or 4 bytes each
  // (DpResult::peak_record_bytes). The allowance, in bytes:
  //  - two frontiers (current and next) of 20 bytes per output slot (a
  //    buffer, a weight, a backpointer), at most doubled by vector growth;
  //  - the cross-rate frontier and its merge scratch, likewise;
  //  - one partly filled 64 KiB page of records, and the page table at
  //    8 bytes per page, doubled by vector growth;
  //  - the per-epoch record table (byte base and width), 16 bytes;
  //  - the per-rate bookkeeping (coefficients, offsets), 64 bytes a rate;
  //  - the per-slot buffer bound, the decisions and the schedule steps;
  //  - no checkpoints: the default cadence keeps this solve in one block.
  const auto records = static_cast<std::int64_t>(r.peak_record_bytes);
  const std::size_t pages = r.peak_record_bytes / (64 * 1024) + 1;
  const auto allowance = static_cast<std::int64_t>(
      2 * 20 * 2 * widest_output + 2 * 20 * 2 * widest_global + 64 * 1024 +
      2 * 8 * pages + 16 * epochs + 64 * k + (8 + 2 + 2 * 16) * epochs);
  RecordProperty("peak_bytes", std::to_string(peak));
  RecordProperty("record_bytes", std::to_string(records));
  RecordProperty("allowance_bytes", std::to_string(allowance));
  EXPECT_GE(peak, records);
  EXPECT_LE(peak, records + allowance)
      << "records " << records << " B, allowance " << allowance << " B";
}

}  // namespace
}  // namespace rcbr::core
