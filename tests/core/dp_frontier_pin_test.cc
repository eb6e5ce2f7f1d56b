// Byte pins for two benchmark-sized DP solves: the MBAC engine's set-up
// solve (41 levels of 64 kb/s, 2 kb quantum, a decision every 6 slots, a
// drained terminal buffer) on a 1440-frame Star Wars trace, and tab1's
// K = 100 grid (4 kb quantum) on a 900-frame one. Every epoch's buffers,
// weights and parents, seen through DpOptions::inspect, are hashed with
// FNV-1a; the per-epoch hashes and every DpResult field are folded into
// one text dump whose size and hash are pinned. Each solve runs at 1 and
// 4 worker threads and must give the same dump.
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dp_scheduler.h"
#include "fnv1a.h"
#include "trace/star_wars.h"
#include "util/units.h"

namespace rcbr::core {
namespace {

using testutil::Fnv1a;

void Append(std::string& out, const char* key, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%" PRIx64, key, value);
  out += buf;
}

template <class T>
void AppendBytes(std::string& out, std::span<const T> values) {
  out.append(reinterpret_cast<const char*>(values.data()),
             values.size_bytes());
}

// One line per epoch (its first slot, live and arena counts and the hash
// of its frontiers' bytes, rate by rate), then one for the result.
std::string SolveDump(const std::vector<double>& bits, DpOptions options,
                      std::size_t threads) {
  std::string dump;
  std::string epoch;
  options.threads = threads;
  options.inspect = [&](const DpFrontierView& view) {
    epoch.clear();
    for (std::size_t v = 0; v < view.num_rates; ++v) {
      const std::uint64_t n = view.buffers(v).size();
      AppendBytes(epoch, std::span<const std::uint64_t>(&n, 1));
      AppendBytes(epoch, view.buffers(v));
      AppendBytes(epoch, view.weights(v));
      AppendBytes(epoch, view.parents(v));
    }
    dump += "epoch";
    Append(dump, "slot", static_cast<std::uint64_t>(view.first_slot));
    Append(dump, "live", view.live_nodes);
    Append(dump, "arena", view.arena_nodes);
    Append(dump, "hash", Fnv1a(epoch));
    dump += "\n";
  };
  const DpResult result = ComputeOptimalSchedule(bits, options);
  dump += "result";
  Append(dump, "length",
         static_cast<std::uint64_t>(result.schedule.length()));
  for (const Step& step : result.schedule.steps()) {
    Append(dump, "at", static_cast<std::uint64_t>(step.start));
    Append(dump, "v", std::bit_cast<std::uint64_t>(step.value));
  }
  Append(dump, "cost", std::bit_cast<std::uint64_t>(result.optimal_cost));
  Append(dump, "peak_live", result.peak_live_nodes);
  Append(dump, "total", result.total_nodes);
  Append(dump, "peak_resident", result.peak_resident_nodes);
  Append(dump, "recomputed",
         static_cast<std::uint64_t>(result.recomputed_epochs));
  Append(dump, "record_bytes", result.peak_record_bytes);
  dump += "\n";
  return dump;
}

void ExpectPinned(const std::vector<double>& bits, const DpOptions& options,
                  std::size_t size, std::uint64_t hash) {
  const std::string serial = SolveDump(bits, options, 1);
  EXPECT_EQ(serial.size(), size);
  EXPECT_EQ(Fnv1a(serial), hash);
  EXPECT_EQ(SolveDump(bits, options, 4), serial);
}

TEST(DpFrontierPin, MbacSetupSolve) {
  const trace::FrameTrace movie = trace::MakeStarWarsTrace(1995, 1440);
  DpOptions options;
  const double step = 64.0 * kKilobit / movie.fps();
  for (int k = 0; k <= 40; ++k) {
    options.rate_levels.push_back(step * static_cast<double>(k));
  }
  options.buffer_bits = 300.0 * kKilobit;
  options.cost = {3000.0, 1.0 / movie.fps()};
  options.buffer_quantum_bits = 2.0 * kKilobit;
  options.decision_period = 6;
  options.final_buffer_bits = 0.0;
  ExpectPinned(movie.frame_bits(), options, 13927, 15267172950516218063ull);
}

TEST(DpFrontierPin, Tab1K100Solve) {
  const trace::FrameTrace movie = trace::MakeStarWarsTrace(1995, 900);
  DpOptions options;
  options.rate_levels.push_back(0.0);
  const std::vector<double> grid = UniformRateLevels(
      48.0 * kKilobit / movie.fps(), 2400.0 * kKilobit / movie.fps(), 100);
  options.rate_levels.insert(options.rate_levels.end(), grid.begin(),
                             grid.end());
  options.buffer_bits = 300 * kKilobit;
  options.cost = {3000.0, 1.0 / movie.fps()};
  options.buffer_quantum_bits = 4.0 * kKilobit;
  ExpectPinned(movie.frame_bits(), options, 53302, 7290820382642806055ull);
}

}  // namespace
}  // namespace rcbr::core
