// Byte pins for the two causal renegotiation heuristics (Sec. IV-B): the
// AR(1) controller and the GOP-aware one, open-loop over a Star Wars
// trace at three granularities, with a rate cap and at two GOP lengths,
// and online, each driving an RcbrSource over a two-hop path tight
// enough to deny requests. Every schedule step (start, raw value bits),
// every online slot's outcome and the SourceStats are folded into one
// text dump whose size and FNV-1a hash are pinned, plus those of the
// online runs' trace JSONL.
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/gop_heuristic.h"
#include "core/online_heuristic.h"
#include "core/rcbr_source.h"
#include "fnv1a.h"
#include "obs/recorder.h"
#include "signaling/path.h"
#include "signaling/port_controller.h"
#include "trace/star_wars.h"
#include "util/piecewise.h"
#include "util/units.h"

namespace rcbr::core {
namespace {

using testutil::Fnv1a;

void Append(std::string& out, const char* key, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%" PRIx64, key, value);
  out += buf;
}

void AppendBits(std::string& out, const char* key, double value) {
  Append(out, key, std::bit_cast<std::uint64_t>(value));
}

void AppendCount(std::string& out, const char* key, std::int64_t value) {
  Append(out, key, static_cast<std::uint64_t>(value));
}

// The GOP-aware controller for a GOP of `gop_slots` frames, with the
// thresholds, granularity, initial rate and cap of `h` and its buffer
// flush over h.time_constant_slots.
std::unique_ptr<RateController> MakeGop(const HeuristicOptions& h,
                                        std::size_t gop_slots) {
  return std::make_unique<GopAwareController>(h, gop_slots);
}

PiecewiseConstant GopSchedule(const std::vector<double>& bits,
                              const HeuristicOptions& h,
                              std::size_t gop_slots) {
  GopAwareController controller(h, gop_slots);
  return ComputeHeuristicSchedule(bits, controller);
}

// The paper's Fig. 2 knobs: B_l = 10 kb, B_h = 150 kb, T = 5 frames.
HeuristicOptions Fig2Options(const trace::FrameTrace& clip,
                             double delta_kbps) {
  HeuristicOptions h;
  h.low_threshold_bits = 10 * kKilobit;
  h.high_threshold_bits = 150 * kKilobit;
  h.time_constant_slots = 5;
  h.granularity_bits_per_slot = delta_kbps * kKilobit / clip.fps();
  h.initial_rate_bits_per_slot = clip.mean_rate() / clip.fps();
  return h;
}

void AppendSchedule(std::string& out, const char* name,
                    const PiecewiseConstant& schedule) {
  out += name;
  AppendCount(out, "length", schedule.length());
  AppendCount(out, "steps",
              static_cast<std::int64_t>(schedule.steps().size()));
  for (const Step& step : schedule.steps()) {
    AppendCount(out, "at", step.start);
    AppendBits(out, "v", step.value);
  }
  out += "\n";
}

// Two hops whose spare capacity sits a little above the clip's mean, so
// the heuristics' upward requests are sometimes refused.
class HeuristicPin : public ::testing::Test {
 protected:
  HeuristicPin()
      : clip_(trace::MakeStarWarsTrace(51, 2880)),
        recorder_(TraceOptions()),
        near_(1.4 * clip_.mean_rate(), true),
        far_(1.6 * clip_.mean_rate(), true),
        path_({&near_, &far_}, 1 * kMillisecond) {}

  static obs::RecorderOptions TraceOptions() {
    obs::RecorderOptions options;
    options.event_capacity = 1 << 16;
    return options;
  }

  HeuristicOptions Options() const {
    HeuristicOptions h;
    h.low_threshold_bits = 10 * kKilobit;
    h.high_threshold_bits = 150 * kKilobit;
    h.time_constant_slots = 5;
    h.granularity_bits_per_slot = 64.0 * kKilobit / clip_.fps();
    h.initial_rate_bits_per_slot = clip_.mean_rate() / clip_.fps();
    return h;
  }

  std::string Run(RcbrSource& source) {
    EXPECT_TRUE(source.Connect());
    std::string out;
    for (std::int64_t t = 0; t < clip_.frame_count(); ++t) {
      const RcbrSource::SlotResult r = source.Step(clip_.bits(t));
      out += "step";
      AppendBits(out, "rate", r.granted_rate_bits_per_slot);
      AppendCount(out, "reneg", r.renegotiated);
      AppendCount(out, "failed", r.renegotiation_failed);
      AppendBits(out, "lost", r.lost_bits);
      AppendBits(out, "buffer", source.buffer_occupancy_bits());
      out += "\n";
    }
    const SourceStats& s = source.stats();
    out += "stats";
    AppendCount(out, "slots", s.slots);
    AppendCount(out, "attempts", s.renegotiation_attempts);
    AppendCount(out, "failures", s.renegotiation_failures);
    AppendCount(out, "timeouts", s.renegotiation_timeouts);
    AppendCount(out, "holds", s.degrade_holds);
    AppendCount(out, "fallbacks", s.fallback_entries);
    AppendCount(out, "recoveries", s.recoveries);
    AppendCount(out, "downgraded", s.downgraded_connects);
    AppendCount(out, "upgrades", s.upgrades);
    AppendBits(out, "lost", s.lost_bits);
    AppendBits(out, "arrived", s.arrived_bits);
    AppendBits(out, "max_buffer", s.max_buffer_bits);
    out += "\n";
    EXPECT_GT(s.renegotiation_failures, 0);
    EXPECT_GT(s.renegotiation_attempts, s.renegotiation_failures);
    return out;
  }

  void ExpectPinned(const std::string& dump, std::size_t dump_size,
                    std::uint64_t dump_hash, std::size_t trace_size,
                    std::uint64_t trace_hash) {
    EXPECT_EQ(dump.size(), dump_size);
    EXPECT_EQ(Fnv1a(dump), dump_hash);
    std::string trace;
    if (const obs::EventLog* log = recorder_.events(); log != nullptr) {
      EXPECT_EQ(log->dropped(), 0);
      obs::AppendJsonl(0, log->Head(), trace);
    }
    if constexpr (!obs::kEnabled) {
      EXPECT_TRUE(trace.empty());
      return;
    }
    EXPECT_EQ(trace.size(), trace_size);
    EXPECT_EQ(Fnv1a(trace), trace_hash);
  }

  trace::FrameTrace clip_;
  obs::Recorder recorder_;
  signaling::PortController near_;
  signaling::PortController far_;
  signaling::SignalingPath path_;
};

TEST_F(HeuristicPin, OpenLoopSchedules) {
  const trace::FrameTrace clip = trace::MakeStarWarsTrace(11, 3600);
  const std::vector<double>& bits = clip.frame_bits();
  std::string dump;
  for (const double delta_kbps : {25.0, 100.0, 400.0}) {
    const HeuristicOptions h = Fig2Options(clip, delta_kbps);
    AppendSchedule(dump, "ar1", ComputeHeuristicSchedule(bits, h));
    AppendSchedule(dump, "gop12", GopSchedule(bits, h, 12));
  }
  const HeuristicOptions h = Fig2Options(clip, 100.0);
  AppendSchedule(dump, "gop4", GopSchedule(bits, h, 4));

  // A cap below the peaks the uncapped runs ask for.
  HeuristicOptions capped = h;
  capped.max_rate_bits_per_slot = 2.5 * h.initial_rate_bits_per_slot;
  const PiecewiseConstant ar1_capped =
      ComputeHeuristicSchedule(bits, capped);
  const PiecewiseConstant gop_capped = GopSchedule(bits, capped, 12);
  const double on_grid_cap =
      std::floor(capped.max_rate_bits_per_slot /
                 capped.granularity_bits_per_slot) *
      capped.granularity_bits_per_slot;
  EXPECT_EQ(ar1_capped.MaxValue(), on_grid_cap);
  EXPECT_EQ(gop_capped.MaxValue(), on_grid_cap);
  AppendSchedule(dump, "ar1_capped", ar1_capped);
  AppendSchedule(dump, "gop12_capped", gop_capped);

  EXPECT_EQ(dump.size(), 20674u);
  EXPECT_EQ(Fnv1a(dump), 9462573731632965529ull);
}

TEST_F(HeuristicPin, Ar1SourceOverTightPath) {
  RcbrSource source =
      RcbrSource::Online(1, Options(), clip_.slot_seconds(),
                         500 * kKilobit, &path_, &recorder_);
  ExpectPinned(Run(source), 233030, 7562675900972355643ull, 1459867,
               7489178871468326829ull);
}

TEST_F(HeuristicPin, GopSourceOverTightPath) {
  // The source wires its recorder into the controller, as for AR(1): the
  // trace holds the controller's kRenegRequest (rate, buffer, estimate)
  // before each of the source's own request events.
  RcbrSource source =
      RcbrSource::OnlineWith(1, MakeGop(Options(), 12), clip_.slot_seconds(),
                             500 * kKilobit, &path_, &recorder_);
  ExpectPinned(Run(source), 233135, 17268393997571257816ull, 1450914,
               14924784646557161273ull);
}

}  // namespace
}  // namespace rcbr::core
