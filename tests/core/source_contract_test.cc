// Byte pins for the RCBR source's contract with the network: a ladder
// connect that downgrades, rung-scaled renegotiations through the
// acknowledged retry transport on a lossy two-hop path, a denial, a
// timeout, a failed upgrade and a granted one. Each run folds every
// step's granted rate and rung (doubles as raw bits), the upgrade
// verdicts, SourceStats, the transport's stats and the next draw of the
// channel stream into one text dump, and pins its size and FNV-1a hash,
// plus those of the trace JSONL. The ladder's scales are not powers of
// two, so a refactor that reorders scaling and unit conversion moves the
// pins.
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rcbr_source.h"
#include "fnv1a.h"
#include "obs/recorder.h"
#include "signaling/lossy_channel.h"
#include "signaling/path.h"
#include "signaling/port_controller.h"
#include "signaling/retry.h"
#include "sim/rate_ladder.h"
#include "util/piecewise.h"
#include "util/rng.h"

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

constexpr std::uint64_t kCompetitor = 99;
constexpr double kSlotSeconds = 0.04;

// Two 1000 b/s hops, a competitor holding most of both, and a lossy
// channel whose conditions the test switches to a total outage for a
// few slots.
class SourceContractPin : public ::testing::Test {
 protected:
  SourceContractPin() : recorder_(TraceOptions()), rng_(31) {
    for (int k = 0; k < 2; ++k) {
      ports_.push_back(
          std::make_unique<signaling::PortController>(1000.0, true));
    }
    std::vector<signaling::PortController*> hops;
    for (auto& port : ports_) hops.push_back(port.get());
    path_ = std::make_unique<signaling::SignalingPath>(std::move(hops),
                                                       0.001);
    Compete(750.0);
    channel_.cell_loss_probability = 0.25;
    channel_.conditions = &conditions_;
    retry_.max_retries = 2;
    retry_.jitter_fraction = 0.1;
  }

  static obs::RecorderOptions TraceOptions() {
    obs::RecorderOptions options;
    options.event_capacity = 1 << 14;
    return options;
  }

  // Re-admits the competitor at `bps` on both hops (0 = gone).
  void Compete(double bps) {
    for (auto& port : ports_) {
      port->ReleaseConnection(kCompetitor);
      if (bps > 0) {
        ASSERT_TRUE(port->AdmitConnection(kCompetitor, bps));
      }
    }
  }

  static sim::RateLadder Ladder() {
    return sim::RateLadder::FromScales({1.0, 0.6, 0.35}, {1.0, 0.7, 0.4});
  }

  void AppendStep(std::string& out, const RcbrSource& source,
                  const RcbrSource::SlotResult& r) {
    out += "step";
    AppendBits(out, "rate", r.granted_rate_bits_per_slot);
    AppendCount(out, "rung", source.rung());
    AppendCount(out, "reneg", r.renegotiated);
    AppendCount(out, "failed", r.renegotiation_failed);
    AppendBits(out, "latency", r.renegotiation_latency_s);
    AppendCount(out, "cells", r.renegotiation_cells);
    AppendBits(out, "lost", r.lost_bits);
    AppendBits(out, "buffer", source.buffer_occupancy_bits());
    out += "\n";
  }

  void AppendUpgrade(std::string& out, const RcbrSource& source,
                     bool granted) {
    out += "upgrade";
    AppendCount(out, "granted", granted);
    AppendCount(out, "rung", source.rung());
    AppendBits(out, "rate", source.granted_rate());
    out += "\n";
  }

  void AppendEnd(std::string& out, const RcbrSource& source) {
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
    out += "\ntransport";
    const signaling::RetryStats& t = source.transport()->stats();
    AppendCount(out, "requests", t.requests);
    AppendCount(out, "attempts", t.attempts);
    AppendCount(out, "retries", t.retries);
    AppendCount(out, "timeouts", t.timeouts);
    AppendCount(out, "denials", t.denials);
    AppendCount(out, "abandoned", t.abandoned);
    AppendCount(out, "resyncs", t.resyncs);
    AppendBits(out, "acked_bps", source.transport()->granted_rate_bps());
    AppendCount(out, "acked_rung", source.transport()->acked_rung());
    for (const auto& port : ports_) {
      out += "\nhop";
      AppendBits(out, "used", port->utilization_bps());
      AppendBits(out, "tracked", port->TrackedRate(source.vci()));
      AppendCount(out, "waiter", port->IsUpgradeWaiter(source.vci()));
    }
    AppendBits(out, "\nnext_channel_draw", rng_.Uniform());
    out += "\n";
  }

  // The shared script: connect downgraded, step with an outage window,
  // then three upgrade passes. With `expect_rungs` (the offline
  // schedule) the first is denied at both better rungs, the second —
  // after the ask has shrunk — is denied at rung 0 and granted at rung 1,
  // and the third, after the competitor has left, lands at rung 0.
  std::string Run(RcbrSource& source, const std::vector<double>& arrivals,
                  bool expect_rungs = true) {
    source.SetLadder(Ladder());
    source.EnableRobustSignaling(retry_, channel_, &rng_);
    std::string out;
    EXPECT_TRUE(source.Connect());
    EXPECT_EQ(source.rung(), 2u);
    AppendUpgrade(out, source, false);
    for (std::size_t t = 0; t < arrivals.size(); ++t) {
      conditions_.extra_loss_probability = (t >= 10 && t < 13) ? 1.0 : 0.0;
      AppendStep(out, source, source.Step(arrivals[t]));
      // No upgrade probe is abandoned: every walk ends on a grant or on
      // denials, never on a timeout.
      const std::int64_t abandoned = source.transport()->stats().abandoned;
      if (t == 15) {
        AppendUpgrade(out, source, source.TryUpgrade());
        if (expect_rungs) {
          EXPECT_EQ(source.rung(), 2u);
        }
      } else if (t == 18) {
        AppendUpgrade(out, source, source.TryUpgrade());
        if (expect_rungs) {
          EXPECT_EQ(source.rung(), 1u);
        }
      } else if (t == 24) {
        Compete(0);
        AppendUpgrade(out, source, source.TryUpgrade());
        if (expect_rungs) {
          EXPECT_EQ(source.rung(), 0u);
        }
      }
      EXPECT_EQ(source.transport()->stats().abandoned, abandoned);
    }
    AppendEnd(out, source);
    return out;
  }

  std::string TraceJsonl() const {
    std::string out;
    const obs::EventLog* log = recorder_.events();
    if (log == nullptr) return out;
    EXPECT_EQ(log->dropped(), 0);
    obs::AppendJsonl(0, log->Head(), out);
    return out;
  }

  void ExpectPinned(const std::string& dump, std::size_t dump_size,
                    std::uint64_t dump_hash, std::size_t trace_size,
                    std::uint64_t trace_hash) {
    EXPECT_EQ(dump.size(), dump_size) << dump;
    EXPECT_EQ(Fnv1a(dump), dump_hash);
    const std::string trace = TraceJsonl();
    if constexpr (!obs::kEnabled) {
      EXPECT_TRUE(trace.empty());
      return;
    }
    EXPECT_EQ(trace.size(), trace_size);
    EXPECT_EQ(Fnv1a(trace), trace_hash);
  }

  obs::Recorder recorder_;
  std::vector<std::unique_ptr<signaling::PortController>> ports_;
  std::unique_ptr<signaling::SignalingPath> path_;
  Rng rng_;
  signaling::ChannelConditions conditions_;
  signaling::LossyChannelOptions channel_;
  signaling::RetryOptions retry_;
};

TEST_F(SourceContractPin, OfflineSourceLadderRun) {
  // Full asks in bits/slot; at rung 2 the 26 -> 9.1 b/slot step fits the
  // 250 b/s left over, 31 -> 10.85 b/slot does not.
  const PiecewiseConstant schedule({{0, 20.0},
                                    {3, 26.0},
                                    {6, 31.0},
                                    {8, 17.0},
                                    {11, 23.0},
                                    {14, 19.0},
                                    {17, 13.0},
                                    {21, 22.0},
                                    {26, 27.0},
                                    {29, 11.0}},
                                   34);
  RcbrSource source = RcbrSource::Offline(1, schedule, kSlotSeconds, 200.0,
                                          path_.get(), &recorder_);
  const std::string dump = Run(source, std::vector<double>(34, 12.0));
  EXPECT_GT(source.stats().renegotiation_timeouts, 0);
  EXPECT_GT(source.stats().renegotiation_failures,
            source.stats().renegotiation_timeouts);
  EXPECT_EQ(source.stats().upgrades, 2);
  ExpectPinned(dump, 4294, 1886744550313865263ull, 12391,
               14901162522303144763ull);
}

TEST_F(SourceContractPin, OnlineSourceLadderRun) {
  HeuristicOptions heuristic;
  heuristic.low_threshold_bits = 4.0;
  heuristic.high_threshold_bits = 12.0;
  heuristic.time_constant_slots = 2;
  heuristic.granularity_bits_per_slot = 1.5;
  heuristic.initial_rate_bits_per_slot = 20.0;
  heuristic.max_rate_bits_per_slot = 30.0;
  RcbrSource source = RcbrSource::Online(1, heuristic, kSlotSeconds, 200.0,
                                         path_.get(), &recorder_);
  Rng workload(1);
  std::vector<double> arrivals(40);
  for (double& a : arrivals) a = workload.Uniform(2.0, 26.0);
  const std::string dump = Run(source, arrivals, false);
  EXPECT_GT(source.stats().renegotiation_attempts, 0);
  ExpectPinned(dump, 4926, 14166077153619886856ull, 19978,
               866448671065546357ull);
}

// The one upgrade rule: a denial moves an upgrade pass on to the next
// rung, a timeout ends the pass. A source at rung 2 of a depth-3 ladder
// whose channel is in outage spends one probe's retry budget on a pass,
// not one per better rung.
TEST_F(SourceContractPin, TimedOutUpgradeProbeEndsThePass) {
  const PiecewiseConstant schedule({{0, 20.0}}, 8);
  RcbrSource source = RcbrSource::Offline(1, schedule, kSlotSeconds, 200.0,
                                          path_.get());
  channel_.cell_loss_probability = 0;
  retry_.max_retries = 1;
  source.SetLadder(Ladder());
  source.EnableRobustSignaling(retry_, channel_, &rng_);
  ASSERT_TRUE(source.Connect());
  ASSERT_EQ(source.rung(), 2u);

  // Capacity frees, but the signaling channel is down.
  Compete(0);
  conditions_.extra_loss_probability = 1.0;
  Rng reference(31);  // rng_'s seed; nothing has drawn from it yet
  EXPECT_FALSE(source.TryUpgrade());
  EXPECT_EQ(source.rung(), 2u);
  EXPECT_TRUE(ports_[0]->IsUpgradeWaiter(1));
  const signaling::RetryStats& stats = source.transport()->stats();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.attempts, 1 + retry_.max_retries);
  EXPECT_EQ(stats.timeouts, 1 + retry_.max_retries);
  EXPECT_EQ(stats.abandoned, 1);
  // Exactly one probe's draws: a loss per attempt, a jittered backoff
  // between them.
  reference.Bernoulli(1.0);
  signaling::BackoffSeconds(retry_, 0, &reference);
  reference.Bernoulli(1.0);
  EXPECT_EQ(rng_.Uniform(), reference.Uniform());
}

}  // namespace
}  // namespace rcbr::core
