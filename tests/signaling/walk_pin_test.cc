// Byte pins for the delta-cell walk. A seeded random request sequence is
// driven through each of the three transports that carry delta cells
// along a SignalingPath — SignalingPath::RequestDelta, the unacknowledged
// LossyPathRenegotiator and the acknowledged RetryingRenegotiator — on a
// 4-hop path whose third hop is tight, so increases are denied mid-path
// and roll the upstream hops back. Each test folds every port's
// utilization, tracked rates and waiter queue, the transport's stats and
// beliefs, the per-request outcomes and the next draw of each stream into
// one text dump (doubles as raw bits), and pins its size and FNV-1a hash,
// plus those of the trace JSONL and the metrics snapshot. A refactor of
// the walk must leave all three unchanged.
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fnv1a.h"
#include "obs/recorder.h"
#include "signaling/lossy_channel.h"
#include "signaling/path.h"
#include "signaling/retry.h"
#include "util/rng.h"

namespace rcbr::signaling {
namespace {

using testutil::Fnv1a;

constexpr int kRequests = 300;
constexpr std::uint64_t kVcis = 3;

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

// One request of the shared workload: which connection, the rate it asks
// for and the ladder rung it would land on.
struct Request {
  std::uint64_t vci;
  double rate_bps;
  std::uint32_t rung;
};

Request NextRequest(Rng& workload) {
  Request r;
  r.vci = 1 + static_cast<std::uint64_t>(workload.UniformInt(0, kVcis - 1));
  r.rate_bps = workload.Uniform(5e4, 5e5);
  r.rung = static_cast<std::uint32_t>(workload.UniformInt(0, 2));
  return r;
}

// A 4-hop path with a tight third hop, three connections set up on it,
// one recorder shared by the ports and the transport, and a channel whose
// conditions the test switches as requests go by: a loss burst for
// requests [100, 140) and a delay spike far past the retry timeout for
// requests [200, 230).
class WalkPin : public ::testing::Test {
 protected:
  WalkPin() : recorder_(TraceOptions()), rng_(2027), workload_(9) {
    for (double capacity : {1e9, 1e9, 8e5, 1e9}) {
      ports_.push_back(
          std::make_unique<PortController>(capacity, true, &recorder_));
    }
    std::vector<PortController*> hops;
    for (auto& port : ports_) hops.push_back(port.get());
    path_ = std::make_unique<SignalingPath>(std::move(hops), 0.001);
    for (std::uint64_t vci = 1; vci <= kVcis; ++vci) {
      EXPECT_TRUE(path_->SetupConnection(vci, kInitialRate[vci - 1],
                                         /*rung=*/vci == 2 ? 1 : 0));
    }
    channel_.cell_loss_probability = 0.2;
    channel_.resync_every_cells = 5;
    channel_.recorder = &recorder_;
    channel_.conditions = &conditions_;
  }

  static obs::RecorderOptions TraceOptions() {
    obs::RecorderOptions options;
    options.event_capacity = 1 << 15;
    return options;
  }

  double Now(int i) const { return 0.01 * i; }

  void SetConditions(int i) {
    conditions_.extra_loss_probability = (i >= 100 && i < 140) ? 0.5 : 0.0;
    conditions_.extra_delay_s = (i >= 200 && i < 230) ? 1.0 : 0.0;
  }

  // Appends every port's state, the path's stats and the next draw of
  // both streams.
  void AppendNetwork(std::string& out) {
    for (std::size_t k = 0; k < ports_.size(); ++k) {
      const PortController& port = *ports_[k];
      out += "hop";
      AppendCount(out, "k", static_cast<std::int64_t>(k));
      AppendBits(out, "used", port.utilization_bps());
      for (std::uint64_t vci = 1; vci <= kVcis; ++vci) {
        AppendBits(out, "tracked", port.TrackedRate(vci));
      }
      for (std::uint64_t vci : port.upgrade_waiters()) {
        Append(out, "waiter", vci);
      }
      AppendCount(out, "accepted", port.stats().delta_accepted);
      AppendCount(out, "denied", port.stats().delta_denied);
      AppendCount(out, "resyncs", port.stats().resyncs);
      out += "\n";
    }
    out += "path";
    AppendCount(out, "requests", path_->stats().requests);
    AppendCount(out, "failures", path_->stats().failures);
    AppendBits(out, "next_channel_draw", rng_.Uniform());
    AppendBits(out, "next_workload_draw", workload_.Uniform());
    out += "\n";
  }

  std::string TraceJsonl() const {
    std::string out;
    const obs::EventLog* log = recorder_.events();
    if (log == nullptr) return out;
    EXPECT_EQ(log->dropped(), 0);
    obs::AppendJsonl(0, log->Head(), out);
    return out;
  }

  std::string MetricsJson() { return recorder_.metrics().Snapshot().ToJson(); }

  // Pins the dump always, and the trace and metrics when obs is compiled
  // in.
  void ExpectPinned(const std::string& dump, std::size_t dump_size,
                    std::uint64_t dump_hash, std::size_t trace_size,
                    std::uint64_t trace_hash, std::size_t metrics_size,
                    std::uint64_t metrics_hash) {
    EXPECT_EQ(dump.size(), dump_size);
    EXPECT_EQ(Fnv1a(dump), dump_hash);
    const std::string trace = TraceJsonl();
    const std::string metrics = MetricsJson();
    if constexpr (!obs::kEnabled) {
      EXPECT_TRUE(trace.empty());
      return;
    }
    EXPECT_EQ(trace.size(), trace_size);
    EXPECT_EQ(Fnv1a(trace), trace_hash);
    EXPECT_EQ(metrics.size(), metrics_size);
    EXPECT_EQ(Fnv1a(metrics), metrics_hash) << metrics;
  }

  static constexpr double kInitialRate[kVcis] = {1e5, 2e5, 1.5e5};

  obs::Recorder recorder_;
  std::vector<std::unique_ptr<PortController>> ports_;
  std::unique_ptr<SignalingPath> path_;
  Rng rng_;
  Rng workload_;
  ChannelConditions conditions_;
  LossyChannelOptions channel_;
};

TEST_F(WalkPin, RequestDeltaBytesArePinned) {
  double rate[kVcis] = {kInitialRate[0], kInitialRate[1], kInitialRate[2]};
  std::string dump;
  for (int i = 0; i < kRequests; ++i) {
    const Request r = NextRequest(workload_);
    const PathOutcome outcome = path_->RequestDelta(
        r.vci, r.rate_bps - rate[r.vci - 1], Now(i), r.rung);
    if (outcome.accepted) rate[r.vci - 1] = r.rate_bps;
    AppendCount(dump, "ok", outcome.accepted);
    AppendCount(dump, "bottleneck", outcome.bottleneck_hop);
    AppendBits(dump, "rtt", outcome.round_trip_s);
    dump += "\n";
  }
  AppendNetwork(dump);
  EXPECT_GT(path_->stats().failures, 0);
  ExpectPinned(dump, 16011u, 6589577507528296327ull, 14334u,
               1627728725738214262ull, 107u, 5313256607097277728ull);
}

TEST_F(WalkPin, LossyRenegotiatorBytesArePinned) {
  std::vector<LossyPathRenegotiator> sources;
  for (std::uint64_t vci = 1; vci <= kVcis; ++vci) {
    sources.emplace_back(path_.get(), vci, kInitialRate[vci - 1], channel_,
                         &rng_);
  }
  sources[1].set_rung(1);
  std::string dump;
  for (int i = 0; i < kRequests; ++i) {
    SetConditions(i);
    const Request r = NextRequest(workload_);
    LossyPathRenegotiator& source = sources[r.vci - 1];
    const std::uint32_t rung_before = source.rung();
    source.set_rung(r.rung);
    const bool accepted = source.Renegotiate(r.rate_bps, Now(i));
    if (!accepted) source.set_rung(rung_before);
    AppendCount(dump, "ok", accepted);
    AppendBits(dump, "drift", source.MaxAbsDriftBps());
    dump += "\n";
  }
  for (const LossyPathRenegotiator& source : sources) {
    dump += "source";
    AppendBits(dump, "believed", source.believed_rate_bps());
    AppendCount(dump, "rung", source.rung());
    AppendCount(dump, "lost", source.stats().cells_lost);
    AppendCount(dump, "resyncs", source.stats().resyncs_sent);
    for (std::size_t k = 0; k < path_->hop_count(); ++k) {
      AppendBits(dump, "drift", source.DriftBps(k));
    }
    dump += "\n";
  }
  AppendNetwork(dump);
  EXPECT_GT(ports_[2]->stats().delta_denied, 0);
  EXPECT_GT(sources[0].stats().cells_lost, 0);
  ExpectPinned(dump, 8408u, 13379229953704706022ull, 38977u,
               15178956588226031627ull, 170u, 15768204716675269358ull);
}

TEST_F(WalkPin, RetryingRenegotiatorBytesArePinned) {
  RetryOptions retry;
  retry.timeout_s = 0.05;
  retry.max_retries = 2;
  retry.resync_every_grants = 5;
  retry.recorder = &recorder_;
  std::vector<RetryingRenegotiator> sources;
  for (std::uint64_t vci = 1; vci <= kVcis; ++vci) {
    sources.emplace_back(path_.get(), vci, kInitialRate[vci - 1], retry,
                         channel_, &rng_);
  }
  sources[1].set_rung(1);
  std::string dump;
  for (int i = 0; i < kRequests; ++i) {
    SetConditions(i);
    const Request r = NextRequest(workload_);
    RetryingRenegotiator& source = sources[r.vci - 1];
    source.SetRequestedRung(r.rung);
    const RenegotiationOutcome out = source.Renegotiate(r.rate_bps, Now(i));
    AppendCount(dump, "ok", out.accepted);
    AppendCount(dump, "timed_out", out.timed_out);
    AppendCount(dump, "attempts", out.attempts);
    AppendBits(dump, "latency", out.latency_s);
    AppendBits(dump, "drift", source.MaxAbsDriftBps());
    dump += "\n";
  }
  std::int64_t timeouts = 0;
  for (const RetryingRenegotiator& source : sources) {
    const RetryStats& s = source.stats();
    dump += "source";
    AppendBits(dump, "granted", source.granted_rate_bps());
    AppendCount(dump, "rung", source.rung());
    AppendCount(dump, "acked_rung", source.acked_rung());
    AppendCount(dump, "requests", s.requests);
    AppendCount(dump, "attempts", s.attempts);
    AppendCount(dump, "retries", s.retries);
    AppendCount(dump, "timeouts", s.timeouts);
    AppendCount(dump, "denials", s.denials);
    AppendCount(dump, "abandoned", s.abandoned);
    AppendCount(dump, "resyncs", s.resyncs);
    for (std::size_t k = 0; k < path_->hop_count(); ++k) {
      AppendBits(dump, "drift", source.DriftBps(k));
    }
    dump += "\n";
    timeouts += s.timeouts;
  }
  AppendNetwork(dump);
  EXPECT_GT(ports_[2]->stats().delta_denied, 0);
  EXPECT_GT(timeouts, 30) << "the delay spike must time out grants";
  ExpectPinned(dump, 19946u, 2610336182405444573ull, 173036u,
               6436086178052126272ull, 813u, 15090941044723921747ull);
}

}  // namespace
}  // namespace rcbr::signaling
