#include "signaling/lossy_channel.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "signaling/path.h"
#include "util/error.h"
#include "util/rng.h"

namespace rcbr::signaling {
namespace {

TEST(ChannelOptions, ValidationRejectsNaNAndOutOfRange) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  LossyChannelOptions options;
  ValidateChannelOptions(options);  // defaults are fine
  options.cell_loss_probability = nan;
  EXPECT_THROW(ValidateChannelOptions(options), InvalidArgument);
  options.cell_loss_probability = -0.1;
  EXPECT_THROW(ValidateChannelOptions(options), InvalidArgument);
  options.cell_loss_probability = 1.0;
  EXPECT_THROW(ValidateChannelOptions(options), InvalidArgument);
  options = {};
  options.resync_every_cells = -1;
  EXPECT_THROW(ValidateChannelOptions(options), InvalidArgument);
}

TEST(ChannelOptions, EffectiveLossClampsAndDelayReadsConditions) {
  LossyChannelOptions options;
  options.cell_loss_probability = 0.4;
  EXPECT_DOUBLE_EQ(EffectiveLossProbability(options), 0.4);
  EXPECT_DOUBLE_EQ(ExtraDelaySeconds(options), 0.0);
  ChannelConditions conditions;
  conditions.extra_loss_probability = 0.5;
  conditions.extra_delay_s = 0.25;
  options.conditions = &conditions;
  EXPECT_DOUBLE_EQ(EffectiveLossProbability(options), 0.9);
  EXPECT_DOUBLE_EQ(ExtraDelaySeconds(options), 0.25);
  conditions.extra_loss_probability = 0.8;  // 0.4 + 0.8 clamps at 1
  EXPECT_DOUBLE_EQ(EffectiveLossProbability(options), 1.0);
}

// The single-port lossy channel of Sec. III-B footnote 2 is a 1-hop
// LossyPathRenegotiator: one Bernoulli draw per delta cell, and a denial
// at the only hop has no upstream grants to roll back. The
// LossyRenegotiator tests below are those single-port cases.
SignalingPath OnePortPath(PortController* port) { return {{port}, 0.0}; }

TEST(ChannelConditionsLive, MutatingConditionsSwitchesLossMidRun) {
  // The fault timeline mutates a shared ChannelConditions as it
  // advances; the channel must sample it per cell, so cells sent during
  // the outage window are lost and cells outside it are not.
  PortController port(1e9);
  ASSERT_TRUE(port.AdmitConnection(1, 1e5));
  Rng rng(41);
  ChannelConditions conditions;  // starts clean
  LossyChannelOptions options;
  options.conditions = &conditions;
  SignalingPath path = OnePortPath(&port);
  LossyPathRenegotiator source(&path, 1, 1e5, options, &rng);
  Rng workload(43);
  for (int i = 0; i < 100; ++i) {
    source.Renegotiate(workload.Uniform(5e4, 5e5), static_cast<double>(i));
  }
  EXPECT_EQ(source.stats().cells_lost, 0);
  conditions.extra_loss_probability = 1.0;  // burst begins
  for (int i = 100; i < 150; ++i) {
    source.Renegotiate(workload.Uniform(5e4, 5e5), static_cast<double>(i));
  }
  EXPECT_EQ(source.stats().cells_lost, 50);
  conditions.extra_loss_probability = 0.0;  // burst expires
  const std::int64_t lost_during_burst = source.stats().cells_lost;
  for (int i = 150; i < 250; ++i) {
    source.Renegotiate(workload.Uniform(5e4, 5e5), static_cast<double>(i));
  }
  EXPECT_EQ(source.stats().cells_lost, lost_during_burst);
  source.Resync(250.0);
  EXPECT_NEAR(source.DriftBps(0), 0.0, 1e-6);
}

TEST(LossyRenegotiator, Validation) {
  PortController port(1e6);
  SignalingPath path = OnePortPath(&port);
  Rng rng(1);
  LossyChannelOptions options;
  EXPECT_THROW(LossyPathRenegotiator(nullptr, 1, 0.0, options, &rng),
               InvalidArgument);
  EXPECT_THROW(LossyPathRenegotiator(&path, 1, 0.0, options, nullptr),
               InvalidArgument);
  EXPECT_THROW(LossyPathRenegotiator(&path, 1, -1.0, options, &rng),
               InvalidArgument);
  options.cell_loss_probability = 1.0;
  EXPECT_THROW(LossyPathRenegotiator(&path, 1, 0.0, options, &rng),
               InvalidArgument);
  options = {};
  options.resync_every_cells = -1;
  EXPECT_THROW(LossyPathRenegotiator(&path, 1, 0.0, options, &rng),
               InvalidArgument);
}

TEST(LossyRenegotiator, LosslessChannelNeverDrifts) {
  PortController port(1e6);
  ASSERT_TRUE(port.AdmitConnection(1, 1e5));
  Rng rng(2);
  SignalingPath path = OnePortPath(&port);
  LossyPathRenegotiator source(&path, 1, 1e5, {}, &rng);
  Rng workload(3);
  for (int i = 0; i < 500; ++i) {
    source.Renegotiate(workload.Uniform(5e4, 5e5), static_cast<double>(i));
    ASSERT_NEAR(source.DriftBps(0), 0.0, 1e-6) << "step " << i;
  }
  EXPECT_EQ(source.stats().cells_lost, 0);
}

TEST(LossyRenegotiator, CellLossCausesDrift) {
  PortController port(1e9);
  ASSERT_TRUE(port.AdmitConnection(1, 1e5));
  Rng rng(5);
  LossyChannelOptions options;
  options.cell_loss_probability = 0.2;
  SignalingPath path = OnePortPath(&port);
  LossyPathRenegotiator source(&path, 1, 1e5, options, &rng);
  Rng workload(7);
  double max_drift = 0;
  for (int i = 0; i < 2000; ++i) {
    source.Renegotiate(workload.Uniform(5e4, 5e5), static_cast<double>(i));
    max_drift = std::max(max_drift, std::abs(source.DriftBps(0)));
  }
  EXPECT_GT(source.stats().cells_lost, 200);
  EXPECT_GT(max_drift, 1e4) << "lost delta cells must desynchronize state";
}

TEST(LossyRenegotiator, ResyncBoundsDrift) {
  PortController port(1e9);
  ASSERT_TRUE(port.AdmitConnection(1, 1e5));
  Rng rng(9);
  LossyChannelOptions options;
  options.cell_loss_probability = 0.2;
  options.resync_every_cells = 10;
  SignalingPath path = OnePortPath(&port);
  LossyPathRenegotiator source(&path, 1, 1e5, options, &rng);
  Rng workload(11);
  for (int i = 0; i < 2000; ++i) {
    source.Renegotiate(workload.Uniform(5e4, 5e5), static_cast<double>(i));
    // Immediately after each resync the drift is exactly zero; in between
    // at most 10 cells (with rates < 5e5) can desynchronize.
    ASSERT_LT(std::abs(source.DriftBps(0)), 10 * 5e5) << "step " << i;
  }
  EXPECT_GT(source.stats().resyncs_sent, 150);
  // Force one more resync and verify exact repair.
  source.Resync(0.0);
  EXPECT_NEAR(source.DriftBps(0), 0.0, 1e-6);
}

TEST(LossyRenegotiator, ResyncRepairsAggregateUtilization) {
  PortController port(1e9);
  ASSERT_TRUE(port.AdmitConnection(1, 1e5));
  Rng rng(13);
  LossyChannelOptions options;
  options.cell_loss_probability = 0.5;
  SignalingPath path = OnePortPath(&port);
  LossyPathRenegotiator source(&path, 1, 1e5, options, &rng);
  Rng workload(15);
  for (int i = 0; i < 200; ++i) {
    source.Renegotiate(workload.Uniform(5e4, 5e5), static_cast<double>(i));
  }
  source.Resync(0.0);
  EXPECT_NEAR(port.utilization_bps(), source.believed_rate_bps(), 1e-6);
}

TEST(LossyRenegotiator, DeniedRequestKeepsBelief) {
  PortController port(2e5);
  ASSERT_TRUE(port.AdmitConnection(1, 1e5));
  Rng rng(17);
  SignalingPath path = OnePortPath(&port);
  LossyPathRenegotiator source(&path, 1, 1e5, {}, &rng);
  EXPECT_FALSE(source.Renegotiate(5e5, 0.0));  // exceeds the port
  EXPECT_DOUBLE_EQ(source.believed_rate_bps(), 1e5);
  EXPECT_NEAR(source.DriftBps(0), 0.0, 1e-6);
}

class LossyPathTest : public ::testing::Test {
 protected:
  void Build(std::vector<double> capacities) {
    ports_.clear();
    for (double c : capacities) {
      ports_.push_back(std::make_unique<PortController>(c));
    }
    std::vector<PortController*> raw;
    for (auto& p : ports_) raw.push_back(p.get());
    path_ = std::make_unique<SignalingPath>(std::move(raw), 0.001);
  }

  std::vector<std::unique_ptr<PortController>> ports_;
  std::unique_ptr<SignalingPath> path_;
};

TEST_F(LossyPathTest, LosslessDenialRollsBackByteExactly) {
  // With a perfect channel the path renegotiator must behave exactly like
  // SignalingPath::RequestDelta: a denial at the bottleneck hop restores
  // the upstream hop bit for bit.
  Build({1e9, 2e5});
  ASSERT_TRUE(path_->SetupConnection(1, 1e5));
  Rng rng(19);
  LossyPathRenegotiator source(path_.get(), 1, 1e5, {}, &rng);
  const double hop0_before = ports_[0]->utilization_bps();
  EXPECT_FALSE(source.Renegotiate(5e5, 0.0));  // exceeds hop 1
  EXPECT_EQ(ports_[0]->utilization_bps(), hop0_before);
  EXPECT_DOUBLE_EQ(source.believed_rate_bps(), 1e5);
  EXPECT_DOUBLE_EQ(source.MaxAbsDriftBps(), 0.0);
}

TEST_F(LossyPathTest, LostRollbackCellsDriftAndResyncRepairs) {
  // Denials trigger per-hop rollback cells which ride the same lossy
  // channel; a lost rollback cell leaves that hop believing the grant it
  // should have forgotten. Drift must appear, and a reliable absolute-rate
  // resync must erase it on every hop at once.
  Build({1e9, 2e5});
  ASSERT_TRUE(path_->SetupConnection(1, 1e5));
  Rng rng(23);
  LossyChannelOptions options;
  options.cell_loss_probability = 0.3;
  LossyPathRenegotiator source(path_.get(), 1, 1e5, options, &rng);
  Rng workload(29);
  double max_drift = 0;
  for (int i = 0; i < 500; ++i) {
    source.Renegotiate(workload.Uniform(5e4, 5e5),
                       static_cast<double>(i));
    max_drift = std::max(max_drift, source.MaxAbsDriftBps());
  }
  EXPECT_GT(source.stats().cells_lost, 50);
  EXPECT_GT(max_drift, 1e4) << "lossy rollback must desynchronize hops";
  source.Resync(500.0);
  for (std::size_t k = 0; k < ports_.size(); ++k) {
    EXPECT_DOUBLE_EQ(ports_[k]->TrackedRate(1), source.believed_rate_bps())
        << "hop " << k;
  }
  EXPECT_DOUBLE_EQ(source.MaxAbsDriftBps(), 0.0);
}

TEST_F(LossyPathTest, PeriodicResyncBoundsMultiHopDrift) {
  Build({1e9, 1e9, 2e5});
  ASSERT_TRUE(path_->SetupConnection(1, 1e5));
  Rng rng(31);
  LossyChannelOptions options;
  options.cell_loss_probability = 0.2;
  options.resync_every_cells = 10;
  LossyPathRenegotiator source(path_.get(), 1, 1e5, options, &rng);
  Rng workload(37);
  for (int i = 0; i < 1000; ++i) {
    source.Renegotiate(workload.Uniform(5e4, 5e5),
                       static_cast<double>(i));
    ASSERT_LT(source.MaxAbsDriftBps(), 10 * 5e5) << "step " << i;
  }
  EXPECT_GT(source.stats().resyncs_sent, 50);
}

}  // namespace
}  // namespace rcbr::signaling
