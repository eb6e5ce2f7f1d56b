#include "signaling/port_controller.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "signaling/lossy_channel.h"
#include "signaling/path.h"
#include "util/error.h"
#include "util/rng.h"

namespace rcbr::signaling {
namespace {

TEST(PortController, RejectsNonPositiveCapacity) {
  EXPECT_THROW(PortController(0.0), InvalidArgument);
  EXPECT_THROW(PortController(-5.0), InvalidArgument);
}

TEST(PortController, AdmitAndRelease) {
  PortController port(10.0);
  EXPECT_TRUE(port.AdmitConnection(1, 6.0));
  EXPECT_DOUBLE_EQ(port.utilization_bps(), 6.0);
  EXPECT_DOUBLE_EQ(port.available_bps(), 4.0);
  EXPECT_FALSE(port.AdmitConnection(2, 5.0));
  EXPECT_DOUBLE_EQ(port.utilization_bps(), 6.0);  // rejected adds nothing
  port.ReleaseConnection(1);
  EXPECT_DOUBLE_EQ(port.utilization_bps(), 0.0);
}

TEST(PortController, DeltaIncreaseWithinCapacity) {
  PortController port(10.0);
  port.AdmitConnection(1, 4.0);
  const CellVerdict v = port.Handle(RmCell::Delta(1, 3.0), 0.0);
  EXPECT_TRUE(v.accepted);
  EXPECT_DOUBLE_EQ(v.granted_delta_bps, 3.0);
  EXPECT_DOUBLE_EQ(port.utilization_bps(), 7.0);
  EXPECT_EQ(port.stats().delta_accepted, 1);
}

TEST(PortController, DeltaIncreaseDeniedWhenFull) {
  PortController port(10.0);
  port.AdmitConnection(1, 9.0);
  const CellVerdict v = port.Handle(RmCell::Delta(1, 2.0), 0.0);
  EXPECT_FALSE(v.accepted);
  EXPECT_DOUBLE_EQ(v.granted_delta_bps, 0.0);
  EXPECT_DOUBLE_EQ(port.utilization_bps(), 9.0);
  EXPECT_EQ(port.stats().delta_denied, 1);
}

TEST(PortController, DecreaseAlwaysAccepted) {
  PortController port(10.0);
  port.AdmitConnection(1, 9.0);
  const CellVerdict v = port.Handle(RmCell::Delta(1, -4.0), 0.0);
  EXPECT_TRUE(v.accepted);
  EXPECT_DOUBLE_EQ(port.utilization_bps(), 5.0);
}

TEST(PortController, UtilizationNeverNegative) {
  PortController port(10.0);
  port.AdmitConnection(1, 2.0);
  port.Handle(RmCell::Delta(1, -5.0), 0.0);
  EXPECT_DOUBLE_EQ(port.utilization_bps(), 0.0);
}

TEST(PortController, ExactFitAccepted) {
  PortController port(10.0);
  port.AdmitConnection(1, 4.0);
  EXPECT_TRUE(port.Handle(RmCell::Delta(1, 6.0), 0.0).accepted);
  EXPECT_DOUBLE_EQ(port.available_bps(), 0.0);
}

TEST(PortController, TracksPerConnectionRate) {
  PortController port(10.0);
  port.AdmitConnection(7, 3.0);
  port.Handle(RmCell::Delta(7, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(port.TrackedRate(7), 5.0);
  EXPECT_DOUBLE_EQ(port.TrackedRate(8), 0.0);
}

TEST(PortController, ResyncCorrectsDrift) {
  // A delta cell lost in flight leaves the port at the old rate while the
  // source believes the new one; resync repairs both the per-VCI view and
  // the aggregate.
  PortController port(10.0);
  ASSERT_TRUE(port.AdmitConnection(1, 4.0));
  SignalingPath path({&port}, 0.0);
  ChannelConditions outage;
  outage.extra_loss_probability = 1.0;
  LossyChannelOptions channel;
  channel.conditions = &outage;
  Rng rng(1);
  LossyPathRenegotiator source(&path, 1, 4.0, channel, &rng);
  EXPECT_TRUE(source.Renegotiate(6.0, 0.0));  // lost, but unacknowledged
  EXPECT_EQ(source.stats().cells_lost, 1);
  EXPECT_DOUBLE_EQ(port.utilization_bps(), 4.0);
  EXPECT_DOUBLE_EQ(port.TrackedRate(1), 4.0);
  EXPECT_DOUBLE_EQ(source.DriftBps(0), -2.0);
  source.Resync(1.0);
  EXPECT_DOUBLE_EQ(port.utilization_bps(), 6.0);
  EXPECT_DOUBLE_EQ(port.TrackedRate(1), 6.0);
  EXPECT_DOUBLE_EQ(source.DriftBps(0), 0.0);
  EXPECT_EQ(port.stats().resyncs, 1);
  EXPECT_EQ(port.stats().delta_accepted, 0);
}

TEST(PortController, ResyncAfterLostDeltaRestoresAggregate) {
  PortController port(10.0);
  port.AdmitConnection(1, 4.0);
  // The source renegotiated to 6.0 but the delta cell never arrived: the
  // port still believes 4.0. Resync with the true rate fixes it.
  port.Handle(RmCell::Resync(1, 6.0), 0.0);
  EXPECT_DOUBLE_EQ(port.utilization_bps(), 6.0);
  EXPECT_DOUBLE_EQ(port.TrackedRate(1), 6.0);
}

TEST(PortController, UntrackedModeUsesHint) {
  PortController port(10.0, /*track_connections=*/false);
  port.AdmitConnection(1, 4.0);
  port.ReleaseConnection(1, 4.0);
  EXPECT_DOUBLE_EQ(port.utilization_bps(), 0.0);
}

TEST(PortController, AdmitRejectsNegativeRate) {
  PortController port(10.0);
  EXPECT_THROW(port.AdmitConnection(1, -1.0), InvalidArgument);
}

TEST(PortController, RejectsNaNArguments) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(PortController{nan}, InvalidArgument);
  EXPECT_THROW((PortController(10.0, true, nullptr, nan)), InvalidArgument);
  EXPECT_THROW((PortController(10.0, true, nullptr, -1.0)), InvalidArgument);
  PortController port(10.0);
  port.AdmitConnection(1, 4.0);
  EXPECT_THROW(port.Handle(RmCell::Delta(1, nan), 0.0), InvalidArgument);
  EXPECT_THROW(port.Handle(RmCell::Resync(1, nan), 0.0), InvalidArgument);
  EXPECT_THROW(port.AdmitConnection(2, nan), InvalidArgument);
}

TEST(PortController, ToleranceBoundaryIsExact) {
  // Accept iff utilization + delta <= capacity + tolerance: the exact
  // boundary is accepted, one ULP past it is denied.
  const double tolerance = 1e-9;
  const double boundary = 10.0 + tolerance;
  PortController port(10.0, true, nullptr, tolerance);
  port.AdmitConnection(1, 0.0);
  EXPECT_TRUE(port.Handle(RmCell::Delta(1, boundary), 0.0).accepted);
  port.Handle(RmCell::Resync(1, 0.0), 0.0);
  const double just_over =
      std::nextafter(boundary, std::numeric_limits<double>::infinity());
  EXPECT_FALSE(port.Handle(RmCell::Delta(1, just_over), 0.0).accepted);
  EXPECT_DOUBLE_EQ(port.utilization_bps(), 0.0);
}

TEST(PortController, DenormalDeltasDoNotBreakAccounting) {
  // Denormal-magnitude deltas must behave like any other number: exact
  // snapshot rollback, no flush-to-zero surprises in the audit map.
  const double tiny = std::numeric_limits<double>::denorm_min();
  PortController port(10.0);
  port.AdmitConnection(1, 0.0);
  const CellVerdict grant = port.Handle(RmCell::Delta(1, tiny), 0.0);
  EXPECT_TRUE(grant.accepted);
  EXPECT_EQ(port.TrackedRate(1), tiny);
  port.RollbackDelta(1, grant);
  EXPECT_EQ(port.TrackedRate(1), 0.0);
  EXPECT_EQ(port.utilization_bps(), 0.0);
}

TEST(PortController, RollbackDeltaRestoresSnapshotsByteExactly) {
  // (x + d) - d need not equal x in floating point; the rollback restores
  // the carried snapshots, so the port is bit-identical to before.
  PortController port(10.0);
  port.AdmitConnection(1, 0.1);
  port.Handle(RmCell::Delta(1, 0.2), 0.0);  // 0.1 + 0.2 != 0.3 exactly
  const double util_before = port.utilization_bps();
  const double rate_before = port.TrackedRate(1);
  const CellVerdict grant = port.Handle(RmCell::Delta(1, 0.7), 0.0);
  ASSERT_TRUE(grant.accepted);
  port.RollbackDelta(1, grant);
  EXPECT_EQ(port.utilization_bps(), util_before);
  EXPECT_EQ(port.TrackedRate(1), rate_before);
}

TEST(PortController, RollbackAdmitRestoresSnapshotByteExactly) {
  PortController port(10.0);
  port.AdmitConnection(1, 0.1);
  port.Handle(RmCell::Delta(1, 0.2), 0.0);
  const double util_before = port.utilization_bps();
  ASSERT_TRUE(port.AdmitConnection(2, 0.7));
  port.RollbackAdmit(2, util_before);
  EXPECT_EQ(port.utilization_bps(), util_before);
  EXPECT_EQ(port.TrackedRate(2), 0.0);
}

TEST(PortController, CrashRestartLosesEverythingUntilResync) {
  PortController port(10.0);
  port.AdmitConnection(1, 4.0);
  port.AdmitConnection(2, 3.0);
  port.CrashRestart();
  EXPECT_DOUBLE_EQ(port.utilization_bps(), 0.0);
  EXPECT_DOUBLE_EQ(port.TrackedRate(1), 0.0);
  EXPECT_EQ(port.stats().crashes, 1);
  // The cold-start port over-admits until repaired...
  EXPECT_TRUE(port.Handle(RmCell::Delta(3, 9.0), 0.0).accepted);
  port.Handle(RmCell::Delta(3, -9.0), 0.0);
  // ...and absolute-rate resyncs reconstruct the exact pre-crash state.
  port.Handle(RmCell::Resync(1, 4.0), 0.0);
  port.Handle(RmCell::Resync(2, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(port.utilization_bps(), 7.0);
  EXPECT_DOUBLE_EQ(port.TrackedRate(1), 4.0);
  EXPECT_DOUBLE_EQ(port.TrackedRate(2), 3.0);
}

TEST(PortController, DecisionIsO1StateOnly) {
  // The scaling argument: accept/deny depends only on aggregate
  // utilization, not on which connections hold it.
  PortController a(10.0);
  PortController b(10.0);
  a.AdmitConnection(1, 8.0);
  for (std::uint64_t v = 1; v <= 8; ++v) b.AdmitConnection(100 + v, 1.0);
  EXPECT_EQ(a.Handle(RmCell::Delta(1, 3.0), 0.0).accepted,
            b.Handle(RmCell::Delta(101, 3.0), 0.0).accepted);
  EXPECT_EQ(a.Handle(RmCell::Delta(1, 2.0), 0.0).accepted,
            b.Handle(RmCell::Delta(101, 2.0), 0.0).accepted);
}

TEST(UpgradeQueue, AdmitWithRungEnqueuesSortedByVci) {
  PortController port(100.0);
  EXPECT_TRUE(port.AdmitConnection(7, 10.0, 1));
  EXPECT_TRUE(port.AdmitConnection(3, 10.0, 2));
  EXPECT_TRUE(port.AdmitConnection(5, 10.0, 0));  // full ask: not waiting
  EXPECT_EQ(port.upgrade_waiters(), (std::vector<std::uint64_t>{3, 7}));
  EXPECT_TRUE(port.IsUpgradeWaiter(3));
  EXPECT_FALSE(port.IsUpgradeWaiter(5));
}

TEST(UpgradeQueue, ScalarTrafficNeverTouchesTheQueue) {
  PortController port(100.0);
  port.AdmitConnection(1, 10.0);
  port.Handle(RmCell::Delta(1, 5.0), 0.0);
  port.ReleaseConnection(1);
  EXPECT_TRUE(port.upgrade_waiters().empty());
}

TEST(UpgradeQueue, GrantedDeltaUpdatesWaiterStatus) {
  PortController port(100.0);
  port.AdmitConnection(1, 10.0, 1);
  // A granted cell at rung 0 is a completed promotion: leave the queue.
  EXPECT_TRUE(port.Handle(RmCell::Delta(1, 5.0, 0), 0.0).accepted);
  EXPECT_FALSE(port.IsUpgradeWaiter(1));
  // A granted cell carrying rung > 0 re-registers the wait (e.g. a
  // partial promotion from rung 2 to rung 1).
  EXPECT_TRUE(port.Handle(RmCell::Delta(1, 5.0, 1), 0.0).accepted);
  EXPECT_TRUE(port.IsUpgradeWaiter(1));
}

TEST(UpgradeQueue, DeniedDeltaLeavesQueueUntouched) {
  PortController port(20.0);
  port.AdmitConnection(1, 10.0, 1);
  EXPECT_FALSE(port.Handle(RmCell::Delta(1, 50.0, 0), 0.0).accepted);
  EXPECT_TRUE(port.IsUpgradeWaiter(1));
}

TEST(UpgradeQueue, RollbackRestoresWaiterMembership) {
  // All-or-nothing multi-hop promotion: this hop granted (removing the
  // waiter), a later hop denied, and the rollback must restore queue
  // membership byte-exactly along with the utilization.
  PortController port(100.0);
  port.AdmitConnection(1, 10.0, 1);
  const CellVerdict grant = port.Handle(RmCell::Delta(1, 5.0, 0), 0.0);
  ASSERT_TRUE(grant.accepted);
  EXPECT_TRUE(grant.waiter_before);
  EXPECT_FALSE(port.IsUpgradeWaiter(1));
  port.RollbackDelta(1, grant);
  EXPECT_TRUE(port.IsUpgradeWaiter(1));
  EXPECT_DOUBLE_EQ(port.utilization_bps(), 10.0);
}

TEST(UpgradeQueue, ReleaseAndRollbackAdmitDequeue) {
  PortController port(100.0);
  port.AdmitConnection(1, 10.0, 1);
  port.ReleaseConnection(1);
  EXPECT_FALSE(port.IsUpgradeWaiter(1));

  const double before = port.utilization_bps();
  port.AdmitConnection(2, 10.0, 2);
  port.RollbackAdmit(2, before);
  EXPECT_FALSE(port.IsUpgradeWaiter(2));
  EXPECT_TRUE(port.upgrade_waiters().empty());
}

TEST(UpgradeQueue, CrashWipesQueueAndResyncRebuildsIt) {
  PortController port(100.0);
  port.AdmitConnection(1, 10.0, 1);
  port.AdmitConnection(2, 10.0, 2);
  port.CrashRestart();
  EXPECT_TRUE(port.upgrade_waiters().empty());
  // The repair resync carries each connection's rung, so the queue comes
  // back with the reservations.
  port.Handle(RmCell::Resync(1, 10.0, 1), 1.0);
  port.Handle(RmCell::Resync(2, 10.0, 2), 1.0);
  EXPECT_EQ(port.upgrade_waiters(), (std::vector<std::uint64_t>{1, 2}));
  // A rung-0 resync (scalar or fully promoted call) does not enqueue.
  port.Handle(RmCell::Resync(1, 10.0, 0), 2.0);
  EXPECT_EQ(port.upgrade_waiters(), (std::vector<std::uint64_t>{2}));
}

}  // namespace
}  // namespace rcbr::signaling
