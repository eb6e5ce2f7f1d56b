#include "obs/event_trace.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/recorder.h"
#include "obs/scoped_timer.h"

namespace rcbr::obs {
namespace {

TraceEvent MakeEvent(double time, std::uint64_t id) {
  return {time, EventKind::kRenegGrant, id,
          {{{"old_bps", 100.0}, {"new_bps", 200.0}, {nullptr, 0.0}}}};
}

TEST(EventKindName, WireNamesAreStable) {
  EXPECT_STREQ(EventKindName(EventKind::kRenegRequest), "reneg_request");
  EXPECT_STREQ(EventKindName(EventKind::kRenegGrant), "reneg_grant");
  EXPECT_STREQ(EventKindName(EventKind::kRenegDeny), "reneg_deny");
  EXPECT_STREQ(EventKindName(EventKind::kBufferOverflow), "buffer_overflow");
  EXPECT_STREQ(EventKindName(EventKind::kBufferUnderflow),
               "buffer_underflow");
  EXPECT_STREQ(EventKindName(EventKind::kAdmitAccept), "admit_accept");
  EXPECT_STREQ(EventKindName(EventKind::kAdmitReject), "admit_reject");
  EXPECT_STREQ(EventKindName(EventKind::kCallDeparture), "call_departure");
  EXPECT_STREQ(EventKindName(EventKind::kRmCellLoss), "rm_cell_loss");
  EXPECT_STREQ(EventKindName(EventKind::kResync), "resync");
  EXPECT_STREQ(EventKindName(EventKind::kDpPrune), "dp_prune");
}

TEST(EventTracer, KeepsFirstCapacityEventsAndCountsDrops) {
  EventTracer tracer(3);
  for (int i = 0; i < 5; ++i) {
    tracer.Record(MakeEvent(static_cast<double>(i), i));
  }
  EXPECT_EQ(tracer.dropped(), 2);
  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 3u);
  // Drop-newest: the retained prefix is the first three records.
  EXPECT_DOUBLE_EQ(events[0].time, 0.0);
  EXPECT_DOUBLE_EQ(events[2].time, 2.0);
  EXPECT_EQ(events[2].id, 2u);
}

TEST(EventTracer, ZeroCapacityDropsEverything) {
  EventTracer tracer(0);
  tracer.Record(MakeEvent(1.0, 1));
  EXPECT_EQ(tracer.dropped(), 1);
  EXPECT_TRUE(tracer.Events().empty());
}

TEST(EventTracer, AppendJsonlFormatsOneLinePerEvent) {
  EventTracer tracer(4);
  tracer.Record(MakeEvent(1.5, 7));
  tracer.Record({2.0, EventKind::kDpPrune, 3, {}});
  std::string out;
  tracer.AppendJsonl(2, out);
  EXPECT_EQ(out,
            "{\"point\": 2, \"seq\": 0, \"t\": 1.5, "
            "\"event\": \"reneg_grant\", \"id\": 7, "
            "\"old_bps\": 100, \"new_bps\": 200}\n"
            "{\"point\": 2, \"seq\": 1, \"t\": 2, "
            "\"event\": \"dp_prune\", \"id\": 3}\n");
}

TEST(EventTracer, FreeAppendJsonlMatchesMemberForm) {
  EventTracer tracer(4);
  tracer.Record(MakeEvent(0.25, 1));
  std::string via_member;
  tracer.AppendJsonl(0, via_member);
  std::string via_free;
  AppendJsonl(0, tracer.Events(), via_free);
  EXPECT_EQ(via_member, via_free);
}

TEST(Recorder, ZeroCapacityHasNoTracerAndEmitIsNoop) {
  Recorder recorder(0);
  EXPECT_EQ(recorder.tracer(), nullptr);
  recorder.Emit(MakeEvent(1.0, 1));  // must not crash
  Emit(&recorder, 2.0, EventKind::kResync, 5, {"believed_bps", 1e6});
}

TEST(Recorder, EmitLandsInTracer) {
  if constexpr (!kEnabled) GTEST_SKIP() << "RCBR_OBS=OFF";
  Recorder recorder(8);
  ASSERT_NE(recorder.tracer(), nullptr);
  Emit(&recorder, 3.0, EventKind::kRmCellLoss, 9, {"delta_bps", -5.0});
  const std::vector<TraceEvent> events = recorder.tracer()->Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].time, 3.0);
  EXPECT_EQ(events[0].kind, EventKind::kRmCellLoss);
  EXPECT_EQ(events[0].id, 9u);
  EXPECT_STREQ(events[0].fields[0].name, "delta_bps");
  EXPECT_DOUBLE_EQ(events[0].fields[0].value, -5.0);
}

TEST(RecorderHelpers, AreNullSafe) {
  EXPECT_EQ(FindCounter(nullptr, "x"), nullptr);
  Count(nullptr, "x");
  SetGauge(nullptr, "x", 1.0);
  Emit(nullptr, 0.0, EventKind::kResync, 0);
}

TEST(RecorderHelpers, UpdateMetricsWhenEnabled) {
  if constexpr (!kEnabled) GTEST_SKIP() << "RCBR_OBS=OFF";
  Recorder recorder;
  Count(&recorder, "c", 2);
  Count(&recorder, "c");
  SetGauge(&recorder, "g", 4.5);
  Counter* c = FindCounter(&recorder, "c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 3);
  const MetricsSnapshot snap = recorder.metrics().Snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("g").last, 4.5);
}

TEST(ScopedTimer, AccumulatesPhaseProfile) {
  Recorder recorder;
  {
    const ScopedTimer t1(&recorder, "phase_a");
    const ScopedTimer t2(&recorder, "phase_a");
  }
  { const ScopedTimer ignored(nullptr, "phase_a"); }  // null-safe
  const auto profile = recorder.profile().Snapshot();
  if constexpr (!kEnabled) {
    EXPECT_TRUE(profile.empty());
    return;
  }
  ASSERT_TRUE(profile.contains("phase_a"));
  EXPECT_EQ(profile.at("phase_a").calls, 2);
  EXPECT_GE(profile.at("phase_a").seconds, 0.0);
}

TEST(PhaseProfile, MergeAddsCallsAndSeconds) {
  PhaseProfile a{2, 0.5};
  a.Merge(PhaseProfile{3, 0.25});
  EXPECT_EQ(a.calls, 5);
  EXPECT_DOUBLE_EQ(a.seconds, 0.75);
}

}  // namespace
}  // namespace rcbr::obs
