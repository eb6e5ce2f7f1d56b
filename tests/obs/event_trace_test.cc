#include "obs/event_trace.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/recorder.h"

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

TEST(EventLog, HeadKeepsFirstEventsAndCountsDrops) {
  EventLog log(3, 0);
  for (int i = 0; i < 5; ++i) {
    log.Record(MakeEvent(static_cast<double>(i), i));
  }
  EXPECT_EQ(log.dropped(), 2);
  const std::vector<TraceEvent> events = log.Head();
  ASSERT_EQ(events.size(), 3u);
  // Drop-newest: the retained prefix is the first three records.
  EXPECT_DOUBLE_EQ(events[0].time, 0.0);
  EXPECT_DOUBLE_EQ(events[2].time, 2.0);
  EXPECT_EQ(events[2].id, 2u);
}

TEST(EventLog, AppendJsonlFormatsOneLinePerEvent) {
  EventLog log(4, 0);
  log.Record(MakeEvent(1.5, 7));
  log.Record({2.0, EventKind::kDpPrune, 3, {}});
  std::string out;
  AppendJsonl(2, log.Head(), out);
  EXPECT_EQ(out,
            "{\"point\": 2, \"seq\": 0, \"t\": 1.5, "
            "\"event\": \"reneg_grant\", \"id\": 7, "
            "\"old_bps\": 100, \"new_bps\": 200}\n"
            "{\"point\": 2, \"seq\": 1, \"t\": 2, "
            "\"event\": \"dp_prune\", \"id\": 3}\n");
}

TEST(EventLog, RingKeepsOnlyTheNewestEvents) {
  EventLog log(0, 3);
  for (int i = 0; i < 7; ++i) {
    log.Record(MakeEvent(static_cast<double>(i), static_cast<std::uint64_t>(i)));
  }
  log.Trigger(MakeEvent(99.0, 99));
  const std::vector<FlightDump> dumps = log.Dumps();
  ASSERT_EQ(dumps.size(), 1u);
  // Oldest-to-newest snapshot of the last 3 of 7 recorded events.
  ASSERT_EQ(dumps[0].events.size(), 3u);
  EXPECT_EQ(dumps[0].events[0].id, 4u);
  EXPECT_EQ(dumps[0].events[1].id, 5u);
  EXPECT_EQ(dumps[0].events[2].id, 6u);
  EXPECT_EQ(dumps[0].trigger.id, 99u);
}

TEST(EventLog, PartialRingDumpsInRecordOrder) {
  EventLog log(0, 8);
  log.Record(MakeEvent(1.0, 1));
  log.Record(MakeEvent(2.0, 2));
  log.Trigger(MakeEvent(3.0, 3));
  const std::vector<FlightDump> dumps = log.Dumps();
  ASSERT_EQ(dumps.size(), 1u);
  ASSERT_EQ(dumps[0].events.size(), 2u);
  EXPECT_EQ(dumps[0].events[0].id, 1u);
  EXPECT_EQ(dumps[0].events[1].id, 2u);
}

TEST(EventLog, CapsDumpsAndCountsSuppressedTriggers) {
  EventLog log(0, 2);
  log.Record(MakeEvent(0.0, 0));
  for (int i = 0; i < 7; ++i) {
    log.Trigger(MakeEvent(static_cast<double>(i), 10 + i));
  }
  const std::vector<FlightDump> dumps = log.Dumps();
  ASSERT_EQ(dumps.size(), EventLog::kMaxDumps);
  EXPECT_EQ(log.suppressed(), 7 - static_cast<int>(EventLog::kMaxDumps));
  // The kept dumps are the first triggers, in order.
  for (std::size_t d = 0; d < dumps.size(); ++d) {
    EXPECT_EQ(dumps[d].trigger.id, 10u + d);
  }
}

TEST(EventLog, RecordingContinuesBetweenTriggers) {
  EventLog log(0, 2);
  log.Record(MakeEvent(1.0, 1));
  log.Trigger(MakeEvent(2.0, 2));
  log.Record(MakeEvent(3.0, 3));
  log.Record(MakeEvent(4.0, 4));
  log.Trigger(MakeEvent(5.0, 5));
  const std::vector<FlightDump> dumps = log.Dumps();
  ASSERT_EQ(dumps.size(), 2u);
  // The first dump is unaffected by later recording.
  ASSERT_EQ(dumps[0].events.size(), 1u);
  EXPECT_EQ(dumps[0].events[0].id, 1u);
  ASSERT_EQ(dumps[1].events.size(), 2u);
  EXPECT_EQ(dumps[1].events[0].id, 3u);
  EXPECT_EQ(dumps[1].events[1].id, 4u);
}

TEST(EventLog, OneRecordFeedsHeadAndRing) {
  EventLog log(2, 3);
  for (int i = 0; i < 5; ++i) {
    log.Record(MakeEvent(static_cast<double>(i), static_cast<std::uint64_t>(i)));
  }
  log.Trigger(MakeEvent(9.0, 9));
  // The head holds the first two records, the ring the last three.
  const std::vector<TraceEvent> head = log.Head();
  ASSERT_EQ(head.size(), 2u);
  EXPECT_EQ(head[0].id, 0u);
  EXPECT_EQ(head[1].id, 1u);
  EXPECT_EQ(log.dropped(), 3);
  const std::vector<FlightDump> dumps = log.Dumps();
  ASSERT_EQ(dumps.size(), 1u);
  ASSERT_EQ(dumps[0].events.size(), 3u);
  EXPECT_EQ(dumps[0].events[0].id, 2u);
  EXPECT_EQ(dumps[0].events[2].id, 4u);
}

TEST(EventLog, HeadOnlyIgnoresTriggers) {
  EventLog log(4, 0);
  log.Record(MakeEvent(1.0, 1));
  for (int i = 0; i < 6; ++i) log.Trigger(MakeEvent(2.0, 2));
  // No ring: no dump and no suppressed count, however many triggers.
  EXPECT_TRUE(log.Dumps().empty());
  EXPECT_EQ(log.suppressed(), 0);
  EXPECT_EQ(log.Head().size(), 1u);
}

TEST(EventLog, RingOnlyCountsNoDrops) {
  EventLog log(0, 2);
  for (int i = 0; i < 5; ++i) log.Record(MakeEvent(static_cast<double>(i), i));
  // No head: nothing retained up front and nothing counted as dropped.
  EXPECT_TRUE(log.Head().empty());
  EXPECT_EQ(log.dropped(), 0);
  log.Trigger(MakeEvent(9.0, 9));
  ASSERT_EQ(log.Dumps().size(), 1u);
  EXPECT_EQ(log.Dumps()[0].events.size(), 2u);
}

TEST(AppendFlightJsonl, EmitsHeaderEventAndSuppressedLines) {
  EventLog log(0, 2);
  log.Record({1.0, EventKind::kRenegGrant, 7, {{{"new_bps", 64.0}}}});
  log.Trigger({2.0, EventKind::kLinkDown, 0});
  for (std::size_t i = 1; i <= EventLog::kMaxDumps; ++i) {
    log.Trigger({3.0, EventKind::kLinkDown, i});  // the last is suppressed
  }

  std::string out;
  AppendFlightJsonl(4, log.Dumps(), log.suppressed(), out);
  EXPECT_NE(out.find("{\"point\": 4, \"dump\": 0, \"window\": 1, "
                     "\"trigger\": \"link_down\", \"t\": 2, \"id\": 0}"),
            std::string::npos);
  EXPECT_NE(out.find("\"event\": \"reneg_grant\""), std::string::npos);
  EXPECT_NE(out.find("\"new_bps\": 64"), std::string::npos);
  EXPECT_NE(out.find("{\"point\": 4, \"event\": \"flight_dumps_suppressed\", "
                     "\"suppressed\": 1}"),
            std::string::npos);
  // Per dump one header + one ring event, then one trailer.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            2 * static_cast<int>(EventLog::kMaxDumps) + 1);
}

TEST(AppendFlightJsonl, NothingForAnUntriggeredRecorder) {
  EventLog log(0, 4);
  log.Record(MakeEvent(1.0, 1));
  std::string out;
  AppendFlightJsonl(0, log.Dumps(), log.suppressed(), out);
  EXPECT_TRUE(out.empty());
}

TEST(Recorder, ZeroCapacityHasNoTracerAndEmitIsNoop) {
  Recorder recorder;
  EXPECT_EQ(recorder.events(), nullptr);
  recorder.Emit(MakeEvent(1.0, 1));  // must not crash
  Emit(&recorder, 2.0, EventKind::kResync, 5, {"believed_bps", 1e6});
  TriggerFlight(&recorder, 3.0, EventKind::kLinkDown, 0);
}

TEST(Recorder, EmitLandsInTracer) {
  if constexpr (!kEnabled) GTEST_SKIP() << "RCBR_OBS=OFF";
  Recorder recorder({.event_capacity = 8});
  ASSERT_NE(recorder.events(), nullptr);
  Emit(&recorder, 3.0, EventKind::kRmCellLoss, 9, {"delta_bps", -5.0});
  const std::vector<TraceEvent> events = recorder.events()->Head();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].time, 3.0);
  EXPECT_EQ(events[0].kind, EventKind::kRmCellLoss);
  EXPECT_EQ(events[0].id, 9u);
  EXPECT_STREQ(events[0].fields[0].name, "delta_bps");
  EXPECT_DOUBLE_EQ(events[0].fields[0].value, -5.0);
}

TEST(RecorderHelpers, AreNullSafe) {
  EXPECT_EQ(FindCounter(nullptr, "x"), nullptr);
  EXPECT_EQ(FindSpan(nullptr, "x"), nullptr);
  EXPECT_EQ(FindSeries(nullptr, "x"), nullptr);
  Count(nullptr, "x");
  Emit(nullptr, 0.0, EventKind::kResync, 0);
}

TEST(RecorderHelpers, UpdateMetricsWhenEnabled) {
  if constexpr (!kEnabled) GTEST_SKIP() << "RCBR_OBS=OFF";
  Recorder recorder;
  Count(&recorder, "c", 2);
  Count(&recorder, "c");
  Counter* c = FindCounter(&recorder, "c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 3);
  SpanHistogram* span = FindSpan(&recorder, "s");
  ASSERT_NE(span, nullptr);
  span->Record(0.5);
  const MetricsSnapshot snap = recorder.metrics().Snapshot();
  EXPECT_EQ(snap.counters.at("c"), 3);
  EXPECT_EQ(snap.spans.at("s").count, 1);
}

}  // namespace
}  // namespace rcbr::obs
