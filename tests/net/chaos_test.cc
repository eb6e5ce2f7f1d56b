// The loopback chaos gate, as a unit test: client -> impairment proxy
// -> server in one process, driven by a seeded FaultPlan with a loss
// burst, a delay spike past the response deadline, a link-down window,
// a controller crash/restart, and a mid-session drain.
//
// The acceptance invariants from the failure model:
//  * the session completes (acknowledged Bye) within the retry budget;
//  * zero desyncs — after every crash/reconnect the client and server
//    agree on the granted rate byte-exactly (StateQuery audit);
//  * determinism — the same seeds produce the same canonical session
//    log, byte for byte, across independent runs.

#include <cstdint>
#include <cstring>
#include <string>

#include "gtest/gtest.h"
#include "fnv1a.h"
#include "net/chaos.h"

namespace rcbr::net {
namespace {

using testutil::Fnv1a;

ChaosOptions SmallChaos(std::uint64_t seed) {
  ChaosOptions options;
  options.client.seed = seed;
  options.client.slots = 200;
  options.client.slot_seconds = 0.01;
  options.client.ladder =
      sim::RateLadder::FromScales({1.0, 0.5, 0.25}, {1.0, 0.5, 0.25});
  options.client.heuristic.initial_rate_bits_per_slot = 32e3;
  options.client.heuristic.granularity_bits_per_slot = 4e3;
  options.client.heuristic.max_rate_bits_per_slot = 96e3;
  options.client.heuristic.denial_cooldown_slots = 8;
  options.client.retry.timeout_s = 0.06;
  options.client.retry.max_retries = 3;
  options.client.response_deadline_ms = 250;
  options.server.capacity_bps = 10e6;
  // drain near the end: the SIGTERM stand-in.
  options.server.drain_at_slot = 180;

  sim::fault::FaultEvent burst;
  burst.time_s = 0.3;
  burst.kind = sim::fault::FaultKind::kRmLossBurst;
  burst.duration_s = 0.2;
  burst.loss_probability = 0.35;
  options.plan.Add(burst);

  sim::fault::FaultEvent spike;  // deterministic "lost late" window
  spike.time_s = 0.64;
  spike.kind = sim::fault::FaultKind::kRmLossBurst;
  spike.duration_s = 0.06;
  spike.extra_delay_s = 10.0;
  options.plan.Add(spike);

  sim::fault::FaultEvent crash;
  crash.time_s = 0.9;
  crash.kind = sim::fault::FaultKind::kControllerCrash;
  options.plan.Add(crash);

  sim::fault::FaultEvent down;
  down.time_s = 1.44;
  down.kind = sim::fault::FaultKind::kLinkDown;
  options.plan.Add(down);
  sim::fault::FaultEvent up;
  up.time_s = 1.52;
  up.kind = sim::fault::FaultKind::kLinkUp;
  options.plan.Add(up);

  return options;
}

TEST(ChaosTest, SurvivesTheFullScheduleAndStaysByteExact) {
  const ChaosResult result = RunChaos(SmallChaos(5));
  EXPECT_TRUE(result.Passed())
      << "completed=" << result.completed << " gave_up=" << result.gave_up
      << " desyncs=" << result.desyncs << "\n"
      << result.session_canonical;
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.desyncs, 0);
  // The crash actually fired and the client actually repaired it.
  EXPECT_GE(result.crash_generations, 1u);
  EXPECT_GE(result.client.reconnects, 1);
  EXPECT_GE(result.client.resyncs, 1);
  // The drain stand-in reached the client and the session still closed
  // with an acknowledged Bye.
  EXPECT_GE(result.client.drain_notices, 1);
  EXPECT_GE(result.server.byes, 1);
  // The proxy did real damage (otherwise the run proves nothing).
  EXPECT_GE(result.proxy.dropped_loss + result.proxy.dropped_late +
                result.proxy.dropped_down,
            1);
  // Reservation released after Bye. (sessions_opened may exceed
  // sessions_closed: crash-severed connections die without a Bye.)
  EXPECT_EQ(result.server_utilization_bps, 0.0);
}

// The "results" object of a chaos report.
std::string ResultsBlock(const std::string& report) {
  const std::size_t begin = report.find("\"results\": {");
  EXPECT_NE(begin, std::string::npos);
  return report.substr(begin, report.find('}', begin) - begin);
}

TEST(ChaosTest, SameSeedsSameSessionLogByteForByte) {
  const ChaosOptions options = SmallChaos(5);
  const ChaosResult first = RunChaos(options);
  const ChaosResult second = RunChaos(options);
  ASSERT_TRUE(first.Passed());
  ASSERT_TRUE(second.Passed());
  EXPECT_EQ(first.session_canonical, second.session_canonical);
  EXPECT_EQ(first.session.ToJsonl(), second.session.ToJsonl());
  EXPECT_TRUE(
      std::memcmp(&first.final_rate_bps, &second.final_rate_bps, 8) == 0);
  EXPECT_EQ(first.final_rung, second.final_rung);
  EXPECT_EQ(first.client.charged_slots, second.client.charged_slots);
  // The report's results block is a pure function of the seeds too.
  EXPECT_EQ(ResultsBlock(ChaosReportJson(options, first)),
            ResultsBlock(ChaosReportJson(options, second)));
}

// Pins SmallChaos(5) itself, not just its run-to-run repeatability: the
// canonical session log's size and fingerprint, and the whole results
// block of its report. Its four `timeout` events carry the seqs their
// heartbeats were sent under.
TEST(ChaosTest, PinsSmallChaosSeedFive) {
  const ChaosOptions options = SmallChaos(5);
  const ChaosResult result = RunChaos(options);
  ASSERT_TRUE(result.Passed());
  EXPECT_EQ(result.session_canonical.size(), 3326u) << result.session_canonical;
  EXPECT_EQ(Fnv1a(result.session_canonical), 10916442184042543868ull);
  EXPECT_EQ(ResultsBlock(ChaosReportJson(options, result)), R"("results": {
    "passed": true,
    "completed": true,
    "gave_up": false,
    "desyncs": 0,
    "crashes": 1,
    "reconnects": 2,
    "resyncs": 5,
    "timeouts": 4,
    "grants": 41,
    "denies": 0,
    "upgrades": 0,
    "drain_notices": 1,
    "slots": 143,
    "charged_slots": 37,
    "arrived_bits": 7461745.7902327441,
    "lost_bits": 366934.81813918753,
    "loss_fraction": 0.049175464891808143,
    "sent_bytes": 886850,
    "proxy_dropped_loss": 2,
    "proxy_dropped_down": 11,
    "proxy_dropped_late": 1,
    "final_rate_bps": 3600000,
    "final_rung": 0
  )");
}

TEST(ChaosTest, DifferentSeedDivergesButStillPasses) {
  const ChaosResult a = RunChaos(SmallChaos(5));
  const ChaosResult b = RunChaos(SmallChaos(6));
  ASSERT_TRUE(a.Passed());
  ASSERT_TRUE(b.Passed());
  EXPECT_NE(a.session_canonical, b.session_canonical);
}

TEST(ChaosTest, ReportJsonCarriesTheGateAndTheSession) {
  const ChaosOptions options = SmallChaos(5);
  const ChaosResult result = RunChaos(options);
  const std::string json = ChaosReportJson(options, result);
  EXPECT_NE(json.find("\"experiment\": \"rcbr_chaos\""), std::string::npos);
  EXPECT_NE(json.find("\"passed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"desyncs\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"session\": ["), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"reconnect\""), std::string::npos);
}

}  // namespace
}  // namespace rcbr::net
