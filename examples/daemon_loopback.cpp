// Daemon loopback: the socket-based RCBR service surviving real faults.
//
//  1. Start an rcbrd admission server and a deterministic impairment
//     proxy on 127.0.0.1 (all in this process — the same machinery the
//     `rcbrd` and `rcbr_chaos` binaries run).
//  2. Schedule an impairment plan: a signaling loss burst, a controller
//     crash/restart, and a mid-session drain (the SIGTERM stand-in).
//  3. Drive a seeded multi-time-scale source through it and verify the
//     failure model's promise: the session completes, and after every
//     crash the client and server agree on the granted rate byte-exactly.
//
// Build & run:  ./build/examples/daemon_loopback
#include <cstdio>

#include "net/chaos.h"

int main() {
  using namespace rcbr;

  net::ChaosOptions chaos;
  chaos.client.seed = 1;
  chaos.client.slots = 300;
  chaos.client.slot_seconds = 0.01;  // 10 ms slots, 3 s session
  chaos.client.ladder =
      sim::RateLadder::FromScales({1.0, 0.5, 0.25}, {1.0, 0.5, 0.25});
  chaos.server.capacity_bps = 10e6;
  chaos.server.drain_at_slot = 270;  // graceful drain near the end

  // The fault schedule, in sim seconds on the client's slot clock.
  sim::fault::FaultEvent burst;
  burst.time_s = 0.5;
  burst.kind = sim::fault::FaultKind::kRmLossBurst;
  burst.duration_s = 0.3;
  burst.loss_probability = 0.35;
  chaos.plan.Add(burst);
  sim::fault::FaultEvent crash;
  crash.time_s = 1.4;
  crash.kind = sim::fault::FaultKind::kControllerCrash;
  chaos.plan.Add(crash);

  const net::ChaosResult result = net::RunChaos(chaos);

  std::printf("chaos gate: %s\n", result.Passed() ? "PASS" : "FAIL");
  std::printf(
      "  crashes survived     %llu (reconnects %lld, resyncs %lld)\n",
      static_cast<unsigned long long>(result.crash_generations),
      static_cast<long long>(result.client.reconnects),
      static_cast<long long>(result.client.resyncs));
  std::printf("  byte-exact audits    %lld desyncs\n",
              static_cast<long long>(result.desyncs));
  std::printf("  drained gracefully   %lld notice(s), Bye %s\n",
              static_cast<long long>(result.client.drain_notices),
              result.completed ? "acknowledged" : "missing");
  std::printf("  final contract       %.0f bps at rung %u\n",
              result.final_rate_bps, result.final_rung);

  // The first few lines of the canonical session log — the byte-exact,
  // seed-reproducible record CI diffs across runs.
  std::printf("\nsession log (head):\n");
  int lines = 0;
  for (std::size_t i = 0; i < result.session_canonical.size() && lines < 8;
       ++i) {
    std::putchar(result.session_canonical[i]);
    if (result.session_canonical[i] == '\n') ++lines;
  }
  return result.Passed() ? 0 : 1;
}
