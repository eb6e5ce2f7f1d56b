// The loopback chaos harness: one deterministic daemon run.
//
// RunChaos wires the three processes-worth of machinery into one
// process: an rcbrd Server on its own thread, the impairment Proxy on
// another, and the Client inline — client -> proxy -> server over
// 127.0.0.1 with kernel-assigned ports. The proxy's crash hook performs
// the InjectCrash + crash_generation handshake, so "the server crashed"
// is a completed fact (state wiped, connections severed) before any
// reconnect can race it.
//
// The run's acceptance invariants are computed here:
//  * zero desyncs — every post-crash resync left client and server in
//    byte-exact agreement on rate bits and rung (audited over the wire
//    with StateQuery);
//  * clean completion — the session ended in an acknowledged Bye, even
//    when a drain_at_slot SIGTERM stand-in interrupted it;
//  * determinism — the canonical session log is a pure function of the
//    seeds, checkable by running twice and comparing bytes.
//
// ChaosReportJson renders the run in the repo's BENCH_* shape (results
// + "session" array + obs_metrics) for tools/rcbr_report.py. `results`
// is a pure function of the seeds; the one wall-clock-dependent count,
// the data bytes the server metered, sits apart under "wall_clock".
#pragma once

#include <cstdint>
#include <string>

#include "net/client.h"
#include "net/proxy.h"
#include "net/server.h"
#include "sim/fault/fault_plan.h"

namespace rcbr::net {

struct ChaosOptions {
  /// Client config; host/port are overwritten to point at the proxy.
  ClientOptions client;
  /// Server config; port is overwritten to 0 (ephemeral).
  ServerOptions server;
  /// Fault schedule in sim seconds (slot domain = client.slot_seconds).
  sim::fault::FaultPlan plan;
  /// Seed for the proxy's stateless drop hashes.
  std::uint64_t proxy_seed = 7;
  /// Descriptive name stamped into the report.
  std::string name = "rcbr_chaos";
};

struct ChaosResult {
  bool completed = false;  // Bye acknowledged
  bool gave_up = false;
  std::int64_t desyncs = 0;
  std::uint64_t crash_generations = 0;
  ClientStats client;
  ServerStats server;
  ProxyStats proxy;
  std::string session_canonical;  // determinism-comparison text
  SessionLog session;
  double final_rate_bps = 0;
  std::uint32_t final_rung = 0;
  /// Aggregate reservation left on the port after the session — 0 when
  /// the Bye actually released it.
  double server_utilization_bps = 0;

  /// The chaos gate: finished cleanly, survived every scheduled crash,
  /// and never once disagreed with the server about the contract.
  bool Passed() const {
    return completed && !gave_up && desyncs == 0;
  }
};

/// Runs one seeded chaos session. Blocks until the session is over and
/// both helper threads have joined.
ChaosResult RunChaos(const ChaosOptions& options);

/// The run as a BENCH-shaped JSON document (results, session array, and
/// the recorder's obs_metrics when one was attached to the client).
std::string ChaosReportJson(const ChaosOptions& options,
                            const ChaosResult& result);

}  // namespace rcbr::net
