// rcbr_client: the RCBR end system over the TCP control channel.
//
// One Client is the paper's source brought to the socket world: a seeded
// multi-time-scale VBR arrival process feeds a fixed-size end-system
// buffer (sim::SlottedQueue) drained at the currently granted rate; the
// AR(1) heuristic (core::OnlineRateController) watches the live buffer
// and triggers renegotiations. The source contract — the ladder walk on
// connect and on the periodic upgrade probes, the rung-scaled ask, and
// keeping the held rate when a request fails — is core::SourceContract,
// shared with core::RcbrSource; the client supplies its Hello and Delta
// frame hooks, in bits/second. Drained bits leave as slot-stamped kData
// frames the server meters against the grant.
//
// Time has two axes, deliberately separate:
//  * the logical slot clock — the only axis in the session log and on
//    the wire. Control transactions that time out or back off charge
//    whole slots to it (arrivals keep accruing; nothing is sent), so a
//    seeded run produces the same slot-stamped event sequence no matter
//    how the wall clock jitters;
//  * wall-clock deadlines — pure failure detectors with generous
//    margins over loopback RTT. They decide only *that* an attempt
//    failed, never which slot it failed at.
//
// Failure model (the client half):
//  * control transactions are blocking with a response deadline and run
//    the in-process renegotiator's loop (signaling::RetryLoop): every
//    timeout, the last included, rescinds in-flight state with an
//    absolute-rate resync at the acknowledged rate/rung; then the loop
//    gives up (RetryOptions::max_retries spent) or backs off per
//    signaling::BackoffSeconds and retransmits;
//  * a dead connection (EOF, reset, resync timeout) triggers reconnect
//    dials on the same loop (a backoff after each failed dial, none
//    before the first), then a Hello{resync} that repairs
//    the restarted server byte-exactly from the client's acknowledged
//    rate, followed by a StateQuery audit (desyncs are recorded, the
//    chaos gate requires zero);
//  * a server Drain notice freezes the contract, drains the buffer at
//    the held grant, and closes with Bye/ByeAck.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/online_heuristic.h"
#include "core/source_contract.h"
#include "net/session_log.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/recorder.h"
#include "signaling/retry.h"
#include "sim/fluid_queue.h"
#include "sim/rate_ladder.h"
#include "util/rng.h"

namespace rcbr::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint64_t vci = 1;

  /// Sim seconds per slot; also advertised to the server (as
  /// microseconds) so metering runs on the same clock.
  double slot_seconds = 0.01;
  /// Session length, slots.
  std::int64_t slots = 400;

  /// The daemon's controller: a 32 kb/slot initial ask, renegotiated in
  /// 4 kb/slot steps up to 96 kb/slot.
  core::HeuristicOptions heuristic{.granularity_bits_per_slot = 4e3,
                                   .initial_rate_bits_per_slot = 32e3,
                                   .max_rate_bits_per_slot = 96e3};
  /// Empty = scalar contract.
  sim::RateLadder ladder;

  /// Sim-time timeout/backoff contract for control transactions and
  /// reconnects (timeout_s and BackoffSeconds are charged to the slot
  /// clock; max_retries bounds in-connection retransmits).
  signaling::RetryOptions retry;
  /// Wall-clock failure detector per control response.
  int response_deadline_ms = 250;
  /// Rung-promotion probe period (0 = never; ignored without a ladder).
  std::int64_t upgrade_every_slots = 64;

  std::uint64_t seed = 1;
  obs::Recorder* recorder = nullptr;
};

struct ClientStats {
  std::int64_t slots = 0;          // normal slots stepped
  std::int64_t charged_slots = 0;  // slots consumed by timeouts/backoffs
  double arrived_bits = 0;
  double lost_bits = 0;
  std::int64_t data_frames = 0;
  std::int64_t sent_bytes = 0;
  std::int64_t acked_bytes = 0;  // server's last cumulative kDataAck
  std::int64_t grants = 0;
  std::int64_t denies = 0;
  std::int64_t timeouts = 0;   // response deadlines missed
  std::int64_t holds = 0;      // renegotiations abandoned (budget spent)
  std::int64_t heartbeats = 0;
  std::int64_t upgrades = 0;
  std::int64_t reconnect_attempts = 0;
  std::int64_t reconnects = 0;  // successful re-dial + resync repairs
  std::int64_t resyncs = 0;     // absolute-rate rescind/repair cells
  std::int64_t desyncs = 0;     // StateQuery audits that disagreed
  std::int64_t stale_responses = 0;
  std::int64_t drain_notices = 0;
  bool completed = false;  // Bye acknowledged
  bool gave_up = false;    // reconnect budget exhausted

  double loss_fraction() const {
    return arrived_bits > 0 ? lost_bits / arrived_bits : 0.0;
  }
};

/// Throws InvalidArgument unless `options` describes a runnable session
/// (slot length, session length, initial rate, retry contract). The
/// Client constructor runs it; a front end can run it first, before it
/// starts anything.
void ValidateClientOptions(const ClientOptions& options);

class Client {
 public:
  explicit Client(const ClientOptions& options);
  ~Client();

  /// Runs the whole session: connect (walking the ladder), slot loop,
  /// graceful Bye. False when admission was refused outright or the
  /// reconnect budget ran out mid-session.
  bool Run();

  const ClientStats& stats() const { return stats_; }
  const SessionLog& log() const { return log_; }
  double granted_bps() const { return contract_.granted(); }
  std::uint32_t rung() const { return contract_.rung(); }
  std::int64_t slot() const { return slot_; }

 private:
  /// kAnswered: expected response received; kTimedOut: retry budget
  /// exhausted, connection still standing; kAborted: connection dead.
  using TxStatus = signaling::AttemptEnd;

  double granted_bits_per_slot() const {
    return granted_bps() * options_.slot_seconds;
  }
  double NextArrivalBits();
  /// Burns `n` slots on the logical clock: arrivals accrue, nothing
  /// drains or transmits (the source is busy signaling / disconnected).
  void ChargeSlots(std::int64_t n);
  std::int64_t SlotsFor(double seconds) const;

  /// Sends one frame, stamping `frame.seq` with the seq it went out
  /// under. False = connection lost.
  bool SendFrame(Frame& frame);
  /// Drains everything already buffered on the socket (data acks, async
  /// errors). False = connection lost.
  bool PollIncoming();
  /// Processes one inbound frame outside a transaction. False = fatal.
  bool HandleAsyncFrame(const Frame& frame);
  /// Decodes the buffered frames: the first that answers `expect` at
  /// `expect_slot` goes to `out` (kAnswered), the others to
  /// HandleAsyncFrame. kTimedOut = the buffer ran dry; kAborted = a
  /// malformed or replayed frame killed the connection.
  TxStatus Dispatch(FrameType expect, std::uint32_t expect_slot, Frame* out);
  /// Blocks until a frame of `expect` stamped with `expect_slot`
  /// arrives; piggybacked Drain notices and data acks are absorbed,
  /// stale responses discarded.
  TxStatus AwaitResponse(FrameType expect, std::uint32_t expect_slot,
                         Frame* out);
  /// One bounded-retry control transaction (signaling::RetryLoop): send,
  /// await, on timeout rescind-with-resync, then back off or give up.
  TxStatus Transaction(Frame request, FrameType expect, Frame* response);

  /// A Hello frame asking for `rate_bps` at `rung`, stamped now.
  Frame Hello(double rate_bps, std::uint32_t rung) const;
  /// A Delta transaction toward `want_bps` at `rung`. An upgrade probe
  /// carries its target rung while Transaction's rescind carries the
  /// contract's, so an abandoned probe keeps the upgrade-queue seat.
  TxStatus Delta(double want_bps, std::uint32_t rung, Frame* response);
  bool DialAndHello(bool resync);
  bool ConnectSession();   // fresh connect: ladder walk
  bool Reconnect();        // bounded re-dial + resync repair + audit
  void VerifyServerState();
  bool StepSlot();         // one normal slot; false = session over
  void TryUpgrade();
  void Shutdown();         // Bye / ByeAck

  ClientOptions options_;
  Rng traffic_rng_;
  Rng backoff_rng_;

  FramedStream stream_;

  std::unique_ptr<core::OnlineRateController> controller_;
  // The ladder, rung, full ask and acknowledged rate, in bits/second.
  core::SourceContract contract_;
  sim::SlottedQueue queue_;

  std::int64_t slot_ = 0;
  double carry_bits_ = 0;

  // Traffic scene chain.
  bool scene_burst_ = false;
  std::int64_t scene_remaining_ = 0;

  std::int64_t next_heartbeat_slot_ = 0;
  std::int64_t next_upgrade_slot_ = 0;

  bool connected_ = false;
  bool drain_requested_ = false;
  bool session_done_ = false;

  ClientStats stats_;
  SessionLog log_;
};

}  // namespace rcbr::net
