// rcbrd: the RCBR daemon.
//
// One Server is a network edge running the paper's per-port admission
// logic (signaling::PortController) behind a TCP control channel. Each
// accepted connection is one RCBR session: the client opens with a
// Hello (setup or absolute-rate resync after a crash), renegotiates
// with Delta/Resync frames that map 1:1 onto RmCells, and streams
// piecewise-CBR data that the server meters against the granted rate
// using the client's own slot stamps — so conformance checking is
// deterministic, independent of socket scheduling.
//
// Failure model implemented here:
//  * strict decoding — any malformed frame draws a kError reply and a
//    close, never a crash or a hang;
//  * per-direction strictly increasing sequence numbers — duplicates
//    and stale replays are protocol errors;
//  * a wall-clock client deadline — a silent peer is closed and its
//    reservation kept (the tracked rate survives for the resync);
//  * InjectCrash(): total state loss (PortController::CrashRestart) and
//    every connection dropped, as if the daemon was kill -9'd and
//    restarted. crash_generation() lets an impairment proxy hold the
//    line down until the wipe has really happened;
//  * RequestDrain(): graceful SIGTERM — stop accepting, piggyback a
//    Drain notice on the next control response of every session, deny
//    rate increases, let sessions finish with Bye/ByeAck.
//
// Serve() is a single-threaded poll loop; Stop/RequestDrain/InjectCrash
// are thread-safe flags it observes at the top of each iteration.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "obs/recorder.h"
#include "signaling/port_controller.h"

namespace rcbr::net {

struct ServerOptions {
  /// Listen port on 127.0.0.1; 0 = kernel-assigned (read back via port()).
  std::uint16_t port = 0;
  /// Port capacity handed to the admission controller.
  double capacity_bps = 10e6;
  /// Admission slack (see PortController).
  double admission_tolerance_bps = 1e-9;
  /// A connection silent for this long is presumed dead and closed.
  /// Generous vs loopback RTT: this is a failure detector, not a pacer.
  int client_deadline_ms = 5000;
  /// Self-drain once any frame's slot stamp reaches this value — a
  /// deterministic stand-in for SIGTERM in chaos runs, triggered on the
  /// client's logical clock instead of the wall's (-1 = only external
  /// RequestDrain, which is what rcbrd's real SIGTERM handler calls).
  std::int64_t drain_at_slot = -1;
  obs::Recorder* recorder = nullptr;
};

struct ServerStats {
  std::int64_t sessions_opened = 0;
  std::int64_t sessions_closed = 0;
  std::int64_t frames_in = 0;
  std::int64_t data_frames = 0;
  std::int64_t data_bytes = 0;
  std::int64_t admits = 0;
  std::int64_t admit_denies = 0;
  std::int64_t resyncs = 0;
  std::int64_t grants = 0;
  std::int64_t denies = 0;
  std::int64_t heartbeats = 0;
  std::int64_t byes = 0;
  std::int64_t crashes = 0;
  std::int64_t drains_notified = 0;
  std::int64_t protocol_errors = 0;
  std::int64_t deadline_closes = 0;
  std::int64_t rate_violations = 0;
};

class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();

  /// Binds the listener. False when the port is unavailable.
  bool Start();

  /// The bound port (valid after Start; useful with options.port = 0).
  std::uint16_t port() const { return listener_.port(); }

  /// Runs the poll loop until Stop(). Call from a dedicated thread (or
  /// let rcbrd_main call it directly).
  void Serve();

  /// Thread-safe: makes Serve() return after the current iteration.
  void Stop() { stop_.store(true, std::memory_order_release); }

  /// Thread-safe: graceful-drain mode (the SIGTERM path).
  void RequestDrain() { drain_.store(true, std::memory_order_release); }

  /// Thread-safe: wipe all admission state and drop every connection,
  /// as a crash + restart would. Completion is observable through
  /// crash_generation().
  void InjectCrash() { crash_pending_.store(true, std::memory_order_release); }

  /// Increments once per completed InjectCrash wipe.
  std::uint64_t crash_generation() const {
    return crash_generation_.load(std::memory_order_acquire);
  }

  bool draining() const { return drain_.load(std::memory_order_acquire); }

  // ---- Post-run inspection: call only after Serve() has returned. ----
  double TrackedRate(std::uint64_t vci) const;
  bool IsUpgradeWaiter(std::uint64_t vci) const;
  double utilization_bps() const;
  const ServerStats& stats() const { return stats_; }

 private:
  struct Connection;

  void CrashNow();
  void HandleReadable(Connection& conn);
  /// Dispatches one decoded frame; false = close this connection.
  bool HandleFrame(Connection& conn, const Frame& frame);
  bool HandleHello(Connection& conn, const Frame& frame);
  bool SendFrames(Connection& conn, std::vector<Frame> frames);
  /// Emits kError{code} (best effort) and marks the connection dead.
  void ProtocolError(Connection& conn, WireError code);
  /// The Drain notice due before the next control response, if any.
  void MaybePiggybackDrain(Connection& conn, std::vector<Frame>& frames);
  /// A response to `request` carrying the session's contract (rate, rung).
  Frame Reply(Connection& conn, FrameType type, const Frame& request) const;
  /// Queues Reply(...) in `out`, behind any Drain notice now due.
  Frame& Respond(Connection& conn, std::vector<Frame>& out, FrameType type,
                 const Frame& request);

  ServerOptions options_;
  TcpListener listener_;
  signaling::PortController port_controller_;
  std::vector<std::unique_ptr<Connection>> connections_;
  ServerStats stats_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_{false};
  std::atomic<bool> crash_pending_{false};
  std::atomic<std::uint64_t> crash_generation_{0};
};

}  // namespace rcbr::net
