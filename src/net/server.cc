#include "net/server.h"

#include <poll.h>
#include <time.h>

#include <algorithm>
#include <cmath>

namespace rcbr::net {

namespace {

/// Poll-loop tick; bounds how fast control flags are observed.
constexpr int kPollIntervalMs = 10;
/// Metering burst allowance, in client slots' worth of the granted rate.
/// Sending faster than the grant for longer than this draws
/// kRateViolation.
constexpr double kMeterToleranceSlots = 4;

std::int64_t MonotonicMs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 +
         ts.tv_nsec / 1000000;
}

}  // namespace

struct Server::Connection {
  FramedStream stream;
  bool dead = false;

  // Session state (established by a successful Hello).
  bool admitted = false;
  std::uint64_t vci = 0;
  double granted_bps = 0;
  std::uint32_t rung = 0;
  double slot_seconds = 1e-3;  // from Hello's slot_us

  // Slot-stamped token-bucket metering of received data. Credit accrues
  // from the client's own slot clock, so the verdict is a pure function
  // of the frame stream: wall-clock jitter cannot flip it.
  bool meter_started = false;
  std::uint32_t meter_slot = 0;
  double meter_credit_bits = 0;
  std::uint64_t total_data_bytes = 0;

  bool drain_sent = false;
  std::int64_t last_activity_ms = 0;
};

Server::Server(const ServerOptions& options)
    : options_(options),
      port_controller_(options.capacity_bps, /*track_connections=*/true,
                       options.recorder, options.admission_tolerance_bps) {}

Server::~Server() = default;

bool Server::Start() {
  auto listener = TcpListener::Bind(options_.port);
  if (!listener) return false;
  listener_ = std::move(*listener);
  return true;
}

double Server::TrackedRate(std::uint64_t vci) const {
  return port_controller_.TrackedRate(vci);
}

bool Server::IsUpgradeWaiter(std::uint64_t vci) const {
  return port_controller_.IsUpgradeWaiter(vci);
}

double Server::utilization_bps() const {
  return port_controller_.utilization_bps();
}

void Server::CrashNow() {
  port_controller_.CrashRestart();
  for (auto& conn : connections_) conn->stream.Close();
  connections_.clear();
  ++stats_.crashes;
  obs::Count(options_.recorder, "net.server.crashes");
  crash_generation_.fetch_add(1, std::memory_order_acq_rel);
}

Frame Server::Reply(Connection& conn, FrameType type,
                    const Frame& request) const {
  Frame f;
  f.type = type;
  f.slot = request.slot;  // responses echo the request's logical slot
  f.rate_bps = conn.granted_bps;
  f.rung = conn.rung;
  return f;
}

Frame& Server::Respond(Connection& conn, std::vector<Frame>& out,
                       FrameType type, const Frame& request) {
  MaybePiggybackDrain(conn, out);
  out.push_back(Reply(conn, type, request));
  return out.back();
}

void Server::MaybePiggybackDrain(Connection& conn,
                                 std::vector<Frame>& frames) {
  if (!draining() || conn.drain_sent) return;
  Frame drain;
  drain.type = FrameType::kDrain;
  drain.slot = frames.empty() ? 0 : frames.front().slot;
  conn.drain_sent = true;
  ++stats_.drains_notified;
  obs::Count(options_.recorder, "net.server.drains_notified");
  frames.insert(frames.begin(), drain);
}

bool Server::SendFrames(Connection& conn, std::vector<Frame> frames) {
  if (conn.stream.Send(frames)) return true;
  conn.dead = true;
  return false;
}

void Server::ProtocolError(Connection& conn, WireError code) {
  ++stats_.protocol_errors;
  obs::Count(options_.recorder, "net.server.protocol_errors");
  Frame err;
  err.type = FrameType::kError;
  err.error_code = static_cast<std::uint32_t>(code);
  SendFrames(conn, {err});  // best effort: the peer may already be gone
  conn.dead = true;
}

bool Server::HandleHello(Connection& conn, const Frame& frame) {
  if (conn.admitted) {
    ProtocolError(conn, WireError::kBadHandshake);
    return false;
  }
  if (frame.vci == 0 || frame.rate_bps <= 0 || frame.slot_us == 0) {
    ProtocolError(conn, WireError::kBadHandshake);
    return false;
  }
  const double slot_seconds = frame.slot_us * 1e-6;
  const double now = frame.slot * slot_seconds;

  bool accepted = false;
  if (frame.resync) {
    // Reconnect repair: the absolute-rate resync never fails. It fixes
    // the aggregate utilization with the tracked-rate difference (zero
    // after a crash wiped the table) and re-registers the upgrade
    // waiter when rung > 0 — the same cell-borne crash consistency the
    // in-process controller provides.
    port_controller_.Handle(
        signaling::RmCell::Resync(frame.vci, frame.rate_bps, frame.rung),
        now);
    ++stats_.resyncs;
    obs::Count(options_.recorder, "net.server.resyncs");
    accepted = true;
  } else {
    if (draining()) {
      ProtocolError(conn, WireError::kServerDraining);
      return false;
    }
    accepted = port_controller_.AdmitConnection(frame.vci, frame.rate_bps,
                                                frame.rung);
    ++(accepted ? stats_.admits : stats_.admit_denies);
    obs::Count(options_.recorder,
               accepted ? "net.server.admits" : "net.server.admit_denies");
  }

  if (accepted) {
    conn.admitted = true;
    conn.vci = frame.vci;
    conn.granted_bps = frame.rate_bps;
    conn.rung = frame.rung;
    conn.slot_seconds = slot_seconds;
    conn.meter_started = false;
    conn.meter_credit_bits = 0;
  }
  // A refused Hello carries no contract: conn's rate and rung are zero.
  std::vector<Frame> out;
  Respond(conn, out, FrameType::kWelcome, frame).accepted = accepted;
  return SendFrames(conn, std::move(out));
  // A denied Hello leaves the connection open: the client walks its
  // rate ladder down and retries on the same stream.
}

bool Server::HandleFrame(Connection& conn, const Frame& frame) {
  ++stats_.frames_in;
  conn.last_activity_ms = MonotonicMs();
  if (options_.drain_at_slot >= 0 && !draining() &&
      static_cast<std::int64_t>(frame.slot) >= options_.drain_at_slot) {
    RequestDrain();
  }

  // Duplicate or stale sequence numbers are replays — protocol error.
  if (!conn.stream.AcceptSeq(frame)) {
    ProtocolError(conn, WireError::kStaleSequence);
    return false;
  }

  if (frame.type == FrameType::kHello) return HandleHello(conn, frame);
  if (!conn.admitted) {
    ProtocolError(conn, WireError::kNotAdmitted);
    return false;
  }

  const double now = frame.slot * conn.slot_seconds;
  std::vector<Frame> out;
  switch (frame.type) {
    case FrameType::kDelta: {
      // Draining servers refuse growth but still honor decreases, so
      // sessions can wind down to a clean Bye.
      const bool refused = draining() && frame.delta_bps > 0;
      const bool granted =
          !refused &&
          port_controller_
              .Handle(signaling::RmCell::Delta(conn.vci, frame.delta_bps,
                                               frame.rung),
                      now)
              .accepted;
      if (granted) {
        conn.granted_bps += frame.delta_bps;
        conn.rung = frame.rung;
      }
      ++(granted ? stats_.grants : stats_.denies);
      if (!refused) {
        obs::Count(options_.recorder,
                   granted ? "net.server.grants" : "net.server.denies");
      }
      Respond(conn, out, granted ? FrameType::kGrant : FrameType::kDeny,
              frame);
      break;
    }
    case FrameType::kResync: {
      port_controller_.Handle(
          signaling::RmCell::Resync(conn.vci, frame.rate_bps, frame.rung),
          now);
      conn.granted_bps = frame.rate_bps;
      conn.rung = frame.rung;
      ++stats_.resyncs;
      obs::Count(options_.recorder, "net.server.resyncs");
      Respond(conn, out, FrameType::kGrant, frame);
      break;
    }
    case FrameType::kHeartbeat:
      ++stats_.heartbeats;
      Respond(conn, out, FrameType::kHeartbeatAck, frame);
      break;
    case FrameType::kData: {
      // Meter against the granted rate on the client's slot clock.
      if (!conn.meter_started) {
        conn.meter_started = true;
        conn.meter_slot = frame.slot;
      }
      const double elapsed_slots =
          static_cast<double>(frame.slot - conn.meter_slot);
      conn.meter_slot = frame.slot;
      const double per_slot_bits = conn.granted_bps * conn.slot_seconds;
      const double burst_bits =
          kMeterToleranceSlots * per_slot_bits + 8.0 * 1500;
      conn.meter_credit_bits = std::min(
          burst_bits, conn.meter_credit_bits + elapsed_slots * per_slot_bits);
      conn.meter_credit_bits -= 8.0 * static_cast<double>(frame.data.size());
      if (conn.meter_credit_bits < -burst_bits) {
        ++stats_.rate_violations;
        obs::Count(options_.recorder, "net.server.rate_violations");
        ProtocolError(conn, WireError::kRateViolation);
        return false;
      }
      conn.total_data_bytes += frame.data.size();
      ++stats_.data_frames;
      stats_.data_bytes += static_cast<std::int64_t>(frame.data.size());
      obs::Count(options_.recorder, "net.server.data_bytes",
                 static_cast<std::int64_t>(frame.data.size()));
      Frame ack = Reply(conn, FrameType::kDataAck, frame);
      ack.total_bytes = conn.total_data_bytes;
      out.push_back(ack);  // never piggyback on the data path
      break;
    }
    case FrameType::kStateQuery: {
      Frame& report = Respond(conn, out, FrameType::kStateReport, frame);
      report.rate_bps = port_controller_.TrackedRate(conn.vci);
      report.known = report.rate_bps != 0 ||
                     port_controller_.IsUpgradeWaiter(conn.vci);
      break;
    }
    case FrameType::kBye: {
      port_controller_.ReleaseConnection(conn.vci);
      conn.admitted = false;
      ++stats_.byes;
      obs::Count(options_.recorder, "net.server.byes");
      SendFrames(conn, {Reply(conn, FrameType::kByeAck, frame)});
      conn.dead = true;  // orderly close after the ack
      return false;
    }
    default:
      // Client-direction-only or unexpected frames (Welcome, Grant,
      // Drain, ...) arriving at the server are protocol errors.
      ProtocolError(conn, WireError::kUnknownType);
      return false;
  }
  return SendFrames(conn, std::move(out));
}

void Server::HandleReadable(Connection& conn) {
  const RecvStatus r = conn.stream.Fill(0);
  if (r == RecvStatus::kClosed || r == RecvStatus::kError) {
    if (r == RecvStatus::kClosed &&
        conn.stream.decoder().pending_bytes() > 0) {
      // EOF mid-frame: the peer died between bytes of a frame.
      ++stats_.protocol_errors;
      obs::Count(options_.recorder, "net.server.protocol_errors");
    }
    conn.dead = true;
    return;
  }
  if (r != RecvStatus::kData) return;
  Frame frame;
  for (;;) {
    const DecodeStatus status = conn.stream.Next(frame);
    if (status == DecodeStatus::kNeedMore) break;
    if (status == DecodeStatus::kError) {
      ProtocolError(conn, conn.stream.decoder().error());
      return;
    }
    if (!HandleFrame(conn, frame)) return;
    if (conn.dead) return;
  }
}

void Server::Serve() {
  while (!stop_.load(std::memory_order_acquire)) {
    if (crash_pending_.exchange(false, std::memory_order_acq_rel)) {
      CrashNow();
    }

    std::vector<pollfd> pfds;
    pfds.reserve(connections_.size() + 1);
    pfds.push_back({listener_.fd(), POLLIN, 0});
    for (const auto& conn : connections_) {
      pfds.push_back({conn->stream.fd(), POLLIN, 0});
    }
    const int rc = ::poll(pfds.data(), pfds.size(), kPollIntervalMs);
    if (rc < 0 && errno != EINTR) break;

    if (rc > 0 && (pfds[0].revents & POLLIN) != 0 && !draining()) {
      while (auto stream = listener_.Accept(0)) {
        auto conn = std::make_unique<Connection>();
        conn->stream = FramedStream(std::move(*stream));
        conn->last_activity_ms = MonotonicMs();
        connections_.push_back(std::move(conn));
        ++stats_.sessions_opened;
        obs::Count(options_.recorder, "net.server.sessions_opened");
        pfds.push_back({});  // keep sizes consistent; served next tick
      }
    }

    const std::int64_t now_ms = MonotonicMs();
    for (std::size_t i = 0; i < connections_.size(); ++i) {
      Connection& conn = *connections_[i];
      const short revents = i + 1 < pfds.size() ? pfds[i + 1].revents : 0;
      if (!conn.dead && (revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        HandleReadable(conn);
      }
      if (!conn.dead &&
          now_ms - conn.last_activity_ms > options_.client_deadline_ms) {
        // Failure detector: a silent peer is gone. Its reservation is
        // deliberately kept — the tracked rate is what makes the
        // absolute-rate resync on reconnect exact.
        conn.dead = true;
        ++stats_.deadline_closes;
        obs::Count(options_.recorder, "net.server.deadline_closes");
      }
    }
    const auto new_end = std::remove_if(
        connections_.begin(), connections_.end(),
        [this](const std::unique_ptr<Connection>& c) {
          if (c->dead) {
            ++stats_.sessions_closed;
            obs::Count(options_.recorder, "net.server.sessions_closed");
          }
          return c->dead;
        });
    connections_.erase(new_end, connections_.end());

    // Draining with no sessions left: the daemon's work is done.
    if (draining() && connections_.empty()) break;
  }
  connections_.clear();
}

}  // namespace rcbr::net
