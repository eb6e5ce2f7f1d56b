// The canonical session event log.
//
// The daemon's chaos acceptance criterion is "the same seed yields the
// same session event log across runs". This log is that artifact: an
// ordered record of every *state-changing* protocol event a client
// session goes through — connects, welcomes, grants, denials, timeouts,
// reconnects, resyncs, drain, close — with the protocol values (rate
// bits, rung, logical slot) and none of the wall-clock noise
// (heartbeat acks, socket latencies, retry sleeps). Determinism is
// defined over CanonicalText(): the slot-stamped event sequence, where
// every rate is rendered from its exact IEEE-754 bit pattern so
// "byte-exact" means what it says.
//
// SessionLog is independent of src/obs on purpose: the determinism
// check must hold in RCBR_OBS=OFF builds too.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rcbr::net {

enum class SessionEventKind : std::uint8_t {
  kConnect,        // dial + Hello accepted (rate/rung = granted contract)
  kConnectDenied,  // Hello denied at this rung (client walks the ladder)
  kGrant,          // renegotiation granted (rate/rung = new contract)
  kDeny,           // renegotiation explicitly denied
  kTimeout,        // one control attempt missed its response deadline
  kHold,           // renegotiation's retry budget spent: holding last grant
  kUpgrade,        // ladder rung promotion granted
  kLinkSuspect,    // the link is presumed dead: Reconnect() starts
  kReconnect,      // re-dial succeeded (before the resync handshake)
  kReconnectFailed,// one re-dial attempt failed (timeout/refused)
  kResync,         // absolute-rate resync accepted after reconnect
  kDesync,         // post-resync state query disagreed with the server
  kDrain,          // server asked for graceful drain
  kBye,            // session completed and acknowledged
  kProtocolError,  // peer sent an invalid frame / error frame
  kGiveUp,         // reconnect budget exhausted; session abandoned
};

const char* SessionEventKindName(SessionEventKind kind);

struct SessionEvent {
  std::int64_t slot = 0;     // client logical slot when the event applied
  SessionEventKind kind = SessionEventKind::kConnect;
  std::uint64_t seq = 0;     // control sequence number (0 when n/a)
  double rate_bps = 0;       // contract rate after the event
  std::uint32_t rung = 0;    // contract rung after the event
  std::string detail;        // free-form (error names, attempt counts)
};

class SessionLog {
 public:
  void Append(const SessionEvent& event) { events_.push_back(event); }
  void Append(std::int64_t slot, SessionEventKind kind, std::uint64_t seq,
              double rate_bps, std::uint32_t rung,
              const std::string& detail = "");

  const std::vector<SessionEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// Count of events of one kind.
  std::int64_t Count(SessionEventKind kind) const;

  /// One line per event, deterministic: slot, kind, seq, rung, the rate
  /// as both %.17g and its raw bit pattern, and the detail string. Two
  /// runs with the same seed must produce byte-identical canonical text.
  std::string CanonicalText() const;

  /// JSONL rendering for artifacts (same fields as CanonicalText plus
  /// nothing wall-clock). One object per line.
  std::string ToJsonl() const;

  /// JSON array rendering for embedding as the "session" section of an
  /// obs_metrics-style report blob. `indent` prefixes every line.
  std::string ToJsonArray(const std::string& indent) const;

 private:
  std::vector<SessionEvent> events_;
};

}  // namespace rcbr::net
