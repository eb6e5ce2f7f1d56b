#include "net/session_log.h"

#include <cstdio>
#include <cstring>

#include "util/json.h"

namespace rcbr::net {

namespace {

/// `rate` as its raw IEEE-754 bit pattern in hex — the byte-exactness
/// axis of the determinism check (%.17g alone can hide a ulp).
std::string RateBits(double rate) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &rate, sizeof(bits));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

std::string EventJson(const SessionEvent& e) {
  std::string out = "{\"slot\": " + std::to_string(e.slot) +
                    ", \"kind\": " +
                    json::Quote(SessionEventKindName(e.kind)) +
                    ", \"seq\": " + std::to_string(e.seq) +
                    ", \"rate_bps\": " + json::Number(e.rate_bps) +
                    ", \"rate_bits\": \"" + RateBits(e.rate_bps) +
                    "\", \"rung\": " + std::to_string(e.rung);
  if (!e.detail.empty()) out += ", \"detail\": " + json::Quote(e.detail);
  out += "}";
  return out;
}

}  // namespace

const char* SessionEventKindName(SessionEventKind kind) {
  switch (kind) {
    case SessionEventKind::kConnect: return "connect";
    case SessionEventKind::kConnectDenied: return "connect_denied";
    case SessionEventKind::kGrant: return "grant";
    case SessionEventKind::kDeny: return "deny";
    case SessionEventKind::kTimeout: return "timeout";
    case SessionEventKind::kHold: return "hold";
    case SessionEventKind::kUpgrade: return "upgrade";
    case SessionEventKind::kLinkSuspect: return "link_suspect";
    case SessionEventKind::kReconnect: return "reconnect";
    case SessionEventKind::kReconnectFailed: return "reconnect_failed";
    case SessionEventKind::kResync: return "resync";
    case SessionEventKind::kDesync: return "desync";
    case SessionEventKind::kDrain: return "drain";
    case SessionEventKind::kBye: return "bye";
    case SessionEventKind::kProtocolError: return "protocol_error";
    case SessionEventKind::kGiveUp: return "give_up";
  }
  return "unknown";
}

void SessionLog::Append(std::int64_t slot, SessionEventKind kind,
                        std::uint64_t seq, double rate_bps,
                        std::uint32_t rung, const std::string& detail) {
  events_.push_back(SessionEvent{slot, kind, seq, rate_bps, rung, detail});
}

std::int64_t SessionLog::Count(SessionEventKind kind) const {
  std::int64_t n = 0;
  for (const auto& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

std::string SessionLog::CanonicalText() const {
  std::string out;
  for (const auto& e : events_) {
    out += std::to_string(e.slot);
    out += ' ';
    out += SessionEventKindName(e.kind);
    out += " seq=";
    out += std::to_string(e.seq);
    out += " rate=";
    out += json::Number(e.rate_bps);
    out += " bits=";
    out += RateBits(e.rate_bps);
    out += " rung=";
    out += std::to_string(e.rung);
    if (!e.detail.empty()) {
      out += ' ';
      out += e.detail;
    }
    out += '\n';
  }
  return out;
}

std::string SessionLog::ToJsonl() const {
  std::string out;
  for (const auto& e : events_) {
    out += EventJson(e);
    out += '\n';
  }
  return out;
}

std::string SessionLog::ToJsonArray(const std::string& indent) const {
  std::string out = "[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += indent + "  " + EventJson(events_[i]);
  }
  if (!events_.empty()) out += "\n" + indent;
  out += "]";
  return out;
}

}  // namespace rcbr::net
