#include "obs/event_trace.h"

#include "util/json.h"

namespace rcbr::obs {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kRenegRequest: return "reneg_request";
    case EventKind::kRenegGrant: return "reneg_grant";
    case EventKind::kRenegDeny: return "reneg_deny";
    case EventKind::kBufferOverflow: return "buffer_overflow";
    case EventKind::kBufferUnderflow: return "buffer_underflow";
    case EventKind::kAdmitAccept: return "admit_accept";
    case EventKind::kAdmitReject: return "admit_reject";
    case EventKind::kCallDeparture: return "call_departure";
    case EventKind::kRmCellLoss: return "rm_cell_loss";
    case EventKind::kResync: return "resync";
    case EventKind::kDpPrune: return "dp_prune";
    case EventKind::kRenegTimeout: return "reneg_timeout";
    case EventKind::kRenegRetry: return "reneg_retry";
    case EventKind::kDegradeHold: return "degrade_hold";
    case EventKind::kDegradeFallback: return "degrade_fallback";
    case EventKind::kDegradeRecover: return "degrade_recover";
    case EventKind::kFaultBurst: return "fault_burst";
    case EventKind::kLinkDown: return "link_down";
    case EventKind::kLinkUp: return "link_up";
    case EventKind::kControllerRestart: return "controller_restart";
    case EventKind::kCallRerouted: return "call_rerouted";
    case EventKind::kCallDropped: return "call_dropped";
    case EventKind::kCallUpgrade: return "call_upgrade";
  }
  return "unknown";
}

namespace {

std::size_t InitialReserve(std::size_t capacity) {
  return capacity < 1024 ? capacity : 1024;
}

}  // namespace

EventLog::EventLog(std::size_t head_capacity, std::size_t ring_capacity)
    : head_capacity_(head_capacity), ring_capacity_(ring_capacity) {
  head_.reserve(InitialReserve(head_capacity));
  ring_.reserve(InitialReserve(ring_capacity));
}

void EventLog::Record(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (head_.size() < head_capacity_) {
    head_.push_back(event);
  } else if (head_capacity_ > 0) {
    ++dropped_;
  }
  if (ring_capacity_ == 0) return;
  if (ring_.size() < ring_capacity_) {
    ring_.push_back(event);
    return;
  }
  ring_[next_] = event;
  next_ = next_ + 1 == ring_capacity_ ? 0 : next_ + 1;
}

void EventLog::Trigger(const TraceEvent& trigger) {
  if (ring_capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (dumps_.size() >= kMaxDumps) {
    ++suppressed_;
    return;
  }
  FlightDump dump;
  dump.trigger = trigger;
  dump.events.reserve(ring_.size());
  // Oldest-to-newest: once full, the eviction cursor points at the
  // oldest surviving event.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    dump.events.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  dumps_.push_back(std::move(dump));
}

std::vector<TraceEvent> EventLog::Head() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return head_;
}

std::int64_t EventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<FlightDump> EventLog::Dumps() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dumps_;
}

std::int64_t EventLog::suppressed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return suppressed_;
}

void AppendEventBody(const TraceEvent& event, bool with_kind,
                     std::string& out) {
  out += ", \"t\": " + json::Number(event.time);
  if (with_kind) {
    out += ", \"event\": " + json::Quote(EventKindName(event.kind));
  }
  out += ", \"id\": " + std::to_string(event.id);
  for (const TraceEvent::Field& field : event.fields) {
    if (field.name == nullptr) continue;
    out += ", " + json::Quote(field.name) + ": " + json::Number(field.value);
  }
}

void AppendJsonl(std::size_t point, const std::vector<TraceEvent>& events,
                 std::string& out) {
  for (std::size_t seq = 0; seq < events.size(); ++seq) {
    out += "{\"point\": " + std::to_string(point) +
           ", \"seq\": " + std::to_string(seq);
    AppendEventBody(events[seq], /*with_kind=*/true, out);
    out += "}\n";
  }
}

void AppendFlightJsonl(std::size_t point, const std::vector<FlightDump>& dumps,
                       std::int64_t suppressed, std::string& out) {
  for (std::size_t d = 0; d < dumps.size(); ++d) {
    const FlightDump& dump = dumps[d];
    out += "{\"point\": " + std::to_string(point) +
           ", \"dump\": " + std::to_string(d) +
           ", \"window\": " + std::to_string(dump.events.size()) +
           ", \"trigger\": " + json::Quote(EventKindName(dump.trigger.kind));
    AppendEventBody(dump.trigger, /*with_kind=*/false, out);
    out += "}\n";
    for (std::size_t seq = 0; seq < dump.events.size(); ++seq) {
      out += "{\"point\": " + std::to_string(point) +
             ", \"dump\": " + std::to_string(d) +
             ", \"seq\": " + std::to_string(seq);
      AppendEventBody(dump.events[seq], /*with_kind=*/true, out);
      out += "}\n";
    }
  }
  if (suppressed > 0) {
    out += "{\"point\": " + std::to_string(point) +
           ", \"event\": \"flight_dumps_suppressed\", \"suppressed\": " +
           std::to_string(suppressed) + "}\n";
  }
}

}  // namespace rcbr::obs
