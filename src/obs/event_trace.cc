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

EventTracer::EventTracer(std::size_t capacity) : capacity_(capacity) {
  events_.reserve(capacity < 1024 ? capacity : 1024);
}

void EventTracer::Record(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(event);
}

std::int64_t EventTracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<TraceEvent> EventTracer::Events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

void EventTracer::AppendJsonl(std::size_t point, std::string& out) const {
  obs::AppendJsonl(point, Events(), out);
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

}  // namespace rcbr::obs
