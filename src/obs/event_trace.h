// Structured event tracing for the domain events the paper's claims hinge
// on: renegotiation requests/grants/denials, buffer overflow/underflow,
// admission accept/reject with the Chernoff margin, RM-cell loss, and DP
// trellis pruning.
//
// An EventTracer is a bounded buffer of TraceEvents. Recording is cheap
// (no allocation: fixed-arity numeric payload with string-literal keys)
// and keeps the *first* `capacity` events — dropping the newest, not the
// oldest, so the retained prefix is stable no matter how long a run gets;
// a drop counter reports truncation. The experiment runtime gives each
// sweep point its own tracer and concatenates them in point-index order,
// which makes the JSONL sink byte-identical across thread counts (event
// times are simulation time, never wall clock).
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/enabled.h"

namespace rcbr::obs {

enum class EventKind : std::uint8_t {
  kRenegRequest,     // source decided to ask for a new rate
  kRenegGrant,       // network granted the request
  kRenegDeny,        // network denied it (source keeps its old rate)
  kBufferOverflow,   // queue spilled bits this slot
  kBufferUnderflow,  // queue drained to empty while service outpaced input
  kAdmitAccept,      // admission policy accepted a call
  kAdmitReject,      // admission policy (or raw capacity) rejected a call
  kCallDeparture,    // a call left the system
  kRmCellLoss,       // signaling delta cell lost in transit
  kResync,           // absolute-rate resync cell repaired drift
  kDpPrune,          // DP trellis epoch: candidates generated vs retained
  kRenegTimeout,     // request (or its response) missed the source deadline
  kRenegRetry,       // source retransmits after backoff
  kDegradeHold,      // source stops asking and holds its granted rate
  kDegradeFallback,  // source escalated to the peak-rate fallback
  kDegradeRecover,   // source renegotiated back to schedule-driven rates
  kFaultBurst,       // fault plan opened an RM-cell loss/delay burst
  kLinkDown,         // fault plan failed a link
  kLinkUp,           // fault plan repaired a link
  kControllerRestart,// port controller crashed and restarted (state loss)
  kCallRerouted,     // active call moved to an alternate route
  kCallDropped,      // active call lost (no feasible alternate route)
  kCallUpgrade,      // downgraded call promoted to a better ladder rung
};

/// Stable wire name of `kind` (the JSONL "event" field).
const char* EventKindName(EventKind kind);

struct TraceEvent {
  /// Simulation time: seconds for event-driven simulators, slot index for
  /// slotted ones, epoch start slot for the DP. Never wall clock.
  double time = 0;
  EventKind kind = EventKind::kRenegRequest;
  /// Domain identifier: vci, call id, or epoch index.
  std::uint64_t id = 0;

  /// Up to four named numeric payload fields. `name` must point at a
  /// string literal (static storage); nullptr marks an unused slot (the
  /// serializer skips it, so events using fewer slots are byte-identical
  /// to the three-slot era).
  struct Field {
    const char* name = nullptr;
    double value = 0;
  };
  std::array<Field, 4> fields{};
};

class EventTracer {
 public:
  /// Keeps at most `capacity` events; further Record calls only bump the
  /// drop counter.
  explicit EventTracer(std::size_t capacity);

  void Record(const TraceEvent& event);

  std::size_t capacity() const { return capacity_; }
  std::int64_t dropped() const;
  std::vector<TraceEvent> Events() const;

  /// AppendJsonl(point, Events(), out).
  void AppendJsonl(std::size_t point, std::string& out) const;

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::vector<TraceEvent> events_;
  std::int64_t dropped_ = 0;
};

/// Appends the body of one event's JSON object:
///   , "t": T, "event": "...", "id": I, <fields>
/// With `with_kind` false the "event" member is left out (the caller
/// names the kind under its own key). Every JSONL sink that writes
/// TraceEvents uses this, so the per-event layout is defined once.
void AppendEventBody(const TraceEvent& event, bool with_kind,
                     std::string& out);

/// Appends one JSONL line per event:
///   {"point": P, "seq": S, "t": T, "event": "...", "id": I, <fields>}
/// `point` tags which sweep point produced the trace; `seq` is the index
/// within `events`. This is the one serializer every trace sink uses.
void AppendJsonl(std::size_t point, const std::vector<TraceEvent>& events,
                 std::string& out);

}  // namespace rcbr::obs
