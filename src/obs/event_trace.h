// Structured event tracing for the domain events the paper's claims hinge
// on: renegotiation requests/grants/denials, buffer overflow/underflow,
// admission accept/reject with the Chernoff margin, RM-cell loss, and DP
// trellis pruning.
//
// An EventLog is one bounded record of TraceEvents with two retention
// views, both fed by the same Record call. Recording is cheap (no
// allocation: fixed-arity numeric payload with string-literal keys).
//
//  - The head keeps the *first* `head_capacity` events — dropping the
//    newest, not the oldest, so the retained prefix is stable no matter
//    how long a run gets (golden traces, TRACE_<name>.jsonl); a drop
//    counter reports truncation.
//  - The ring keeps the *last* `ring_capacity` events, so when the fault
//    subsystem downs a link, restarts a controller, or a queue overflows,
//    the window leading up to the incident is still in memory. Trigger()
//    freezes the ring into a FlightDump (FLIGHT_<name>.jsonl), replacing
//    "re-run with full tracing" as the debugging workflow. A run can trip
//    the same trigger thousands of times, so at most kMaxDumps dumps are
//    kept; later triggers are counted as suppressed.
//
// The experiment runtime gives each sweep point its own log and
// concatenates them in point-index order, which makes both JSONL sinks
// byte-identical across thread counts (event times are simulation time,
// never wall clock).
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

/// One frozen postmortem: the triggering event plus the ring contents
/// (oldest to newest) at the moment of the trigger.
struct FlightDump {
  TraceEvent trigger;
  std::vector<TraceEvent> events;
};

class EventLog {
 public:
  /// Dumps kept before further triggers are only counted.
  static constexpr std::size_t kMaxDumps = 4;

  /// Keeps the first `head_capacity` and the last `ring_capacity` events;
  /// either may be 0 (that view is off).
  EventLog(std::size_t head_capacity, std::size_t ring_capacity);

  /// Appends `event` to the head (or counts a drop once a nonzero head is
  /// full) and to the ring (evicting the oldest once full).
  void Record(const TraceEvent& event);

  /// Freezes the ring into a dump attributed to `trigger`; beyond
  /// kMaxDumps the trigger is counted as suppressed instead. Does nothing
  /// when the ring is off.
  void Trigger(const TraceEvent& trigger);

  /// The retained prefix, in record order.
  std::vector<TraceEvent> Head() const;
  /// Events that arrived after the head filled (0 without a head).
  std::int64_t dropped() const;
  /// Dumps in trigger order.
  std::vector<FlightDump> Dumps() const;
  /// Triggers that arrived after the dump cap was reached.
  std::int64_t suppressed() const;

 private:
  mutable std::mutex mutex_;
  const std::size_t head_capacity_;
  const std::size_t ring_capacity_;
  std::vector<TraceEvent> head_;
  std::int64_t dropped_ = 0;
  std::vector<TraceEvent> ring_;  // ring_.size() <= ring_capacity_
  std::size_t next_ = 0;          // eviction cursor once the ring is full
  std::vector<FlightDump> dumps_;
  std::int64_t suppressed_ = 0;
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

/// Appends the JSONL postmortem for one sweep point: per dump, a header
/// line
///   {"point": P, "dump": D, "window": N, "trigger": "...", "t": T,
///    "id": I, <trigger fields>}
/// followed by the ring contents in trace-line format (each line gaining
/// a "dump" tag), and — if any triggers were suppressed — one trailer
/// line
///   {"point": P, "event": "flight_dumps_suppressed", "suppressed": S}.
void AppendFlightJsonl(std::size_t point, const std::vector<FlightDump>& dumps,
                       std::int64_t suppressed, std::string& out);

}  // namespace rcbr::obs
