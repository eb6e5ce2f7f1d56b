// The one discrete-event loop every simulator in this tree runs on.
//
// The paper's efficiency argument (Sec. VI) is that RCBR only needs to
// simulate renegotiation events, not frames; this Engine is that event
// loop, extracted so the call-level simulator, the network simulator and
// the signaling plane all share it instead of carrying private copies.
//
// Loop semantics, pinned by tests/integration/regression_pins_test.cc:
//  * events fire in (time, seq) order — see EventQueue;
//  * RunUntil(end) fires events with time strictly before `end`; the
//    first event at or past `end` stays queued;
//  * before each event fires, the clock advances to its time and the
//    advance hook sees the movement [from, to) — drivers integrate
//    time-weighted measurements there;
//  * after the last due event, the clock advances to `end` (so the final
//    partial measurement interval is integrated too).
//
// Every event is a POD payload (Post) routed to the one dispatcher the
// owner installs: scheduling allocates nothing, which is what lets
// RunSimulation sustain 10^8+ events. Owners tag payloads with their own
// kinds and switch on them (see simulation.cc).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/engine/event_queue.h"
#include "sim/engine/sim_clock.h"

namespace rcbr::sim::engine {

class Engine {
 public:
  /// Observes every clock movement; `from < to` always holds.
  using AdvanceHook = std::function<void(double from, double to)>;

  /// Receives every event at its fire time (engine clock already
  /// advanced). Installed once per simulation, so each event pays one
  /// indirect call.
  using Dispatcher = std::function<void(const EventPayload&)>;

  double now() const { return clock_.now(); }
  const SimClock& clock() const { return clock_; }

  /// Schedules an event; requires a dispatcher before it fires.
  void Post(double time, const EventPayload& payload) {
    queue_.Post(time, payload);
  }

  void set_advance_hook(AdvanceHook hook) { advance_hook_ = std::move(hook); }
  void set_dispatcher(Dispatcher dispatcher) {
    dispatcher_ = std::move(dispatcher);
  }

  /// Pre-sizes the event queue for about `n` pending events.
  void Reserve(std::size_t n) { queue_.Reserve(n); }

  /// Events fired so far across all RunUntil calls — the numerator of
  /// the macro-capacity events/sec metric.
  std::int64_t events_processed() const { return events_processed_; }

  /// Drains events with time < end_time, then advances to end_time.
  void RunUntil(double end_time);

 private:
  void AdvanceTo(double to);

  SimClock clock_;
  EventQueue queue_;
  AdvanceHook advance_hook_;
  Dispatcher dispatcher_;
  std::int64_t events_processed_ = 0;
};

}  // namespace rcbr::sim::engine
