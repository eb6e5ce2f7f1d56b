// Replaying a FaultPlan against a running simulation.
//
// FaultTimeline compiles its plan into a seconds-scale FaultSchedule
// (fault_schedule.h, which holds every combination rule) and keeps a
// watermark on the schedule's transitions that the owner advances along
// simulation time. As it crosses each transition it
//  * takes the channel conditions in force after it into a single
//    ChannelConditions the signaling channels read per cell;
//  * takes each link's up/down state from the link transitions;
//  * counts and traces the change (fault.* counters and events);
//  * hands every link-down, link-up and controller-crash transition to
//    the handler the owner passes to AdvanceTo (the owner re-routes
//    calls or wipes the port and drives the resync repair — the timeline
//    never touches ports itself, keeping the repair path explicit and
//    testable). The timeline stores no callable.
//
// The timeline knows nothing about the event loop. RunSimulation posts
// one event per plan entry (and per burst end), each of which just
// advances the timeline to the simulation clock. They are posted before
// arrival seeding, so a fault at time t fires before any same-time call
// event — a fixed order, which is all determinism needs. A slot-clocked
// owner (bench/fig_fault_sweep) advances it directly instead. The
// daemon's impairment proxy (net/proxy.h) queries the same schedule
// compiled at slot-tick scale.
//
// Nothing here draws randomness: the plan is fixed data, so a run with a
// given plan is as deterministic as one without.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "obs/recorder.h"
#include "signaling/lossy_channel.h"
#include "sim/fault/fault_plan.h"
#include "sim/fault/fault_schedule.h"

namespace rcbr::sim::fault {

class FaultTimeline {
 public:
  /// Link events in `plan` must target links < `num_links`. The plan is
  /// compiled here; no reference is kept.
  FaultTimeline(const FaultPlan* plan, std::size_t num_links,
                obs::Recorder* recorder = nullptr);

  /// Crosses every transition with time <= now, in schedule order (burst
  /// ends interleave at their expiry times), and calls
  /// `on_fault(event, now)` right after each link-down, link-up or
  /// controller-crash transition. A repeated down or up changes no state,
  /// so it is not a transition and is not reported. Idempotent per
  /// transition; `now` must not go backwards.
  template <typename OnFault>
  void AdvanceTo(double now, OnFault&& on_fault) {
    for (const FaultTransition& transition :
         schedule_.TransitionsIn(watermark_, now)) {
      conditions_ = transition.conditions;
      if (Apply(transition)) on_fault(transition.event, now);
    }
    watermark_ = std::max(watermark_, now);
  }

  /// The channel impairment currently in force. Stable address: wire it
  /// into LossyChannelOptions::conditions once and it stays fresh.
  const signaling::ChannelConditions& conditions() const {
    return conditions_;
  }

  bool link_up(std::size_t link) const { return link_up_[link]; }

 private:
  /// Records `transition`; true when the owner's handler must see it.
  bool Apply(const FaultTransition& transition);

  FaultSchedule schedule_;
  double watermark_ = -std::numeric_limits<double>::infinity();
  signaling::ChannelConditions conditions_;
  std::vector<bool> link_up_;
  obs::Recorder* obs_ = nullptr;
};

}  // namespace rcbr::sim::fault
