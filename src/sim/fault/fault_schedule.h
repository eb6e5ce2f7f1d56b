// What a FaultPlan means, compiled once.
//
// A FaultPlan (fault_plan.h) is a time-sorted list of fault events.
// FaultSchedule is the one place that says how those events combine:
//  * RM-cell loss/delay bursts become half-open windows [begin, end);
//    overlapping windows combine by max per axis (loss probability,
//    extra delay), so closing one burst cannot erase another, and a
//    burst that covers no time (end <= begin) is dropped;
//  * link events pair into per-link down windows: a kLinkDown opens one,
//    the next kLinkUp on that link closes it; a repeated down and a
//    spurious up change nothing, and a down never repaired lasts forever;
//  * controller crashes are instants;
//  * the transitions list every plan event that changes state (every
//    burst, the link events that flip a link, every crash) plus one entry
//    per burst window end, in the order they take effect: by time, a
//    window end before a plan event at the same time, plan events in plan
//    order. Each carries the channel conditions in force after it.
//
// The schedule is compiled at the time scale its caller gives:
//  * seconds, for FaultTimeline (fault_timeline.h), which the event
//    engine and the slot-clocked bench/fig_fault_sweep advance;
//  * slot ticks, for the daemon's impairment proxy (net/proxy.h): an
//    event at t seconds lands on tick floor(t * ticks_per_second), and
//    the proxy queries it with the slot stamps of the frames it forwards.
//
// All queries are in the schedule's own scale. The plan is copied out;
// no reference is kept.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "signaling/lossy_channel.h"
#include "sim/fault/fault_plan.h"

namespace rcbr::sim::fault {

struct FaultTransition {
  double time = 0;
  /// True when this transition closes the window of burst `event`.
  bool burst_end = false;
  /// The plan event that takes effect (for a burst end, its burst).
  FaultEvent event;
  /// Combined burst impairment in force right after this transition.
  signaling::ChannelConditions conditions;
};

class FaultSchedule {
 public:
  /// Times in seconds, as the plan gives them.
  explicit FaultSchedule(const FaultPlan& plan);
  /// Times in ticks: tick T covers seconds [T/tps, (T+1)/tps).
  /// `ticks_per_second` must be positive and finite.
  FaultSchedule(const FaultPlan& plan, double ticks_per_second);

  /// The burst impairment in force at `t` (zero outside every window).
  signaling::ChannelConditions ConditionsAt(double t) const;

  /// True when `link` is inside a down window at `t`.
  bool LinkDownAt(std::size_t link, double t) const;

  /// The transitions with time in (`after`, `upto`], in order.
  std::span<const FaultTransition> TransitionsIn(double after,
                                                 double upto) const;

  /// Links of the controller crashes with time in (`after`, `upto`], in
  /// order.
  std::vector<std::size_t> CrashesIn(double after, double upto) const;

 private:
  struct DownWindow {
    std::size_t link = 0;
    double begin = 0;  // inclusive
    double end = 0;    // exclusive; infinite when never repaired
  };

  template <typename Scale>
  void Compile(const FaultPlan& plan, Scale scale);

  std::vector<FaultTransition> transitions_;
  std::vector<DownWindow> downs_;
};

}  // namespace rcbr::sim::fault
