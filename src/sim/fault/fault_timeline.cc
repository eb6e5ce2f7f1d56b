#include "sim/fault/fault_timeline.h"

#include <algorithm>
#include <limits>

#include "util/error.h"

namespace rcbr::sim::fault {

FaultTimeline::FaultTimeline(const FaultPlan* plan, std::size_t num_links,
                             obs::Recorder* recorder)
    : plan_(plan), link_up_(num_links, true), obs_(recorder) {
  Require(plan != nullptr, "FaultTimeline: null plan");
  Require(num_links > 0, "FaultTimeline: need at least one link");
  Require(plan->empty() || plan->max_link() < num_links,
          "FaultTimeline: plan targets a link the simulation lacks");
}

void FaultTimeline::RecomputeConditions() {
  double loss = 0;
  double delay = 0;
  for (const ActiveBurst& burst : active_bursts_) {
    loss = std::max(loss, burst.loss_probability);
    delay = std::max(delay, burst.extra_delay_s);
  }
  conditions_.extra_loss_probability = loss;
  conditions_.extra_delay_s = delay;
}

void FaultTimeline::ExpireBursts(double now) {
  bool changed = false;
  for (std::size_t i = 0; i < active_bursts_.size();) {
    if (active_bursts_[i].end_s <= now) {
      active_bursts_.erase(active_bursts_.begin() + i);
      changed = true;
    } else {
      ++i;
    }
  }
  if (changed) RecomputeConditions();
}

bool FaultTimeline::Apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kRmLossBurst: {
      active_bursts_.push_back({event.time_s + event.duration_s,
                                event.loss_probability,
                                event.extra_delay_s});
      RecomputeConditions();
      ++stats_.bursts;
      if constexpr (obs::kEnabled) {
        obs::Count(obs_, "fault.bursts");
        obs::Emit(obs_, event.time_s, obs::EventKind::kFaultBurst, 0,
                  {"loss", event.loss_probability},
                  {"delay_s", event.extra_delay_s},
                  {"duration_s", event.duration_s});
      }
      return false;
    }
    case FaultKind::kLinkDown: {
      if (!link_up_[event.link]) return false;  // idempotent on manual plans
      link_up_[event.link] = false;
      ++stats_.link_failures;
      if constexpr (obs::kEnabled) {
        obs::Count(obs_, "fault.link_failures");
        obs::Emit(obs_, event.time_s, obs::EventKind::kLinkDown, event.link);
        // Postmortem: freeze the recent-event ring at the failure (the
        // link_down event itself is the last ring entry).
        obs::TriggerFlight(obs_, event.time_s, obs::EventKind::kLinkDown,
                           event.link);
      }
      return true;
    }
    case FaultKind::kLinkUp: {
      if (link_up_[event.link]) return false;
      link_up_[event.link] = true;
      ++stats_.link_repairs;
      if constexpr (obs::kEnabled) {
        obs::Count(obs_, "fault.link_repairs");
        obs::Emit(obs_, event.time_s, obs::EventKind::kLinkUp, event.link);
      }
      return true;
    }
    case FaultKind::kControllerCrash: {
      ++stats_.crashes;
      if constexpr (obs::kEnabled) {
        obs::Count(obs_, "fault.crashes");
        obs::Emit(obs_, event.time_s, obs::EventKind::kControllerRestart,
                  event.link);
        obs::TriggerFlight(obs_, event.time_s,
                           obs::EventKind::kControllerRestart, event.link);
      }
      return true;
    }
  }
  return false;
}

const FaultEvent* FaultTimeline::NextDue(double now) {
  const std::vector<FaultEvent>& events = plan_->events();
  for (;;) {
    // Interleave burst expiries with scheduled events so conditions drop
    // at the right time even between events.
    double next_end = std::numeric_limits<double>::infinity();
    for (const ActiveBurst& burst : active_bursts_) {
      next_end = std::min(next_end, burst.end_s);
    }
    const double next_event = cursor_ < events.size()
                                  ? events[cursor_].time_s
                                  : std::numeric_limits<double>::infinity();
    if (next_end <= next_event && next_end <= now) {
      ExpireBursts(next_end);
      continue;
    }
    if (next_event <= now) return &events[cursor_];
    return nullptr;
  }
}

}  // namespace rcbr::sim::fault
