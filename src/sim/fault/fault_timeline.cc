#include "sim/fault/fault_timeline.h"

#include "util/error.h"

namespace rcbr::sim::fault {

namespace {

const FaultPlan& CheckedPlan(const FaultPlan* plan, std::size_t num_links) {
  Require(plan != nullptr, "FaultTimeline: null plan");
  Require(num_links > 0, "FaultTimeline: need at least one link");
  Require(plan->empty() || plan->max_link() < num_links,
          "FaultTimeline: plan targets a link the simulation lacks");
  return *plan;
}

}  // namespace

FaultTimeline::FaultTimeline(const FaultPlan* plan, std::size_t num_links,
                             obs::Recorder* recorder)
    : schedule_(CheckedPlan(plan, num_links)),
      link_up_(num_links, true),
      obs_(recorder) {}

bool FaultTimeline::Apply(const FaultTransition& transition) {
  if (transition.burst_end) return false;
  const FaultEvent& event = transition.event;
  switch (event.kind) {
    case FaultKind::kRmLossBurst:
      if constexpr (obs::kEnabled) {
        obs::Count(obs_, "fault.bursts");
        obs::Emit(obs_, event.time_s, obs::EventKind::kFaultBurst, 0,
                  {"loss", event.loss_probability},
                  {"delay_s", event.extra_delay_s},
                  {"duration_s", event.duration_s});
      }
      return false;
    case FaultKind::kLinkDown:
      link_up_[event.link] = false;
      if constexpr (obs::kEnabled) {
        obs::Count(obs_, "fault.link_failures");
        obs::Emit(obs_, event.time_s, obs::EventKind::kLinkDown, event.link);
        // Postmortem: freeze the recent-event ring at the failure (the
        // link_down event itself is the last ring entry).
        obs::TriggerFlight(obs_, event.time_s, obs::EventKind::kLinkDown,
                           event.link);
      }
      return true;
    case FaultKind::kLinkUp:
      link_up_[event.link] = true;
      if constexpr (obs::kEnabled) {
        obs::Count(obs_, "fault.link_repairs");
        obs::Emit(obs_, event.time_s, obs::EventKind::kLinkUp, event.link);
      }
      return true;
    case FaultKind::kControllerCrash:
      if constexpr (obs::kEnabled) {
        obs::Count(obs_, "fault.crashes");
        obs::Emit(obs_, event.time_s, obs::EventKind::kControllerRestart,
                  event.link);
        obs::TriggerFlight(obs_, event.time_s,
                           obs::EventKind::kControllerRestart, event.link);
      }
      return true;
  }
  return false;
}

}  // namespace rcbr::sim::fault
