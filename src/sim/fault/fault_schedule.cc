#include "sim/fault/fault_schedule.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "util/error.h"

namespace rcbr::sim::fault {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

// One point where the schedule's state may change: a plan event, or the
// end of a burst's window.
struct Step {
  double time = 0;
  bool burst_end = false;
  /// A burst start whose window covers time (it has a matching end).
  bool opens_window = false;
  std::size_t event = 0;  // plan index
};

bool Before(double t, const FaultTransition& transition) {
  return t < transition.time;
}

}  // namespace

FaultSchedule::FaultSchedule(const FaultPlan& plan) {
  Compile(plan, [](double t) { return t; });
}

FaultSchedule::FaultSchedule(const FaultPlan& plan,
                             double ticks_per_second) {
  Require(std::isfinite(ticks_per_second) && ticks_per_second > 0,
          "FaultSchedule: ticks_per_second must be positive and finite");
  Compile(plan, [ticks_per_second](double t) {
    return std::floor(t * ticks_per_second);
  });
}

template <typename Scale>
void FaultSchedule::Compile(const FaultPlan& plan, Scale scale) {
  const std::vector<FaultEvent>& events = plan.events();
  std::vector<Step> steps;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& event = events[i];
    const double at = scale(event.time_s);
    Require(std::isfinite(at), "FaultSchedule: event time overflows scale");
    const double end = event.kind == FaultKind::kRmLossBurst
                           ? scale(event.time_s + event.duration_s)
                           : at;
    steps.push_back({at, false, end > at, i});
    if (end > at) steps.push_back({end, true, false, i});
  }
  // A burst is over at its end, so an end goes before a plan event at the
  // same time; plan events keep plan order (the plan is time-sorted and
  // the scale is monotone).
  std::stable_sort(steps.begin(), steps.end(),
                   [](const Step& a, const Step& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.burst_end && !b.burst_end;
                   });

  std::vector<const FaultEvent*> open_bursts;
  std::vector<std::size_t> open_down(plan.max_link() + 1, kNone);
  for (const Step& step : steps) {
    const FaultEvent& event = events[step.event];
    if (step.burst_end) {
      open_bursts.erase(
          std::find(open_bursts.begin(), open_bursts.end(), &event));
    } else if (step.opens_window) {
      open_bursts.push_back(&event);
    } else if (event.kind == FaultKind::kLinkDown) {
      if (open_down[event.link] != kNone) continue;  // already down
      open_down[event.link] = downs_.size();
      downs_.push_back({event.link, step.time,
                        std::numeric_limits<double>::infinity()});
    } else if (event.kind == FaultKind::kLinkUp) {
      if (open_down[event.link] == kNone) continue;  // spurious repair
      downs_[open_down[event.link]].end = step.time;
      open_down[event.link] = kNone;
    }
    signaling::ChannelConditions conditions;
    for (const FaultEvent* burst : open_bursts) {
      conditions.extra_loss_probability = std::max(
          conditions.extra_loss_probability, burst->loss_probability);
      conditions.extra_delay_s =
          std::max(conditions.extra_delay_s, burst->extra_delay_s);
    }
    transitions_.push_back({step.time, step.burst_end, event, conditions});
  }
}

signaling::ChannelConditions FaultSchedule::ConditionsAt(double t) const {
  const auto next = std::upper_bound(transitions_.begin(),
                                     transitions_.end(), t, Before);
  if (next == transitions_.begin()) return {};
  return std::prev(next)->conditions;
}

bool FaultSchedule::LinkDownAt(std::size_t link, double t) const {
  return std::any_of(downs_.begin(), downs_.end(),
                     [&](const DownWindow& w) {
                       return w.link == link && w.begin <= t && t < w.end;
                     });
}

std::span<const FaultTransition> FaultSchedule::TransitionsIn(
    double after, double upto) const {
  const auto first = std::upper_bound(transitions_.begin(),
                                      transitions_.end(), after, Before);
  const auto last =
      std::max(first, std::upper_bound(transitions_.begin(),
                                       transitions_.end(), upto, Before));
  return {first, last};
}

std::vector<std::size_t> FaultSchedule::CrashesIn(double after,
                                                  double upto) const {
  std::vector<std::size_t> links;
  for (const FaultTransition& transition : TransitionsIn(after, upto)) {
    if (transition.event.kind == FaultKind::kControllerCrash) {
      links.push_back(transition.event.link);
    }
  }
  return links;
}

}  // namespace rcbr::sim::fault
