#include "sim/fault/fault_plan.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace rcbr::sim::fault {

namespace {

// Every event time (and every burst end, which the simulation posts as
// an event of its own) must be a finite number: the simulation clock
// advances to it.
void ValidateEvent(const FaultEvent& event) {
  Require(std::isfinite(event.time_s) && event.time_s >= 0,
          "FaultPlan: event time must be finite and >= 0");
  Require(std::isfinite(event.duration_s) && event.duration_s >= 0,
          "FaultPlan: burst duration must be finite and >= 0");
  Require(!std::isnan(event.loss_probability) &&
              event.loss_probability >= 0 && event.loss_probability <= 1,
          "FaultPlan: burst loss probability must be in [0,1]");
  Require(!std::isnan(event.extra_delay_s) && event.extra_delay_s >= 0,
          "FaultPlan: negative burst delay");
}

// Generate draws until each process passes the horizon, so an infinite
// horizon, rate or downtime would append forever or place events at
// infinity.
void ValidateOptions(const FaultPlanOptions& options) {
  Require(std::isfinite(options.horizon_s) && options.horizon_s >= 0,
          "FaultPlan: horizon must be finite and >= 0");
  Require(std::isfinite(options.burst_rate_per_s) &&
              std::isfinite(options.link_failure_rate_per_s) &&
              std::isfinite(options.crash_rate_per_s) &&
              std::isfinite(options.burst_duration_s) &&
              std::isfinite(options.link_downtime_s),
          "FaultPlan: fault rates and durations must be finite");
  Require(options.num_links > 0, "FaultPlan: need at least one link");
  Require(options.burst_rate_per_s >= 0 &&
              options.link_failure_rate_per_s >= 0 &&
              options.crash_rate_per_s >= 0,
          "FaultPlan: negative fault rate");
  Require(options.burst_duration_s >= 0, "FaultPlan: negative duration");
  Require(options.burst_loss_probability >= 0 &&
              options.burst_loss_probability <= 1,
          "FaultPlan: burst loss probability must be in [0,1]");
  Require(options.link_downtime_s >= 0, "FaultPlan: negative downtime");
}

}  // namespace

FaultPlan FaultPlan::Generate(const FaultPlanOptions& options, Rng& rng) {
  ValidateOptions(options);
  std::vector<FaultEvent> events;
  if (options.burst_rate_per_s > 0) {
    double t = rng.Exponential(1.0 / options.burst_rate_per_s);
    while (t < options.horizon_s) {
      FaultEvent e;
      e.time_s = t;
      e.kind = FaultKind::kRmLossBurst;
      e.duration_s = options.burst_duration_s;
      e.loss_probability = options.burst_loss_probability;
      events.push_back(e);
      t += rng.Exponential(1.0 / options.burst_rate_per_s);
    }
  }
  if (options.link_failure_rate_per_s > 0) {
    for (std::size_t link = 0; link < options.num_links; ++link) {
      double t = rng.Exponential(1.0 / options.link_failure_rate_per_s);
      while (t < options.horizon_s) {
        events.push_back({t, FaultKind::kLinkDown, link, 0, 0, 0});
        const double up = t + options.link_downtime_s;
        events.push_back({up, FaultKind::kLinkUp, link, 0, 0, 0});
        t = up + rng.Exponential(1.0 / options.link_failure_rate_per_s);
      }
    }
  }
  if (options.crash_rate_per_s > 0) {
    for (std::size_t link = 0; link < options.num_links; ++link) {
      double t = rng.Exponential(1.0 / options.crash_rate_per_s);
      while (t < options.horizon_s) {
        events.push_back({t, FaultKind::kControllerCrash, link, 0, 0, 0});
        t += rng.Exponential(1.0 / options.crash_rate_per_s);
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time_s < b.time_s;
                   });
  FaultPlan plan;
  plan.events_ = std::move(events);
  return plan;
}

void FaultPlan::Add(const FaultEvent& event) {
  ValidateEvent(event);
  events_.push_back(event);
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time_s < b.time_s;
                   });
}

bool FaultPlan::has_bursts() const {
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultKind::kRmLossBurst) return true;
  }
  return false;
}

std::size_t FaultPlan::max_link() const {
  std::size_t worst = 0;
  for (const FaultEvent& e : events_) {
    if (e.kind != FaultKind::kRmLossBurst) worst = std::max(worst, e.link);
  }
  return worst;
}

}  // namespace rcbr::sim::fault
