// Interpreting a FaultPlan against a running simulation.
//
// FaultTimeline is a cursor over the plan that the owner advances along
// simulation time. As it crosses events it
//  * opens/closes RM-cell loss/delay bursts, maintaining a single
//    ChannelConditions the signaling channels read per cell (overlapping
//    bursts combine by max, so closing one burst cannot erase another);
//  * flips per-link up/down state and notifies the owner via callbacks;
//  * reports controller crashes via a callback (the owner wipes the port
//    and drives the resync repair — the timeline never touches ports
//    itself, keeping the repair path explicit and testable).
//
// The timeline knows nothing about the event engine. RunSimulation posts
// one engine event per plan entry (and per burst end), each of which just
// advances the timeline to the engine clock. They are posted before
// arrival seeding, so a fault at time t fires before any same-time call
// event — a fixed order, which is all determinism needs. A slot-clocked
// owner (bench/fig_fault_sweep) advances it directly instead.
//
// Nothing here draws randomness: the plan is fixed data, so a run with a
// given plan is as deterministic as one without.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/recorder.h"
#include "signaling/lossy_channel.h"
#include "sim/fault/fault_plan.h"

namespace rcbr::sim::fault {

struct FaultCallbacks {
  std::function<void(std::size_t link, double now)> on_link_down;
  std::function<void(std::size_t link, double now)> on_link_up;
  std::function<void(std::size_t link, double now)> on_controller_crash;
};

struct FaultStats {
  std::int64_t bursts = 0;
  std::int64_t link_failures = 0;
  std::int64_t link_repairs = 0;
  std::int64_t crashes = 0;
};

class FaultTimeline {
 public:
  /// `plan` is borrowed and must outlive the timeline. Link events must
  /// target links < `num_links`.
  FaultTimeline(const FaultPlan* plan, std::size_t num_links,
                obs::Recorder* recorder = nullptr);

  void set_callbacks(FaultCallbacks callbacks) {
    callbacks_ = std::move(callbacks);
  }

  /// Applies every event with time <= now, in schedule order (burst ends
  /// interleave at their expiry times). Idempotent per event; `now` must
  /// not go backwards.
  void AdvanceTo(double now);

  /// The channel impairment currently in force. Stable address: wire it
  /// into LossyChannelOptions::conditions once and it stays fresh.
  const signaling::ChannelConditions& conditions() const {
    return conditions_;
  }

  bool link_up(std::size_t link) const { return link_up_[link]; }
  std::size_t num_links() const { return link_up_.size(); }

  /// Earliest unapplied event or burst-end time (+infinity when drained).
  double NextEventTime() const;

  const FaultStats& stats() const { return stats_; }

 private:
  struct ActiveBurst {
    double end_s;
    double loss_probability;
    double extra_delay_s;
  };

  void Apply(const FaultEvent& event, double now);
  void ExpireBursts(double now);
  void RecomputeConditions();

  const FaultPlan* plan_;
  std::size_t cursor_ = 0;
  std::vector<ActiveBurst> active_bursts_;
  signaling::ChannelConditions conditions_;
  std::vector<bool> link_up_;
  FaultCallbacks callbacks_;
  FaultStats stats_;
  obs::Recorder* obs_ = nullptr;
};

}  // namespace rcbr::sim::fault
