// Deterministic fault schedules.
//
// A FaultPlan is a time-ordered list of fault events — RM-cell loss/delay
// bursts on the signaling channel, link failure/repair pairs, and port
// controller crashes — fixed before the simulation starts. Plans are
// either hand-built (Add) or drawn from a seeded Rng (Generate), so a
// sweep point that derives its plan from the usual
// Rng::Stream(base_seed, point_index) split gets the same faults at every
// thread count: faults are inputs to the determinism contract
// (docs/algorithms.md §7), not perturbations of it.
//
// The plan is pure data. FaultTimeline (fault_timeline.h) interprets it
// against a running simulation: RunSimulation posts one event per plan
// entry (plus one per loss-burst expiry), and each of those events
// advances the timeline to the simulation clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace rcbr::sim::fault {

enum class FaultKind : std::uint8_t {
  /// Window of elevated RM-cell loss and delivery delay on the signaling
  /// channel ([time, time + duration)).
  kRmLossBurst,
  /// Link goes down at `time`: admissions and rate increases across it
  /// are blocked, active calls must re-route or drop.
  kLinkDown,
  /// Link repaired.
  kLinkUp,
  /// The link's port controller crashes and restarts with empty tables;
  /// the absolute-rate resync repairs it.
  kControllerCrash,
};

struct FaultEvent {
  double time_s = 0;
  FaultKind kind = FaultKind::kRmLossBurst;
  /// Target link index (kLinkDown/kLinkUp/kControllerCrash; ignored for
  /// bursts, which impair the whole signaling channel).
  std::size_t link = 0;
  /// Burst length, seconds (kRmLossBurst only).
  double duration_s = 0;
  /// Loss probability added to the channel's base loss during the burst
  /// (clamped so the effective probability never exceeds 1).
  double loss_probability = 0;
  /// One-way delivery delay added during the burst, seconds.
  double extra_delay_s = 0;
};

/// Knobs for Generate: Poisson arrivals per fault category over a fixed
/// horizon. Any rate left at 0 generates no events of that category.
struct FaultPlanOptions {
  double horizon_s = 0;
  /// Links the plan may target (link/crash events draw from [0, n)).
  std::size_t num_links = 1;

  double burst_rate_per_s = 0;
  double burst_duration_s = 1.0;
  double burst_loss_probability = 1.0;

  /// Per-link failure process; each failure is paired with a kLinkUp
  /// `link_downtime_s` later, and the next failure is drawn after the
  /// repair (no overlapping outages on one link).
  double link_failure_rate_per_s = 0;
  double link_downtime_s = 5.0;

  /// Per-link controller crash process.
  double crash_rate_per_s = 0;
};

class FaultPlan {
 public:
  /// Draws a plan from `rng` (callers pass a dedicated stream, e.g.
  /// SweepContext::MakeRng(substream)). Deterministic: the draw order is
  /// bursts, then per-link failures, then per-link crashes, and the
  /// merged schedule is stable-sorted by time.
  static FaultPlan Generate(const FaultPlanOptions& options, Rng& rng);

  /// Appends one event, keeping the schedule time-sorted (stable, so
  /// same-time events fire in insertion order). Validates the fields.
  void Add(const FaultEvent& event);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  bool has_bursts() const;
  /// Largest link index any event targets (0 when empty) — for
  /// validating a plan against a simulation's link count.
  std::size_t max_link() const;

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace rcbr::sim::fault
