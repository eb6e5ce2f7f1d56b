// From-scratch reference for admission::MemoryPolicy.
//
// Every call keeps its own reservation histogram; each decision merges
// them all and adds every open interval [since, now), exactly as the
// paper's description reads. O(calls x grid) per decision — a test
// oracle for the incremental pooled estimate, not for production use.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "admission/policies.h"
#include "ldev/chernoff.h"
#include "obs/recorder.h"
#include "util/histogram.h"

namespace rcbr::admission::testing {

class ReferenceMemoryPolicy final : public sim::AdmissionPolicy {
 public:
  explicit ReferenceMemoryPolicy(PolicyOptions options)
      : options_(std::move(options)) {}

  bool Admit(double now, const sim::LinkView& view,
             double initial_rate_bps) override {
    return AdmitAtRung(now, view, initial_rate_bps, 0);
  }

  /// Rung 0 tests n+1 calls against the capacity; rung k > 0 tests the n
  /// existing calls against the capacity left by a constant
  /// `rung_rate_bps` load. Each decision emits an admission event carrying
  /// its "failure_est".
  bool AdmitAtRung(double now, const sim::LinkView& view,
                   double rung_rate_bps, std::size_t rung) override {
    if (calls_.empty()) return true;
    const Histogram pooled = PooledHistory(now);
    if (pooled.total_weight() <= 0) return true;
    const auto n = static_cast<std::int64_t>(calls_.size());
    const bool downgraded = rung > 0;
    const double capacity =
        view.capacity_bps - (downgraded ? rung_rate_bps : 0.0);
    double failure = 1.0;
    if (!downgraded || capacity > 0) {
      failure = ldev::ChernoffOverflowProbability(
          Marginal(pooled), downgraded ? n : n + 1, capacity);
    }
    const bool admit = failure <= options_.target_failure_probability;
    obs::Emit(options_.recorder, now,
              admit ? obs::EventKind::kAdmitAccept
                    : obs::EventKind::kAdmitReject,
              static_cast<std::uint64_t>(n + 1), {"failure_est", failure});
    return admit;
  }

  void OnAdmitted(double now, std::uint64_t call_id,
                  double rate_bps) override {
    calls_.emplace(call_id,
                   CallHistory{Histogram(options_.rate_grid_bps), now,
                               rate_bps});
  }

  void OnRateChange(double now, std::uint64_t call_id,
                    double /*old_rate_bps*/, double new_rate_bps) override {
    auto it = calls_.find(call_id);
    if (it == calls_.end()) return;
    CallHistory& call = it->second;
    const double held = now - call.since;
    if (held > 0) call.levels.AddNearest(call.current_rate, held);
    call.current_rate = new_rate_bps;
    call.since = now;
  }

  void OnDeparture(double /*now*/, std::uint64_t call_id,
                   double /*rate_bps*/) override {
    calls_.erase(call_id);
  }

 private:
  struct CallHistory {
    Histogram levels;
    double since = 0;
    double current_rate = 0;
  };

  static ldev::DiscreteDistribution Marginal(const Histogram& h) {
    return {h.values(), h.Probabilities()};
  }

  Histogram PooledHistory(double now) const {
    Histogram pooled(options_.rate_grid_bps);
    for (const auto& [id, call] : calls_) {
      pooled.Merge(call.levels);
      const double open = now - call.since;
      if (open > 0) pooled.AddNearest(call.current_rate, open);
    }
    return pooled;
  }

  PolicyOptions options_;
  std::unordered_map<std::uint64_t, CallHistory> calls_;
};

}  // namespace rcbr::admission::testing
