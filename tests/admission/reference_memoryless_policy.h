// From-scratch reference for admission::MemorylessPolicy.
//
// Keeps the current rate of every live call and, at each decision, snaps
// every rate to the grid with one unit of mass each: the snapshot built
// from the full list of call rates, as the paper's description reads.
// O(calls) per decision — a test oracle for the per-level counts, not for
// production use. It reports its decisions on the same "mbac.*" counters,
// gauge and trace events as the policy, so the two can be compared
// event for event.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "admission/policies.h"
#include "ldev/chernoff.h"
#include "obs/recorder.h"
#include "util/histogram.h"

namespace rcbr::admission::testing {

class ReferenceMemorylessPolicy final : public sim::AdmissionPolicy {
 public:
  explicit ReferenceMemorylessPolicy(PolicyOptions options)
      : options_(std::move(options)) {}

  bool Admit(double now, const sim::LinkView& view,
             double initial_rate_bps) override {
    return AdmitAtRung(now, view, initial_rate_bps, 0);
  }

  /// Rung 0 tests n+1 calls against the capacity; rung k > 0 tests the n
  /// existing calls against the capacity left by a constant
  /// `rung_rate_bps` load.
  bool AdmitAtRung(double now, const sim::LinkView& view,
                   double rung_rate_bps, std::size_t rung) override {
    if (rates_.empty()) return true;
    Histogram snapshot(options_.rate_grid_bps);
    for (const auto& [id, rate] : rates_) snapshot.AddNearest(rate, 1.0);
    const auto n = static_cast<std::int64_t>(rates_.size());
    const bool downgraded = rung > 0;
    const double capacity =
        view.capacity_bps - (downgraded ? rung_rate_bps : 0.0);
    double failure = 1.0;
    bool admit = false;
    if (!downgraded || capacity > 0) {
      const ldev::DiscreteDistribution marginal(snapshot.values(),
                                                snapshot.Probabilities());
      failure = ldev::ChernoffOverflowProbability(
          marginal, downgraded ? n : n + 1, capacity);
      admit = failure <= options_.target_failure_probability;
    }
    Report(now, admit, failure, n, downgraded, rung);
    return admit;
  }

  void OnAdmitted(double /*now*/, std::uint64_t call_id,
                  double rate_bps) override {
    rates_.try_emplace(call_id, rate_bps);
  }

  void OnRateChange(double /*now*/, std::uint64_t call_id,
                    double /*old_rate_bps*/, double new_rate_bps) override {
    auto it = rates_.find(call_id);
    if (it != rates_.end()) it->second = new_rate_bps;
  }

  void OnDeparture(double /*now*/, std::uint64_t call_id,
                   double /*rate_bps*/) override {
    rates_.erase(call_id);
  }

 private:
  void Report(double now, bool admit, double failure, std::int64_t n,
              bool downgraded, std::size_t rung) const {
    obs::Recorder* obs = options_.recorder;
    const double target = options_.target_failure_probability;
    obs::Count(obs, admit ? "mbac.admit_accept" : "mbac.admit_reject");
    if (downgraded && admit) obs::Count(obs, "mbac.downgraded_admits");
    const obs::EventKind kind = admit ? obs::EventKind::kAdmitAccept
                                      : obs::EventKind::kAdmitReject;
    const auto id = static_cast<std::uint64_t>(n + 1);
    if (downgraded) {
      obs::Emit(obs, now, kind, id, {"failure_est", failure},
                {"target", target}, {"rung", static_cast<double>(rung)});
    } else {
      obs::Emit(obs, now, kind, id, {"failure_est", failure},
                {"target", target}, {"calls", static_cast<double>(n + 1)});
    }
  }

  PolicyOptions options_;
  std::unordered_map<std::uint64_t, double> rates_;
};

}  // namespace rcbr::admission::testing
