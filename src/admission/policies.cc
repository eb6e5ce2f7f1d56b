#include "admission/policies.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/error.h"

namespace rcbr::admission {

namespace {

/// Validates the options every estimating policy shares.
PolicyOptions Checked(PolicyOptions options, const std::string& policy) {
  Require(!options.rate_grid_bps.empty(), policy + ": empty rate grid");
  Require(options.target_failure_probability > 0 &&
              options.target_failure_probability < 1,
          policy + ": target must be in (0,1)");
  return options;
}

/// The estimating policies' one admission decision. With no call in the
/// system, or an estimate without mass, there is nothing to estimate from:
/// admit, and the simulator's capacity check applies. Otherwise the
/// Chernoff test on `estimate()`, which is read in place, normalized or
/// not, and allocates nothing:
///  * rung 0: the arriving call is one more draw from the estimated law;
///    admit iff the failure probability with n + 1 calls stays at or
///    below the target.
///  * rung k > 0: the arriving call is not exchangeable with the full-ask
///    population the estimator describes, so it enters as a known constant
///    load `rung_rate_bps` and the test asks whether the n existing calls
///    overflow the *residual* capacity. Monotone in the rung rate: a
///    deeper rung can only pass more easily, which is what turns blocking
///    into downgrading. Admits also count "mbac.downgraded_admits".
/// Decisions are reported through the options' recorder (if any) on the
/// "mbac.*" counters and a kAdmitAccept/kAdmitReject event carrying the
/// Chernoff estimate, the target and the call count (rung 0) or the rung.
template <typename Estimate>
bool EstimatedAdmit(std::size_t live_calls, Estimate&& estimate,
                    const sim::LinkView& view, double rung_rate_bps,
                    std::size_t rung, const PolicyOptions& options,
                    double now) {
  if (live_calls == 0) return true;
  const Histogram& law = estimate();
  if (law.total_weight() <= 0) return true;
  const auto calls = static_cast<std::int64_t>(live_calls);
  const double target = options.target_failure_probability;
  const double residual = view.capacity_bps - rung_rate_bps;
  bool admit = false;
  double failure = 1.0;
  if (rung == 0 || residual > 0) {
    failure = ldev::ChernoffOverflowProbability(
        ldev::TiltFamily(law.values(), law.weights()),
        rung == 0 ? calls + 1 : calls,
        rung == 0 ? view.capacity_bps : residual);
    admit = failure <= target;
  }
  if constexpr (obs::kEnabled) {
    using Field = obs::TraceEvent::Field;
    obs::Recorder* obs = options.recorder;
    obs::Count(obs, admit ? "mbac.admit_accept" : "mbac.admit_reject");
    if (admit && rung > 0) obs::Count(obs, "mbac.downgraded_admits");
    const Field last = rung == 0
                           ? Field{"calls", static_cast<double>(calls + 1)}
                           : Field{"rung", static_cast<double>(rung)};
    obs::Emit(obs, now,
              admit ? obs::EventKind::kAdmitAccept
                    : obs::EventKind::kAdmitReject,
              static_cast<std::uint64_t>(calls + 1),
              {"failure_est", failure}, {"target", target}, last);
  }
  return admit;
}

}  // namespace

PerfectKnowledgePolicy::PerfectKnowledgePolicy(
    ldev::DiscreteDistribution call_distribution, double capacity_bps,
    double target, obs::Recorder* recorder)
    : max_calls_(ldev::MaxAdmissibleCalls(call_distribution, capacity_bps,
                                          target)),
      obs_(recorder) {}

bool PerfectKnowledgePolicy::Admit(double now,
                                   const sim::LinkView& /*view*/,
                                   double /*initial_rate_bps*/) {
  const bool admit = active_ < max_calls_;
  if constexpr (obs::kEnabled) {
    obs::Count(obs_, admit ? "mbac.admit_accept" : "mbac.admit_reject");
    obs::Emit(obs_, now,
              admit ? obs::EventKind::kAdmitAccept
                    : obs::EventKind::kAdmitReject,
              static_cast<std::uint64_t>(active_ + 1),
              {"calls", static_cast<double>(active_ + 1)},
              {"max_calls", static_cast<double>(max_calls_)});
  }
  return admit;
}

MemorylessPolicy::MemorylessPolicy(PolicyOptions options)
    : options_(Checked(std::move(options), "MemorylessPolicy")),
      counts_(options_.rate_grid_bps.size(), 0),
      snapshot_(options_.rate_grid_bps) {}

const Histogram& MemorylessPolicy::Snapshot() {
  snapshot_.Clear();
  // Shares rather than counts: the snapshot is then the normalized
  // empirical law, so the test reads the same inputs, bit for bit, as a
  // from-scratch normalization of the counts.
  const auto live = static_cast<double>(level_of_.size());
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] > 0) {
      snapshot_.AddAt(b, static_cast<double>(counts_[b]) / live);
    }
  }
  return snapshot_;
}

bool MemorylessPolicy::Admit(double now, const sim::LinkView& view,
                             double initial_rate_bps) {
  return AdmitAtRung(now, view, initial_rate_bps, 0);
}

bool MemorylessPolicy::AdmitAtRung(double now, const sim::LinkView& view,
                                   double rung_rate_bps, std::size_t rung) {
  return EstimatedAdmit(
      level_of_.size(), [&]() -> const Histogram& { return Snapshot(); },
      view, rung_rate_bps, rung, options_, now);
}

void MemorylessPolicy::OnAdmitted(double /*now*/, std::uint64_t call_id,
                                  double rate_bps) {
  const auto [it, inserted] =
      level_of_.try_emplace(call_id, snapshot_.NearestIndex(rate_bps));
  if (inserted) ++counts_[it->second];
}

void MemorylessPolicy::OnRateChange(double /*now*/, std::uint64_t call_id,
                                    double /*old_rate_bps*/,
                                    double new_rate_bps) {
  auto it = level_of_.find(call_id);
  if (it == level_of_.end()) return;
  --counts_[it->second];
  it->second = snapshot_.NearestIndex(new_rate_bps);
  ++counts_[it->second];
}

void MemorylessPolicy::OnDeparture(double /*now*/, std::uint64_t call_id,
                                   double /*rate_bps*/) {
  auto it = level_of_.find(call_id);
  if (it == level_of_.end()) return;
  --counts_[it->second];
  level_of_.erase(it);
}

MemoryPolicy::MemoryPolicy(PolicyOptions options)
    : options_(Checked(std::move(options), "MemoryPolicy")),
      levels_(options_.rate_grid_bps.size()),
      pooled_(options_.rate_grid_bps) {}

AgedMemoryPolicy::AgedMemoryPolicy(PolicyOptions options,
                                   double aging_tau_seconds)
    : options_(Checked(std::move(options), "AgedMemoryPolicy")),
      tau_seconds_(aging_tau_seconds),
      pooled_(options_.rate_grid_bps) {
  Require(aging_tau_seconds > 0, "AgedMemoryPolicy: tau must be positive");
}

void AgedMemoryPolicy::Roll(CallHistory& call, double now) const {
  const double open = now - call.since;
  if (open <= 0) return;
  // Decay the old mass, then add the just-elapsed interval. Weighting the
  // fresh interval at full strength keeps the estimator simple; the decay
  // factor is what bounds the memory.
  call.levels.Scale(std::exp(-open / tau_seconds_));
  call.levels.AddNearest(call.current_rate, open);
  call.since = now;
}

const Histogram& AgedMemoryPolicy::Pooled(double now) {
  pooled_.Clear();
  for (auto& [id, call] : calls_) {
    Roll(call, now);
    pooled_.Merge(call.levels);
  }
  return pooled_;
}

bool AgedMemoryPolicy::Admit(double now, const sim::LinkView& view,
                             double initial_rate_bps) {
  return AdmitAtRung(now, view, initial_rate_bps, 0);
}

bool AgedMemoryPolicy::AdmitAtRung(double now, const sim::LinkView& view,
                                   double rung_rate_bps, std::size_t rung) {
  return EstimatedAdmit(
      calls_.size(), [&]() -> const Histogram& { return Pooled(now); },
      view, rung_rate_bps, rung, options_, now);
}

void AgedMemoryPolicy::OnAdmitted(double now, std::uint64_t call_id,
                                  double rate_bps) {
  CallHistory history{Histogram(options_.rate_grid_bps), now, rate_bps};
  calls_.emplace(call_id, std::move(history));
}

void AgedMemoryPolicy::OnRateChange(double now, std::uint64_t call_id,
                                    double /*old_rate_bps*/,
                                    double new_rate_bps) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return;
  Roll(it->second, now);
  it->second.current_rate = new_rate_bps;
}

void AgedMemoryPolicy::OnDeparture(double /*now*/, std::uint64_t call_id,
                                   double /*rate_bps*/) {
  calls_.erase(call_id);
}

void MemoryPolicy::CompensatedSum::Add(double x) {
  const double next = sum + x;
  const double x_part = next - sum;
  error += (sum - (next - x_part)) + (x - x_part);
  sum = next;
}

void MemoryPolicy::Advance(Level& level, double now) {
  if (now == level.as_of) return;
  level.open_mass.Add(static_cast<double>(level.open) * (now - level.as_of));
  level.as_of = now;
  level.fresh = 0;
}

void MemoryPolicy::Enter(std::size_t level, double now) {
  Level& l = levels_[level];
  Advance(l, now);
  ++l.open;
  ++l.fresh;
}

void MemoryPolicy::Leave(std::size_t level, double since, double now) {
  Level& l = levels_[level];
  Advance(l, now);
  // A call that entered at `as_of` was counted fresh unless the clock ran
  // backwards in between; the guard keeps `fresh` from overcounting.
  if (since == now && l.fresh > 0) --l.fresh;
  --l.open;
  // Exact reset once every open interval left starts now.
  if (l.fresh == l.open) {
    l.open_mass = {};
  } else {
    l.open_mass.Add(since - now);
  }
}

const Histogram& MemoryPolicy::PooledHistory(double now) {
  pooled_.Clear();
  for (std::size_t b = 0; b < levels_.size(); ++b) {
    const Level& l = levels_[b];
    const double open =
        std::max(0.0, l.open_mass.value() +
                          static_cast<double>(l.open) * (now - l.as_of));
    const double weight = std::max(0.0, l.closed.value()) + open;
    if (weight > 0) pooled_.AddAt(b, weight);
  }
  return pooled_;
}

bool MemoryPolicy::Admit(double now, const sim::LinkView& view,
                         double initial_rate_bps) {
  return AdmitAtRung(now, view, initial_rate_bps, 0);
}

bool MemoryPolicy::AdmitAtRung(double now, const sim::LinkView& view,
                               double rung_rate_bps, std::size_t rung) {
  return EstimatedAdmit(
      calls_.size(), [&]() -> const Histogram& { return PooledHistory(now); },
      view, rung_rate_bps, rung, options_, now);
}

void MemoryPolicy::OnAdmitted(double now, std::uint64_t call_id,
                              double rate_bps) {
  const auto [it, inserted] = calls_.try_emplace(call_id);
  if (!inserted) return;
  it->second = {std::vector<double>(levels_.size()), now,
                pooled_.NearestIndex(rate_bps)};
  Enter(it->second.level, now);
}

void MemoryPolicy::OnRateChange(double now, std::uint64_t call_id,
                                double /*old_rate_bps*/,
                                double new_rate_bps) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return;
  CallHistory& call = it->second;
  const double held = now - call.since;
  if (held > 0) {
    Level& l = levels_[call.level];
    if (call.closed[call.level] == 0) ++l.holders;
    call.closed[call.level] += held;
    l.closed.Add(held);
  }
  Leave(call.level, call.since, now);
  call.level = pooled_.NearestIndex(new_rate_bps);
  call.since = now;
  Enter(call.level, now);
}

void MemoryPolicy::OnDeparture(double now, std::uint64_t call_id,
                               double /*rate_bps*/) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return;
  const CallHistory& call = it->second;
  for (std::size_t b = 0; b < levels_.size(); ++b) {
    if (call.closed[b] == 0) continue;
    // Exact reset once no live call holds mass here.
    Level& l = levels_[b];
    if (--l.holders == 0) {
      l.closed = {};
    } else {
      l.closed.Add(-call.closed[b]);
    }
  }
  Leave(call.level, call.since, now);
  calls_.erase(it);
}

}  // namespace rcbr::admission
