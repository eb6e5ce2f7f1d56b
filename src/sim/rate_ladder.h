// The multi-resolution call contract (ROADMAP: admission with
// downgrading, after Fricker et al., arXiv 1604.00894).
//
// A scalar-rate call asks the network for exactly one stepwise-CBR
// schedule: admission either grants the full ask or blocks the call. A
// RateLadder generalizes that contract to an ordered ladder of acceptable
// resolutions: rung 0 is the full ask, and each lower rung r scales the
// whole schedule by `scale[r]` (a lower video resolution keeps the
// renegotiation *pattern* but shrinks every rate by a constant factor).
// Under saturation the network admits at the highest feasible rung
// instead of blocking, and departures trigger upgrades back toward rung
// 0 — the user-initiated counterpart of the PR 4 graceful-degradation
// machine, which imposes lower rates from the network side.
//
// Each rung carries a delivered utility-per-second; the simulator
// integrates utility over the time a call spends on each rung, so a
// bench can weigh "more calls at lower resolution" against "fewer calls
// at full resolution".
//
// The scalar contract is the depth-1 ladder {scale 1.0, utility 1.0}:
// every layer that consumes a ladder is written so a depth-1 ladder
// executes the exact legacy operation sequence (same RNG draws, same
// float ops), which the ladder-identity regression tests pin
// byte-for-byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rcbr::sim {

/// One acceptable resolution of a call.
struct RateRung {
  /// Multiplier on the full-ask schedule, in (0, 1]; rung 0 must be 1.0.
  double scale = 1.0;
  /// Delivered utility per second while the call runs at this rung.
  double utility = 1.0;
};

/// An ordered ladder of acceptable resolutions, best first. An empty
/// ladder means "scalar contract" (equivalent to the depth-1 ladder).
class RateLadder {
 public:
  RateLadder() = default;

  /// Validates on construction: non-empty `rungs`, scale[0] == 1.0,
  /// scales finite, positive and non-increasing, utilities finite and
  /// non-negative. Throws InvalidArgument otherwise.
  explicit RateLadder(std::vector<RateRung> rungs);

  /// Convenience: rungs from parallel scale/utility vectors (sizes must
  /// match; same validation).
  static RateLadder FromScales(const std::vector<double>& scales,
                               const std::vector<double>& utilities);

  /// The depth-1 ladder — the scalar contract spelled as a ladder.
  static RateLadder Scalar() { return RateLadder({RateRung{1.0, 1.0}}); }

  bool empty() const { return rungs_.empty(); }
  std::size_t depth() const { return rungs_.size(); }
  /// Rungs a connect walk tries: depth(), or the one rung of the scalar
  /// (empty) ladder.
  std::size_t walk_depth() const { return empty() ? 1 : depth(); }
  const RateRung& rung(std::size_t r) const { return rungs_[r]; }
  const std::vector<RateRung>& rungs() const { return rungs_; }

  /// `full_ask_bps` scaled to rung `r`. Rung 0 returns the argument
  /// bit-exactly (scale 1.0 multiplies exactly), and so does the empty
  /// ladder, whose only rung is 0.
  double RateAt(std::size_t r, double full_ask_bps) const {
    if (rungs_.empty()) return full_ask_bps;
    const double scale = rungs_[r].scale;
    return scale == 1.0 ? full_ask_bps : full_ask_bps * scale;
  }

  double utility(std::size_t r) const { return rungs_[r].utility; }

 private:
  std::vector<RateRung> rungs_;
};

/// How the far end answered a request for one rung: a denial moves a
/// walk on to the next rung, a stop (timed out, link dead) ends it.
enum class RungAnswer : std::uint8_t { kGranted, kDenied, kStopped };

/// Where a walk ended: the last answer, its rung and rate (`end` and 0
/// if every rung was denied).
struct RungWalk {
  RungAnswer answer = RungAnswer::kDenied;
  std::uint32_t rung = 0;
  double rate = 0;
};

/// The best-rung-first walk of the engine's admission and promotion and
/// of core::SourceContract: `ask(rung, rate)` for rungs 0 .. end - 1 at
/// `full_ask` scaled to each, until an answer is not a denial. `rate` is
/// an lvalue: an ask may replace it with the rate the far end granted.
template <typename Ask>
RungWalk WalkRungs(const RateLadder& ladder, double full_ask, std::size_t end,
                   Ask&& ask) {
  for (std::size_t r = 0; r < end; ++r) {
    const auto rung = static_cast<std::uint32_t>(r);
    double rate = ladder.RateAt(r, full_ask);
    const RungAnswer answer = ask(rung, rate);
    if (answer != RungAnswer::kDenied) return {answer, rung, rate};
  }
  return {RungAnswer::kDenied, static_cast<std::uint32_t>(end), 0};
}

}  // namespace rcbr::sim
