// Chernoff estimates for bufferless multiplexing (eqs. 10-12).
//
// With N i.i.d. calls whose per-call bandwidth demand has distribution
// {(r_j, p_j)} sharing a link of capacity C, the probability that the
// total demand exceeds C is estimated by
//     P(failure) ~= exp(-N I(C/N)),   I(c) = sup_s [ s c - log M(s) ].
// The paper uses this both for the loss probability of the shared-buffer
// scenario at the slow time scale (eq. 10) and for the renegotiation
// failure probability of RCBR (eqs. 11-12), and it is the basis of every
// admission-control scheme in Sec. VI.
#pragma once

#include <cstdint>

#include "ldev/mgf.h"

namespace rcbr::ldev {

/// The large-deviations exponent I(c) for per-call capacity c.
double ChernoffExponent(const TiltFamily& demand, double c);

/// exp(-N I(C/N)): the estimated probability that N calls' total demand
/// exceeds capacity C. Returns 1 when C/N <= mean demand (the estimate is
/// vacuous there) and 0 when C/N exceeds the peak demand.
double ChernoffOverflowProbability(const TiltFamily& demand,
                                   std::int64_t n_calls, double capacity);

/// Bahadur-Rao refinement of the Chernoff estimate:
///     P(sum > C) ~= exp(-N I(c)) / (s* sqrt(2 pi N Lambda''(s*))),
/// with c = C/N and s* the tilting point. Far closer to the true tail
/// than the bare exponent for moderate N (the paper cites the Chernoff
/// accuracy as "quite good"; this quantifies the prefactor). Same edge
/// conventions as ChernoffOverflowProbability.
double RefinedOverflowProbability(const TiltFamily& demand,
                                  std::int64_t n_calls, double capacity);

/// The largest N such that ChernoffOverflowProbability(demand, N, C) stays
/// <= target. Returns 0 if even one call violates the target. The
/// probability is nondecreasing in N for fixed C, so this is a binary
/// search.
std::int64_t MaxAdmissibleCalls(const TiltFamily& demand,
                                double capacity, double target);

}  // namespace rcbr::ldev
