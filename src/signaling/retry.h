// Acknowledged renegotiation with timeout, bounded retries, exponential
// backoff, and drift repair.
//
// The paper's scheme (Sec. III-B) is deliberately unacknowledged: delta
// cells may vanish and the source proceeds on its own belief, relying on
// the periodic absolute-rate resync to repair drift. The ATM ABR source
// rules (Jain et al., "Source Behavior for ATM ABR Traffic Management")
// show the other canonical design point: the source arms a timeout per
// request, retransmits with exponential backoff (plus jitter so
// synchronized sources do not retry in lockstep), and gives up after a
// bounded number of attempts. RetryingRenegotiator implements that
// acknowledged variant on top of the same lossy per-hop channel:
//
//  - A request cell takes the path's one delta-cell walk
//    (SignalingPath::WalkDelta); each hop may lose it (base loss plus any
//    active ChannelConditions burst, drawn by DrawCellLoss). Loss at hop k
//    leaves hops 0..k-1 holding a phantom grant. The walk's rollback
//    cells never get a loss hook: they ride the acknowledged response.
//  - Before every retransmit (and before giving up) the source sends a
//    reliable absolute-rate resync at its last *acknowledged* rate, so a
//    timed-out attempt leaves no drift behind — this is what makes bounded
//    retries safe to compose with the all-or-nothing path semantics.
//    RetryLoop owns that rule; this renegotiator and net::Client differ
//    only in the hooks they pass it.
//  - A response that arrives after the timeout (delivery delayed past the
//    deadline by a ChannelConditions::extra_delay_s spike) is treated as
//    lost-late: the grant is rescinded by the same resync and the source
//    retries, modeling reordered/stale signaling.
//  - An explicit denial is a definitive answer and is never retried; the
//    path has already rolled the upstream grants back byte-exactly.
//
// Everything is deterministic given the Rng: loss draws and jitter draws
// come from the caller's seeded stream in a fixed order.
#pragma once

#include <cstdint>

#include "obs/recorder.h"
#include "signaling/lossy_channel.h"
#include "signaling/path.h"
#include "util/rng.h"

namespace rcbr::signaling {

struct RetryOptions {
  /// Seconds the source waits for the grant/deny response before it
  /// declares the attempt lost. Must exceed the path round trip or every
  /// request times out.
  double timeout_s = 0.05;
  /// Retransmissions after the first attempt (0 = a single try).
  std::int64_t max_retries = 3;
  /// First backoff interval, seconds; attempt k waits
  /// backoff_base_s * backoff_multiplier^(k-1), scaled by jitter.
  double backoff_base_s = 0.02;
  double backoff_multiplier = 2.0;
  /// Uniform jitter applied to each backoff: the wait is multiplied by
  /// (1 + U(-jitter_fraction, +jitter_fraction)). Must be in [0, 1).
  double jitter_fraction = 0.1;
  /// Send a reliable absolute-rate resync after this many *successful*
  /// renegotiations (0 = never). Repairs state the source cannot see is
  /// broken — e.g. a controller that crashed and restarted empty.
  std::int64_t resync_every_grants = 0;
  /// Optional sink for kRenegTimeout/kRenegRetry/kRmCellLoss events,
  /// "signaling.reneg_timeouts"/"signaling.reneg_retries" counters, and
  /// the "signaling.span.*" latency / retry-budget histograms.
  obs::Recorder* recorder = nullptr;
};

/// Throws InvalidArgument unless every field of `retry` is in range.
void ValidateRetryOptions(const RetryOptions& retry);

/// Backoff before retransmission `attempt` (0-based):
///   backoff_base_s * backoff_multiplier^attempt,
/// scaled by (1 + U(-jitter_fraction, +jitter_fraction)) drawn from
/// `rng` when jitter is on. This is *the* backoff contract — RetryLoop
/// calls it for the renegotiator and for every net::Client loop (control
/// transactions, connect and reconnect dials), so the sim-time retry
/// tests pin the wall-clock behavior too.
double BackoffSeconds(const RetryOptions& retry, std::int64_t attempt,
                      Rng* rng);

/// How one attempt of an acknowledged request ended.
enum class AttemptEnd : std::uint8_t {
  kAnswered,  // a definitive response (grant or denial) arrived in time
  kTimedOut,  // no usable response by the deadline
  kAborted,   // the transport died; nothing more can be sent
};

/// The acknowledged-request loop of RetryingRenegotiator and net::Client
/// (whose connect and reconnect dials run it too, a failed dial counting
/// as a timeout).
/// After each timed-out `attempt(k)` it runs `on_timeout(k)` — the
/// caller's rescind and bookkeeping, false if the link died — and only
/// then gives up (budget spent: kTimedOut) or runs `on_backoff(k,
/// BackoffSeconds(...))` and retransmits. So every timeout, the last
/// included, is rescinded, and no backoff is drawn after the last one.
template <typename Attempt, typename OnTimeout, typename OnBackoff>
AttemptEnd RetryLoop(const RetryOptions& retry, Rng* rng, Attempt&& attempt,
                     OnTimeout&& on_timeout, OnBackoff&& on_backoff) {
  for (std::int64_t k = 0;; ++k) {
    const AttemptEnd end = attempt(k);
    if (end != AttemptEnd::kTimedOut) return end;
    if (!on_timeout(k)) return AttemptEnd::kAborted;
    if (k >= retry.max_retries) return AttemptEnd::kTimedOut;
    on_backoff(k, BackoffSeconds(retry, k, rng));
  }
}

struct RetryStats {
  std::int64_t requests = 0;   // Renegotiate() calls with a rate change
  std::int64_t attempts = 0;   // cells sent (first tries + retries)
  std::int64_t retries = 0;    // retransmissions after a timeout
  std::int64_t timeouts = 0;   // attempts that missed the deadline
  std::int64_t denials = 0;    // explicit full-path denials
  std::int64_t abandoned = 0;  // requests that exhausted max_retries
  std::int64_t resyncs = 0;    // reliable repair cells sent
};

struct RenegotiationOutcome {
  bool accepted = false;
  /// True when the request died of exhausted retries rather than an
  /// explicit denial.
  bool timed_out = false;
  /// Cells sent for this request (>= 1).
  std::int64_t attempts = 0;
  /// Source-perceived completion latency: round trips, timeout waits, and
  /// backoff sleeps, seconds.
  double latency_s = 0;
};

class RetryingRenegotiator {
 public:
  /// `path` and `rng` are borrowed and must outlive the renegotiator; the
  /// connection must already be set up at `initial_rate_bps` on every
  /// hop, and every hop must run with per-VCI tracking (resync repair
  /// depends on it; checked).
  RetryingRenegotiator(SignalingPath* path, std::uint64_t vci,
                       double initial_rate_bps, const RetryOptions& retry,
                       const LossyChannelOptions& channel, Rng* rng);

  /// Renegotiates to `new_rate_bps`, retrying on timeout. On a false
  /// return (denial or exhausted retries) every hop is back at the last
  /// acknowledged rate. `now_seconds` stamps trace events; retries are
  /// resolved inline on that time axis (the reported latency does not
  /// shift subsequent simulation events).
  RenegotiationOutcome Renegotiate(double new_rate_bps, double now_seconds);

  /// Sends the reliable absolute-rate resync at the acknowledged rate —
  /// the repair a caller applies after a controller crash/restart.
  void Resync(double now_seconds);

  /// The last rate the network acknowledged (unlike the unacked
  /// renegotiators there is no belief drift: belief only moves on a
  /// grant).
  double granted_rate_bps() const { return granted_; }

  /// Establishes the contract rung carried on every subsequent cell
  /// (scalar contracts leave it at 0). Sets both the requested and the
  /// acknowledged rung — call when the contract really is at `rung`
  /// (connect, adopted grant), not for an in-flight probe.
  void set_rung(std::uint32_t rung) { rung_ = acked_rung_ = rung; }

  /// Rung carried on *request* cells only, for probing a different rung
  /// (an upgrade attempt) without committing to it: rescind resyncs —
  /// the timeout path and Resync() — keep carrying the acknowledged
  /// rung, so a timed-out or abandoned probe cannot corrupt the upgrade
  /// queues (the call is still a waiter at its real rung). A grant
  /// promotes the requested rung to acknowledged.
  void SetRequestedRung(std::uint32_t rung) { rung_ = rung; }
  std::uint32_t rung() const { return rung_; }
  /// The rung of the last acknowledged contract — what resyncs carry.
  std::uint32_t acked_rung() const { return acked_rung_; }

  /// Hop k's tracked rate minus the acknowledged rate, bits/s. Nonzero
  /// only while some hop's state is corrupted (e.g. after a crash,
  /// before the next repair).
  double DriftBps(std::size_t hop) const {
    return path_->DriftBps(hop, vci_, granted_);
  }
  double MaxAbsDriftBps() const {
    return path_->MaxAbsDriftBps(vci_, granted_);
  }

  const RetryStats& stats() const { return stats_; }

 private:
  SignalingPath* path_;
  std::uint64_t vci_;
  RetryOptions retry_;
  LossyChannelOptions channel_;
  Rng* rng_;
  double granted_;
  std::uint32_t rung_ = 0;
  std::uint32_t acked_rung_ = 0;
  std::int64_t grants_since_resync_ = 0;
  RetryStats stats_;
  /// Span handles (null when spans are off): source-perceived completion
  /// latency per request, and retry-budget consumption — the fraction of
  /// the (1 + max_retries) cell budget each request spent.
  obs::SpanHistogram* span_latency_ = nullptr;
  obs::SpanHistogram* span_budget_ = nullptr;
};

}  // namespace rcbr::signaling
