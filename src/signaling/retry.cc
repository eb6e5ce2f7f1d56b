#include "signaling/retry.h"

#include <cmath>

#include "util/error.h"

namespace rcbr::signaling {

void ValidateRetryOptions(const RetryOptions& retry) {
  Require(!std::isnan(retry.timeout_s) && retry.timeout_s > 0,
          "RetryOptions: timeout must be positive");
  Require(retry.max_retries >= 0, "RetryOptions: negative retry count");
  Require(!std::isnan(retry.backoff_base_s) && retry.backoff_base_s >= 0,
          "RetryOptions: negative backoff base");
  Require(retry.backoff_multiplier >= 1,
          "RetryOptions: backoff multiplier must be >= 1");
  Require(retry.jitter_fraction >= 0 && retry.jitter_fraction < 1,
          "RetryOptions: jitter fraction must be in [0,1)");
  Require(retry.resync_every_grants >= 0,
          "RetryOptions: negative resync period");
}

double BackoffSeconds(const RetryOptions& retry, std::int64_t attempt,
                      Rng* rng) {
  double backoff =
      retry.backoff_base_s * std::pow(retry.backoff_multiplier,
                                      static_cast<double>(attempt));
  if (retry.jitter_fraction > 0) {
    backoff *= 1.0 + rng->Uniform(-retry.jitter_fraction,
                                  retry.jitter_fraction);
  }
  return backoff;
}

RetryingRenegotiator::RetryingRenegotiator(SignalingPath* path,
                                           std::uint64_t vci,
                                           double initial_rate_bps,
                                           const RetryOptions& retry,
                                           const LossyChannelOptions& channel,
                                           Rng* rng)
    : path_(path),
      vci_(vci),
      retry_(retry),
      channel_(channel),
      rng_(rng),
      granted_(initial_rate_bps) {
  Require(path != nullptr, "RetryingRenegotiator: null path");
  Require(rng != nullptr, "RetryingRenegotiator: null rng");
  for (std::size_t k = 0; k < path->hop_count(); ++k) {
    Require(path->hop(k)->tracks_connections(),
            "RetryingRenegotiator: every hop must track connections "
            "(resync repair)");
  }
  ValidateRetryOptions(retry);
  ValidateChannelOptions(channel);
  Require(initial_rate_bps >= 0, "RetryingRenegotiator: negative rate");
  span_latency_ = obs::FindSpan(retry_.recorder, "signaling.span.reneg_latency_s");
  span_budget_ = obs::FindSpan(retry_.recorder, "signaling.span.retry_budget");
}

RenegotiationOutcome RetryingRenegotiator::Renegotiate(double new_rate_bps,
                                                       double now_seconds) {
  Require(new_rate_bps >= 0, "RetryingRenegotiator: negative rate");
  RenegotiationOutcome out;
  if (new_rate_bps == granted_) {
    out.accepted = true;
    return out;
  }
  ++stats_.requests;
  const double delta = new_rate_bps - granted_;
  const AttemptEnd end = RetryLoop(
      retry_, rng_,
      [&](std::int64_t) {
        ++stats_.attempts;
        ++out.attempts;
        // A loss leaves a phantom grant upstream until the timeout resync
        // rescinds it; a denial's rollback rides the reliable response path.
        const DeltaWalk walk = path_->WalkDelta(
            vci_, delta, now_seconds, rung_,
            [&](std::size_t k) {
              return DrawCellLoss(channel_, *rng_, vci_, delta, k,
                                  now_seconds);
            },
            [](std::size_t) { return false; });
        const double rtt =
            path_->RoundTripSeconds() + ExtraDelaySeconds(channel_);
        if (walk.end == DeltaWalk::End::kDenied) {
          // Definitive answer; never retried.
          ++stats_.denials;
          out.latency_s += rtt;
          return AttemptEnd::kAnswered;
        }
        if (walk.end == DeltaWalk::End::kGranted && rtt <= retry_.timeout_s) {
          granted_ = new_rate_bps;
          acked_rung_ = rung_;  // a probe's rung becomes the contract rung
          out.accepted = true;
          out.latency_s += rtt;
          if (retry_.resync_every_grants > 0 &&
              ++grants_since_resync_ >= retry_.resync_every_grants) {
            Resync(now_seconds);
          }
          return AttemptEnd::kAnswered;
        }
        return AttemptEnd::kTimedOut;
      },
      [&](std::int64_t attempt) {
        // Lost in flight, or delivered with the response past the
        // deadline (delay spike), so the stale grant must not stand.
        // Rescind with the acknowledged rate *and rung*: carrying the
        // in-flight requested rung here would rewrite the upgrade queues
        // for a promotion that was never granted.
        path_->Resync(vci_, granted_, now_seconds, acked_rung_);
        ++stats_.timeouts;
        out.latency_s += retry_.timeout_s;
        if constexpr (obs::kEnabled) {
          obs::Count(retry_.recorder, "signaling.reneg_timeouts");
          obs::Emit(retry_.recorder, now_seconds,
                    obs::EventKind::kRenegTimeout, vci_, {"delta_bps", delta},
                    {"attempt", static_cast<double>(attempt + 1)});
        }
        return true;
      },
      [&](std::int64_t attempt, double backoff) {
        out.latency_s += backoff;
        ++stats_.retries;
        if constexpr (obs::kEnabled) {
          obs::Count(retry_.recorder, "signaling.reneg_retries");
          obs::Emit(retry_.recorder, now_seconds, obs::EventKind::kRenegRetry,
                    vci_, {"delta_bps", delta}, {"backoff_s", backoff},
                    {"attempt", static_cast<double>(attempt + 2)});
        }
      });
  if (end == AttemptEnd::kTimedOut) {
    ++stats_.abandoned;
    out.timed_out = true;
  }
  if (span_latency_ != nullptr) span_latency_->Record(out.latency_s);
  if (span_budget_ != nullptr) {
    span_budget_->Record(static_cast<double>(out.attempts) /
                         static_cast<double>(1 + retry_.max_retries));
  }
  return out;
}

void RetryingRenegotiator::Resync(double now_seconds) {
  path_->Resync(vci_, granted_, now_seconds, acked_rung_);
  ++stats_.resyncs;
  grants_since_resync_ = 0;
  obs::Count(retry_.recorder, "signaling.resyncs");
}

}  // namespace rcbr::signaling
