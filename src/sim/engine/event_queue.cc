#include "sim/engine/event_queue.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace rcbr::sim::engine {
namespace {

// Calendar sizing: aim for a handful of events per bucket so the lazy
// per-bucket sort stays tiny, and cap the bucket count so pathological
// time spreads cannot allocate unbounded header arrays.
constexpr std::size_t kTargetEventsPerBucket = 4;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;

}  // namespace

void EventQueue::Post(double time, const EventPayload& payload) {
  Require(!std::isnan(time), "EventQueue: event time is NaN");
  const ScheduledEvent record{time, next_seq_++, payload};
  if (time < run_limit_) {
    // Into the sorted run (descending by fire order; back() earliest).
    // Same-time bursts land here with increasing seq, so the insertion
    // point is usually the very end — the scan is effectively O(1).
    const auto it =
        std::lower_bound(run_.begin(), run_.end(), record, Later{});
    run_.insert(it, record);
  } else if (window_active_ && time < window_end_) {
    buckets_[BucketIndex(time)].push_back(record);
  } else {
    overflow_.push_back(record);
  }
  ++size_;
}

std::size_t EventQueue::BucketIndex(double time) const {
  const std::size_t nb = buckets_.size();
  double rel = (time - bucket_base_) / bucket_width_;
  if (!(rel >= 0)) rel = 0;
  std::size_t idx = rel >= static_cast<double>(nb)
                        ? nb - 1
                        : static_cast<std::size_t>(rel);
  if (idx < cur_bucket_) idx = cur_bucket_;
  // The division above may disagree with the exact boundary expression
  // BucketLower(i) = base + width*i in the last ulp; the pop path trusts
  // the boundaries, so fix the index up until they agree. (A misplaced
  // event in either direction would fire out of order.)
  while (idx > cur_bucket_ && time < BucketLower(idx)) --idx;
  while (idx + 1 < nb && time >= BucketLower(idx + 1)) ++idx;
  return idx;
}

void EventQueue::SettleRun() {
  while (run_.empty()) {
    if (window_active_) {
      while (cur_bucket_ < buckets_.size() && buckets_[cur_bucket_].empty()) {
        ++cur_bucket_;
      }
      if (cur_bucket_ < buckets_.size()) {
        run_.swap(buckets_[cur_bucket_]);
        std::sort(run_.begin(), run_.end(), Later{});
        ++cur_bucket_;
        // Everything earlier than the next bucket boundary is now in the
        // run, so same-window inserts below that boundary must join it.
        run_limit_ = cur_bucket_ < buckets_.size() ? BucketLower(cur_bucket_)
                                                   : window_end_;
        continue;
      }
      window_active_ = false;
      run_limit_ = window_end_;
    }
    if (overflow_.empty()) return;  // queue drained
    Repartition();
  }
}

void EventQueue::Repartition() {
  // Build a fresh bucket window spanning the overflow population. The
  // geometry only affects throughput, never ordering: every event is
  // placed by its exact time and buckets are sorted before popping.
  double tmin = overflow_.front().time;
  double tmax = tmin;
  for (const ScheduledEvent& r : overflow_) {
    tmin = std::min(tmin, r.time);
    tmax = std::max(tmax, r.time);
  }
  std::size_t nb = 1;
  while (nb < overflow_.size() / kTargetEventsPerBucket + 1 &&
         nb < kMaxBuckets) {
    nb <<= 1;
  }
  double width = (tmax - tmin) / static_cast<double>(nb);
  if (!(width > 0) || !std::isfinite(width)) width = 1.0;
  // The top boundary must strictly clear tmax, or the latest events
  // would loop straight back into overflow. Widen until it does (a
  // couple of doublings at most; guaranteed for finite times).
  while (tmin + width * static_cast<double>(nb) <= tmax) width *= 2;
  bucket_base_ = tmin;
  bucket_width_ = width;
  if (buckets_.size() != nb) buckets_.resize(nb);
  cur_bucket_ = 0;
  window_end_ = BucketLower(nb);
  run_limit_ = tmin;
  window_active_ = true;
  for (const ScheduledEvent& r : overflow_) {
    buckets_[BucketIndex(r.time)].push_back(r);
  }
  overflow_.clear();
}

double EventQueue::next_time() {
  Require(!empty(), "EventQueue::next_time: empty queue");
  SettleRun();
  return run_.back().time;
}

ScheduledEvent EventQueue::Pop() {
  Require(!empty(), "EventQueue::Pop: empty queue");
  SettleRun();
  const ScheduledEvent record = run_.back();
  run_.pop_back();
  --size_;
  return record;
}

void EventQueue::Reserve(std::size_t n) {
  // New events land in overflow until the next repartition sweeps them
  // into buckets, so overflow is the array that must absorb the burst.
  overflow_.reserve(n);
}

}  // namespace rcbr::sim::engine
