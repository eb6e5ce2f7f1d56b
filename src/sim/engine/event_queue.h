// Deterministic future-event list for the unified discrete-event engine.
//
// Events are POD records ordered by (time, seq): `seq` is a monotonically
// increasing schedule counter, so two events at the same instant always
// fire in the order they were scheduled. That tie-break is a pinned
// contract (see DESIGN.md and the regression pins): identical inputs
// produce identical event orders, which is what makes every seeded
// simulation bit-reproducible.
//
// The queue is a calendar/ladder queue: a sorted "run" of the earliest
// events, a window of constant-width buckets ahead of it, and an unsorted
// overflow list that is repartitioned into a fresh window when the
// current one drains. Schedule and pop are O(1) amortized at any
// pending-event count, which is what lets RunSimulation sustain 10^6+
// concurrent calls (bench/macro_capacity). A binary heap over the same
// `Later` comparator is the reference oracle in
// tests/sim/event_queue_diff_test.cc, which pins the two to identical
// pop sequences.
//
// Payloads are tagged PODs dispatched by the owner (see Engine), so
// scheduling an event allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rcbr::sim::engine {

/// Tagged POD payload of one scheduled event. `kind` values are
/// owner-defined (the engine routes them to its dispatcher).
/// `gen` is conventionally a slot-map generation counter so owners can
/// detect stale events for recycled handles without a hash lookup.
struct EventPayload {
  std::uint32_t kind = 0;
  std::uint32_t gen = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// One queued event: fire time, the (time, seq) tie-break counter, and
/// the owner's payload.
struct ScheduledEvent {
  double time = 0;
  std::uint64_t seq = 0;
  EventPayload payload;
};

class EventQueue {
 public:
  /// Orders records by "fires later": a heap over it has the earliest
  /// (time, seq) at the front, and the sorted run keeps it at the back.
  /// This is the ordering the pre-engine simulator loops used, preserved
  /// verbatim for the regression pins.
  struct Later {
    bool operator()(const ScheduledEvent& a, const ScheduledEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Schedules a POD payload at absolute time `time` (not NaN); same-time
  /// events fire in scheduling order.
  void Post(double time, const EventPayload& payload);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Fire time of the earliest event. Requires a non-empty queue.
  double next_time();

  /// Removes and returns the earliest event. Requires a non-empty queue.
  ScheduledEvent Pop();

  /// Pre-sizes internal storage for about `n` simultaneously pending
  /// events, so large runs do not pay repeated reallocation. Purely a
  /// capacity hint: never affects ordering.
  void Reserve(std::size_t n);

  /// Test hook: restarts the schedule counter at `next_seq`. The counter
  /// is 64-bit, so a real run cannot exhaust it (~1.8e19 schedules); the
  /// hook lets tests pin the same-time ordering contract right up to the
  /// last representable sequence number.
  void ResetSequenceForTest(std::uint64_t next_seq) { next_seq_ = next_seq; }
  std::uint64_t next_sequence() const { return next_seq_; }

 private:
  // The invariants are:
  //  * run_ is sorted descending by (time, seq) (back() = earliest) and
  //    holds every queued event with time < run_limit_;
  //  * active bucket i (cur_bucket_ <= i < buckets_.size()) holds only
  //    events with BucketLower(i) <= time < BucketLower(i+1);
  //  * overflow_ holds only events with time >= window_end_.
  void SettleRun();
  void Repartition();
  std::size_t BucketIndex(double time) const;
  double BucketLower(std::size_t i) const {
    return bucket_base_ + bucket_width_ * static_cast<double>(i);
  }

  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;

  std::vector<ScheduledEvent> run_;
  std::vector<std::vector<ScheduledEvent>> buckets_;
  std::size_t cur_bucket_ = 0;
  double bucket_base_ = 0;
  double bucket_width_ = 1.0;
  double window_end_ = 0;
  double run_limit_ = 0;
  bool window_active_ = false;
  std::vector<ScheduledEvent> overflow_;
};

}  // namespace rcbr::sim::engine
