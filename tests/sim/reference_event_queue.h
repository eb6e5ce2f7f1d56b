// The reference oracle for EventQueue: a binary min-heap over the same
// `EventQueue::Later` comparator, i.e. the pre-calendar future-event list
// the simulator loops used. It is the executable specification of the
// (time, seq) order; event_queue_diff_test.cc pins the calendar queue to
// it pop for pop. Same Post/Pop/next_time surface as EventQueue.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/engine/event_queue.h"
#include "util/error.h"

namespace rcbr::sim::engine {

class ReferenceEventQueue {
 public:
  void Post(double time, const EventPayload& payload) {
    Require(!std::isnan(time), "ReferenceEventQueue: event time is NaN");
    heap_.push_back({time, next_seq_++, payload});
    std::push_heap(heap_.begin(), heap_.end(), EventQueue::Later{});
  }

  bool empty() const { return heap_.empty(); }

  double next_time() const {
    Require(!empty(), "ReferenceEventQueue::next_time: empty queue");
    return heap_.front().time;
  }

  ScheduledEvent Pop() {
    Require(!empty(), "ReferenceEventQueue::Pop: empty queue");
    std::pop_heap(heap_.begin(), heap_.end(), EventQueue::Later{});
    const ScheduledEvent record = heap_.back();
    heap_.pop_back();
    return record;
  }

  void Reserve(std::size_t n) { heap_.reserve(n); }

  void ResetSequenceForTest(std::uint64_t next_seq) { next_seq_ = next_seq; }
  std::uint64_t next_sequence() const { return next_seq_; }

 private:
  std::uint64_t next_seq_ = 0;
  std::vector<ScheduledEvent> heap_;
};

}  // namespace rcbr::sim::engine
