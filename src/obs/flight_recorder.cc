#include "obs/flight_recorder.h"

#include "util/json.h"

namespace rcbr::obs {

FlightRecorder::FlightRecorder(std::size_t capacity, std::size_t max_dumps)
    : capacity_(capacity), max_dumps_(max_dumps) {
  ring_.reserve(capacity < 1024 ? capacity : 1024);
}

void FlightRecorder::Record(const TraceEvent& event) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  ring_[next_] = event;
  next_ = (next_ + 1) % capacity_;
}

void FlightRecorder::Trigger(const TraceEvent& trigger) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dumps_.size() >= max_dumps_) {
    ++suppressed_;
    return;
  }
  FlightDump dump;
  dump.trigger = trigger;
  dump.events.reserve(ring_.size());
  // Oldest-to-newest: once full, the eviction cursor points at the
  // oldest surviving event.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    dump.events.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  dumps_.push_back(std::move(dump));
}

std::vector<FlightDump> FlightRecorder::Dumps() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dumps_;
}

std::int64_t FlightRecorder::suppressed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return suppressed_;
}

void AppendFlightJsonl(std::size_t point, const std::vector<FlightDump>& dumps,
                       std::int64_t suppressed, std::string& out) {
  for (std::size_t d = 0; d < dumps.size(); ++d) {
    const FlightDump& dump = dumps[d];
    out += "{\"point\": " + std::to_string(point) +
           ", \"dump\": " + std::to_string(d) +
           ", \"window\": " + std::to_string(dump.events.size()) +
           ", \"trigger\": " + json::Quote(EventKindName(dump.trigger.kind));
    AppendEventBody(dump.trigger, /*with_kind=*/false, out);
    out += "}\n";
    for (std::size_t seq = 0; seq < dump.events.size(); ++seq) {
      out += "{\"point\": " + std::to_string(point) +
             ", \"dump\": " + std::to_string(d) +
             ", \"seq\": " + std::to_string(seq);
      AppendEventBody(dump.events[seq], /*with_kind=*/true, out);
      out += "}\n";
    }
  }
  if (suppressed > 0) {
    out += "{\"point\": " + std::to_string(point) +
           ", \"event\": \"flight_dumps_suppressed\", \"suppressed\": " +
           std::to_string(suppressed) + "}\n";
  }
}

}  // namespace rcbr::obs
