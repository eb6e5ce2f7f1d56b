#include "sim/engine/engine.h"

#include "util/error.h"

namespace rcbr::sim::engine {

void Engine::AdvanceTo(double to) {
  if (to <= clock_.now()) return;
  if (advance_hook_) advance_hook_(clock_.now(), to);
  clock_.AdvanceTo(to);
}

void Engine::RunUntil(double end_time) {
  while (!queue_.empty()) {
    const double when = queue_.next_time();
    if (when >= end_time) break;
    const ScheduledEvent event = queue_.Pop();
    AdvanceTo(when);
    ++events_processed_;
    Require(static_cast<bool>(dispatcher_),
            "Engine: event fired with no dispatcher installed");
    dispatcher_(event.payload);
  }
  AdvanceTo(end_time);
}

}  // namespace rcbr::sim::engine
