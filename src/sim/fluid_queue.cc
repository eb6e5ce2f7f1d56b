#include "sim/fluid_queue.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/error.h"

namespace rcbr::sim {

SlottedQueue::SlottedQueue(double buffer_bits, obs::Recorder* recorder,
                           std::uint64_t obs_id)
    : buffer_(buffer_bits), obs_(recorder), obs_id_(obs_id) {
  Require(!std::isnan(buffer_bits), "SlottedQueue: buffer size is NaN");
  Require(buffer_bits >= 0, "SlottedQueue: negative buffer");
  overflow_slots_ = obs::FindCounter(obs_, "queue.overflow_slots");
  // Per-queue series: many queues (one per source) share one recorder,
  // so the id keeps their occupancy trajectories apart.
  const std::string series_name =
      "queue." + std::to_string(obs_id_) + ".occupancy_bits";
  ts_occupancy_ = obs::FindSeries(obs_, series_name.c_str());
}

double SlottedQueue::Step(double arrival_bits, double service_bits) {
  Require(!std::isnan(arrival_bits) && arrival_bits >= 0,
          "SlottedQueue::Step: arrival must be a number >= 0");
  Require(!std::isnan(service_bits) && service_bits >= 0,
          "SlottedQueue::Step: service must be a number >= 0");
  const double before = occupancy_;
  arrived_ += arrival_bits;
  occupancy_ = std::max(occupancy_ + arrival_bits - service_bits, 0.0);
  double lost_now = 0;
  if (occupancy_ > buffer_) {
    lost_now = occupancy_ - buffer_;
    occupancy_ = buffer_;
  }
  lost_ += lost_now;
  max_occupancy_ = std::max(max_occupancy_, occupancy_);
  if constexpr (obs::kEnabled) {
    if (ts_occupancy_ != nullptr) {
      ts_occupancy_->Sample(static_cast<double>(slot_), occupancy_);
    }
    if (lost_now > 0) {
      if (overflow_slots_ != nullptr) overflow_slots_->Add();
      obs::Emit(obs_, static_cast<double>(slot_),
                obs::EventKind::kBufferOverflow, obs_id_,
                {"lost_bits", lost_now}, {"occupancy_bits", occupancy_});
      // First overflow after a loss-free stretch freezes the flight ring
      // — the spill's lead-up matters, a long overflow run does not.
      if (!overflowing_) {
        obs::TriggerFlight(obs_, static_cast<double>(slot_),
                           obs::EventKind::kBufferOverflow, obs_id_,
                           {"lost_bits", lost_now},
                           {"occupancy_bits", occupancy_});
      }
      overflowing_ = true;
    } else {
      overflowing_ = false;
      if (before > 0 && occupancy_ == 0 && service_bits > arrival_bits) {
        obs::Emit(obs_, static_cast<double>(slot_),
                  obs::EventKind::kBufferUnderflow, obs_id_,
                  {"drained_bits", before + arrival_bits});
      }
    }
  }
  ++slot_;
  return lost_now;
}

double SlottedQueue::LossFraction() const {
  return arrived_ > 0 ? lost_ / arrived_ : 0.0;
}

void SlottedQueue::Reset() {
  occupancy_ = 0;
  lost_ = 0;
  arrived_ = 0;
  max_occupancy_ = 0;
  slot_ = 0;
  overflowing_ = false;
}

DrainResult DrainConstant(const std::vector<double>& arrival_bits,
                          double service_bits_per_slot, double buffer_bits,
                          obs::Recorder* recorder) {
  SlottedQueue queue(buffer_bits, recorder);
  for (double a : arrival_bits) queue.Step(a, service_bits_per_slot);
  return {queue.arrived_bits(), queue.lost_bits(),
          queue.max_occupancy_bits()};
}

DrainResult DrainSchedule(const std::vector<double>& arrival_bits,
                          const PiecewiseConstant& service_bits_per_slot,
                          double buffer_bits, obs::Recorder* recorder) {
  Require(service_bits_per_slot.length() ==
              static_cast<std::int64_t>(arrival_bits.size()),
          "DrainSchedule: schedule/workload length mismatch");
  SlottedQueue queue(buffer_bits, recorder);
  for (std::size_t t = 0; t < arrival_bits.size(); ++t) {
    queue.Step(arrival_bits[t],
               service_bits_per_slot.At(static_cast<std::int64_t>(t)));
  }
  return {queue.arrived_bits(), queue.lost_bits(),
          queue.max_occupancy_bits()};
}

}  // namespace rcbr::sim
