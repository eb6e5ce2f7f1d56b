// Slotted fluid queues with loss accounting.
//
// All queueing in the paper is modelled in slotted time (eq. 3):
//     q_t = max(q_{t-1} + a_t - r_t, 0),
// with bits above the buffer bound B counted as lost. SlottedQueue is the
// stateful primitive; DrainTrace runs a whole workload against a service
// process and reports the loss fraction, which is the QoS metric of every
// scenario in Fig. 3.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "obs/recorder.h"
#include "util/piecewise.h"

namespace rcbr::sim {

/// A single fluid queue. Quantities are in bits; one Step() is one slot.
class SlottedQueue {
 public:
  /// `buffer_bits` may be infinity for an unbounded queue. With a
  /// recorder, overflow and empty-transition slots emit kBufferOverflow /
  /// kBufferUnderflow events (time = slot index, id = `obs_id`) and
  /// aggregate loss counters.
  explicit SlottedQueue(double buffer_bits,
                        obs::Recorder* recorder = nullptr,
                        std::uint64_t obs_id = 0);

  /// Advances one slot: `arrival_bits` enter, up to `service_bits` drain.
  /// Returns the bits lost to buffer overflow in this slot.
  double Step(double arrival_bits, double service_bits);

  double occupancy_bits() const { return occupancy_; }
  double buffer_bits() const { return buffer_; }
  double lost_bits() const { return lost_; }
  double arrived_bits() const { return arrived_; }
  double max_occupancy_bits() const { return max_occupancy_; }

  /// Fraction of arrived bits lost so far (0 if nothing arrived).
  double LossFraction() const;

  void Reset();

 private:
  double buffer_;
  double occupancy_ = 0;
  double lost_ = 0;
  double arrived_ = 0;
  double max_occupancy_ = 0;
  std::int64_t slot_ = 0;
  /// True while the previous slot lost bits — the flight recorder only
  /// triggers on the loss-free -> overflow transition.
  bool overflowing_ = false;
  obs::Recorder* obs_ = nullptr;
  std::uint64_t obs_id_ = 0;
  obs::Counter* overflow_slots_ = nullptr;
  obs::TimeSeries* ts_occupancy_ = nullptr;
};

/// Result of draining a complete workload through a queue.
struct DrainResult {
  double arrived_bits = 0;
  double lost_bits = 0;
  double max_occupancy_bits = 0;

  double loss_fraction() const {
    return arrived_bits > 0 ? lost_bits / arrived_bits : 0.0;
  }
};

/// Drains per-slot arrivals against a constant service rate (bits/slot).
DrainResult DrainConstant(const std::vector<double>& arrival_bits,
                          double service_bits_per_slot, double buffer_bits,
                          obs::Recorder* recorder = nullptr);

/// Drains per-slot arrivals against a piecewise-constant service process
/// (bits/slot, same slot domain as the arrivals).
DrainResult DrainSchedule(const std::vector<double>& arrival_bits,
                          const PiecewiseConstant& service_bits_per_slot,
                          double buffer_bits,
                          obs::Recorder* recorder = nullptr);

inline constexpr double kInfiniteBuffer =
    std::numeric_limits<double>::infinity();

}  // namespace rcbr::sim
