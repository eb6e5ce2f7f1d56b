// Per-port switch controller (Sec. III-B).
//
// "On receiving an RM cell, a switch controller determines the output port
// ... and the utilization and capacity of the output port in a second
// lookup. With this information, it checks if the current port utilization
// plus the rate difference is less than the port capacity."
//
// PortController is that O(1) decision: it keeps only aggregate state
// (capacity and utilization) — no per-VCI state, which is the paper's
// scaling argument. An optional per-connection audit map supports the
// drift-resync mechanism and tests.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/recorder.h"
#include "signaling/rm_cell.h"
#include "signaling/vci_table.h"

namespace rcbr::signaling {

struct PortStats {
  std::int64_t delta_accepted = 0;
  std::int64_t delta_denied = 0;
  std::int64_t resyncs = 0;
  std::int64_t crashes = 0;
};

class PortController {
 public:
  /// `track_connections` enables the per-VCI audit map used by resync.
  /// With a recorder, denied delta cells emit kRenegDeny events (time =
  /// the `now_seconds` the caller hands to Handle — one simulation-time
  /// axis across all layers; id = VCI) and "port.*" counters accumulate.
  /// `admission_tolerance_bps` is slack added to the capacity check
  /// (Handle and AdmitConnection accept up to capacity + tolerance); the
  /// network simulator uses 1e-9 to absorb reservation round-off.
  explicit PortController(double capacity_bps, bool track_connections = true,
                          obs::Recorder* recorder = nullptr,
                          double admission_tolerance_bps = 0);

  double capacity_bps() const { return capacity_; }
  double utilization_bps() const { return used_; }
  double available_bps() const { return capacity_ - used_; }
  /// Whether the per-VCI audit map is on (resync repair needs it).
  bool tracks_connections() const { return tracking_; }
  const PortStats& stats() const { return stats_; }

  /// Processes one RM cell in O(1) (plus one hash lookup when tracking).
  /// Delta cells: a decrease always succeeds; an increase succeeds iff
  /// utilization + delta <= capacity (+ tolerance). Resync cells correct
  /// the aggregate utilization using the tracked per-connection rate and
  /// never fail. `now_seconds` is the simulation time, used to stamp
  /// trace events.
  CellVerdict Handle(const RmCell& cell, double now_seconds);

  /// Exactly undoes a just-granted delta cell — the compensating cell of
  /// an all-or-nothing multi-hop renegotiation (SignalingPath). Restores
  /// the pre-grant snapshots carried in `grant` instead of applying
  /// -delta, keeping the aggregate byte-identical to its pre-request
  /// value. Counted as an accepted delta cell, like the compensating
  /// cells it replaces.
  void RollbackDelta(std::uint64_t vci, const CellVerdict& grant);

  /// Registers a new connection at `rate_bps` (call setup, not
  /// renegotiation). Returns false and registers nothing if it does not
  /// fit. `rung > 0` marks the connection as admitted below its full ask
  /// and enqueues it on the upgrade queue.
  bool AdmitConnection(std::uint64_t vci, double rate_bps,
                       std::uint32_t rung = 0);

  /// Exactly undoes a just-granted AdmitConnection during an atomic
  /// multi-hop setup: restores the caller's pre-admit utilization
  /// snapshot and forgets the connection.
  void RollbackAdmit(std::uint64_t vci, double utilization_before_bps);

  /// Releases a connection (call teardown). With tracking enabled the
  /// released rate is looked up; otherwise the caller supplies it.
  void ReleaseConnection(std::uint64_t vci, double rate_bps_hint = 0);

  /// Simulates a controller crash/restart with total state loss: the
  /// aggregate utilization and the per-VCI audit map reset to a cold
  /// start, as if the controller rebooted with empty tables. Until each
  /// source (or the surrounding simulator) repairs it with an
  /// absolute-rate resync cell (Sec. III-B), the port believes it is
  /// idle and over-admits.
  void CrashRestart();

  /// The rate this port believes `vci` has (tracking mode only; 0 if
  /// unknown).
  double TrackedRate(std::uint64_t vci) const;

  /// Pre-sizes the per-VCI audit table for about `n` concurrent
  /// connections (no-op when tracking is off). Capacity hint only.
  void ReserveConnections(std::size_t n);

  /// VCIs currently admitted below their full ask on this port, sorted
  /// ascending. Call ids are VCIs, so iterating this queue front-to-back
  /// is the deterministic "promote in call-id order" contract the engine
  /// relies on after a departure or rate decrease frees capacity.
  const std::vector<std::uint64_t>& upgrade_waiters() const {
    return waiters_;
  }
  bool IsUpgradeWaiter(std::uint64_t vci) const;

 private:
  /// Inserts/erases `vci` in the sorted waiter queue (idempotent).
  void SetWaiter(std::uint64_t vci, bool waiting);
  double capacity_;
  double used_ = 0;
  bool tracking_;
  double tolerance_;
  VciTable rates_;
  /// Sorted VCIs waiting for an upgrade (empty for scalar traffic; the
  /// fast path never touches it).
  std::vector<std::uint64_t> waiters_;
  PortStats stats_;
  obs::Recorder* obs_ = nullptr;
  obs::Counter* ctr_accepted_ = nullptr;
  obs::Counter* ctr_denied_ = nullptr;
  obs::Counter* ctr_resyncs_ = nullptr;
};

}  // namespace rcbr::signaling
