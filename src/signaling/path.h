// Multi-hop renegotiation (Sec. III-C).
//
// "As the mean number of hops in the network increases, the probability of
// renegotiation failure is likely to increase since each hop is a possible
// point of failure." SignalingPath carries a renegotiation request across
// a sequence of port controllers with all-or-nothing semantics: if any hop
// denies, grants already made upstream are rolled back — exactly, by
// restoring each hop's pre-grant snapshot, so a denied request leaves
// every port byte-identical to its prior state. It also models the
// signaling round-trip so online sources can reason about latency.
// WalkDelta is the one hop-by-hop walk of a delta cell: RequestDelta and
// both renegotiators (lossy_channel.h, retry.h) differ only in the loss
// hooks they pass it and in what they do around it.
#pragma once

#include <cstdint>
#include <vector>

#include "signaling/port_controller.h"

namespace rcbr::signaling {

struct PathOutcome {
  bool accepted = false;
  /// Index of the first hop that denied (-1 when accepted).
  int bottleneck_hop = -1;
  /// Signaling round-trip time for this request, seconds.
  double round_trip_s = 0;
};

struct PathStats {
  std::int64_t requests = 0;
  std::int64_t failures = 0;
};

/// How a delta cell's walk ended: granted by every hop, lost in flight
/// before hop `hop` (hops 0..hop-1 keep the delta), or denied at `hop`.
struct DeltaWalk {
  enum class End : std::uint8_t { kGranted, kLost, kDenied };
  End end = End::kGranted;
  std::size_t hop = 0;
};

class SignalingPath {
 public:
  /// `hops` are borrowed; they must outlive the path. `per_hop_delay_s`
  /// models propagation plus controller processing per hop, one way.
  SignalingPath(std::vector<PortController*> hops, double per_hop_delay_s);

  std::size_t hop_count() const { return hops_.size(); }
  PortController* hop(std::size_t k) const { return hops_[k]; }
  /// Full round trip across all hops and back.
  double RoundTripSeconds() const;
  const PathStats& stats() const { return stats_; }

  /// Establishes a connection at `rate_bps` on every hop (all or nothing;
  /// a denial restores the upstream hops' exact pre-setup utilization).
  /// `rung > 0` admits below the full ask: every hop that grants also
  /// enqueues the VCI on its upgrade queue (and a rolled-back setup
  /// leaves no queue entry behind).
  bool SetupConnection(std::uint64_t vci, double rate_bps,
                       std::uint32_t rung = 0);

  /// Tears the connection down on every hop.
  void TeardownConnection(std::uint64_t vci, double rate_bps_hint = 0);

  /// Carries a delta renegotiation across the path at simulation time
  /// `now_seconds` (stamps any hop's trace events). Decreases always
  /// succeed; an increase that is denied at hop k is rolled back at hops
  /// 0..k-1 — byte-exactly, including upgrade-queue membership — and the
  /// connection keeps its previous rate everywhere. `rung` is the ladder
  /// rung the connection lands on if every hop grants (scalar: 0).
  PathOutcome RequestDelta(std::uint64_t vci, double delta_bps,
                           double now_seconds, std::uint32_t rung = 0);

  /// Before hop k handles the cell, `lost_before(k)` says whether it is
  /// lost there (ending the walk). A denial at hop k restores hops
  /// 0..k-1, in order, from their pre-grant snapshots (held in a buffer
  /// the path owns), skipping each hop j whose `rollback_lost(j)` is true.
  template <typename LostBefore, typename RollbackLost>
  DeltaWalk WalkDelta(std::uint64_t vci, double delta_bps,
                      double now_seconds, std::uint32_t rung,
                      LostBefore&& lost_before,
                      RollbackLost&& rollback_lost) {
    const RmCell cell = RmCell::Delta(vci, delta_bps, rung);
    for (std::size_t k = 0; k < hops_.size(); ++k) {
      if (lost_before(k)) return {DeltaWalk::End::kLost, k};
      grants_[k] = hops_[k]->Handle(cell, now_seconds);
      if (!grants_[k].accepted) {
        for (std::size_t j = 0; j < k; ++j) {
          if (!rollback_lost(j)) hops_[j]->RollbackDelta(vci, grants_[j]);
        }
        return {DeltaWalk::End::kDenied, k};
      }
    }
    return {DeltaWalk::End::kGranted, hops_.size()};
  }

  /// Sends a drift-resync cell along the path (never fails). The cell
  /// carries the connection's rung so crash repair also rebuilds the
  /// upgrade queues.
  void Resync(std::uint64_t vci, double absolute_rate_bps,
              double now_seconds, std::uint32_t rung = 0);

  /// Drift audit: hop k's tracked rate for `vci` minus `rate_bps`.
  double DriftBps(std::size_t hop, std::uint64_t vci, double rate_bps) const;
  /// The largest |DriftBps| over the hops.
  double MaxAbsDriftBps(std::uint64_t vci, double rate_bps) const;

 private:
  std::vector<PortController*> hops_;
  double per_hop_delay_;
  PathStats stats_;
  /// Per-hop grant snapshots of the walk in progress.
  std::vector<CellVerdict> grants_;
};

}  // namespace rcbr::signaling
