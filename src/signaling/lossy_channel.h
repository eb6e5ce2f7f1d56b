// RM-cell loss and parameter drift (Sec. III-B, footnote 2).
//
// "We use a difference because this simplifies the computation at the
// switch controller ... This has the problem of parameter drift in case
// of RM cell loss. To overcome this, we can resynchronize rates by
// periodically sending an RM cell with the true explicit rate."
//
// LossyPathRenegotiator models exactly that failure mode along a
// SignalingPath: delta cells are dropped with a configurable probability
// per hop (an unacknowledged lightweight scheme, so the source proceeds
// on its own view of the rate), and the source periodically emits an
// absolute-rate resync cell that repairs every hop's per-connection and
// aggregate state. A cell lost in flight at hop k leaves hops 0..k-1
// granted but the rest drifted, and the rollback cells of an explicit
// denial can themselves be lost — both repaired by the periodic resync.
// A 1-hop path is the single-port case of the paper's footnote: one
// Bernoulli draw per delta cell, and a denial there has no upstream
// grants to roll back. The ablation bench sweeps loss probability against
// resync period on such a path and reports the residual drift.
#pragma once

#include <cstdint>

#include "obs/recorder.h"
#include "signaling/path.h"
#include "signaling/port_controller.h"
#include "util/rng.h"

namespace rcbr::signaling {

/// Time-varying channel impairments layered on top of a channel's base
/// loss probability — the hook the fault-injection subsystem mutates as
/// its timeline advances. The channel reads it on every cell, so a burst
/// raised at simulation time t affects exactly the cells sent while the
/// burst is active. All-zero conditions are byte-equivalent to no
/// conditions at all.
struct ChannelConditions {
  /// Added to the per-hop cell loss probability (sum clamped to 1, so a
  /// value of 1 is a total signaling outage).
  double extra_loss_probability = 0;
  /// Added to the request's one-way delivery delay, seconds. A response
  /// arriving after the requester's timeout is treated as lost-late
  /// (reordered past the retransmit), even though the hops applied it.
  double extra_delay_s = 0;
};

struct LossyChannelOptions {
  /// Probability that a delta cell is lost before the port sees it (per
  /// hop, for the path variant).
  double cell_loss_probability = 0.0;
  /// Emit an absolute-rate resync after this many delta cells (0 = never).
  std::int64_t resync_every_cells = 0;
  /// Optional observability sink: kRmCellLoss events on dropped delta
  /// cells and kResync events on resyncs (time = the `now_seconds` the
  /// caller passes, i.e. simulation seconds), plus "signaling.*"
  /// counters.
  obs::Recorder* recorder = nullptr;
  /// Optional live impairments (borrowed; may be null). Sampled per cell,
  /// so the owner can mutate it mid-run to model loss bursts and delay
  /// spikes without touching the channel.
  const ChannelConditions* conditions = nullptr;
};

/// Throws InvalidArgument unless loss probability is in [0,1) (and not
/// NaN) and the resync period is non-negative.
void ValidateChannelOptions(const LossyChannelOptions& options);

/// The per-cell loss probability with any active impairment applied.
inline double EffectiveLossProbability(const LossyChannelOptions& options) {
  const double extra =
      options.conditions ? options.conditions->extra_loss_probability : 0.0;
  const double p = options.cell_loss_probability + extra;
  return p < 1.0 ? p : 1.0;
}

/// The extra one-way delivery delay currently in force, seconds.
inline double ExtraDelaySeconds(const LossyChannelOptions& options) {
  return options.conditions ? options.conditions->extra_delay_s : 0.0;
}

struct DriftStats {
  std::int64_t cells_sent = 0;
  std::int64_t cells_lost = 0;
  std::int64_t resyncs_sent = 0;
};

/// The multi-hop composition the unified engine runs its calls on: one
/// renegotiating source whose delta cells traverse a SignalingPath hop by
/// hop through a lossy channel. Loss in flight at hop k means hops
/// 0..k-1 applied the delta but downstream hops never saw it; an explicit
/// denial at hop k triggers per-hop rollback cells, each of which may
/// itself be lost. Either way the periodic absolute-rate resync restores
/// every hop (the ports must run with tracking enabled).
class LossyPathRenegotiator {
 public:
  /// `path` is borrowed and must outlive the renegotiator. The connection
  /// must already be set up at `initial_rate_bps` on every hop.
  LossyPathRenegotiator(SignalingPath* path, std::uint64_t vci,
                        double initial_rate_bps,
                        const LossyChannelOptions& options, Rng* rng);

  /// Renegotiates to `new_rate_bps`. Returns false only on an explicit
  /// denial; losses look like grants to the unacknowledged source.
  bool Renegotiate(double new_rate_bps, double now_seconds);

  /// Sends the absolute-rate resync along the whole path (reliable).
  void Resync(double now_seconds);

  double believed_rate_bps() const { return believed_; }

  /// Ladder rung the connection occupies; carried on every subsequent
  /// cell so each port's upgrade queue follows the call's resolution
  /// (scalar contracts leave it at 0).
  void set_rung(std::uint32_t rung) { rung_ = rung; }
  std::uint32_t rung() const { return rung_; }

  /// Hop k's tracked rate minus the source belief, bits/s.
  double DriftBps(std::size_t hop) const;
  double MaxAbsDriftBps() const;

  const DriftStats& stats() const { return stats_; }

 private:
  SignalingPath* path_;
  std::uint64_t vci_;
  LossyChannelOptions options_;
  Rng* rng_;
  double believed_;
  std::uint32_t rung_ = 0;
  std::int64_t cells_since_resync_ = 0;
  DriftStats stats_;
};

}  // namespace rcbr::signaling
