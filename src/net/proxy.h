// The deterministic in-process impairment proxy.
//
// Chaos testing a daemon usually means nondeterministic packet mangling
// — which makes "same seed, same session log" impossible to assert.
// This proxy gets determinism back by construction. It sits between
// rcbr_client and rcbrd on loopback, decodes every frame, and decides
// each frame's fate with *tick arithmetic on the frame's own slot
// stamp* plus a stateless per-(seed, direction, seq) hash:
//
//  * loss bursts (FaultKind::kRmLossBurst) drop control frames whose
//    hash falls under the loss probability in force at their slot —
//    independent of poll interleaving, socket buffering, or scheduling;
//  * delay bursts follow the in-process lossy channel's "lost-late"
//    semantics: a one-way delay spike larger than the client's response
//    deadline is indistinguishable from loss (the client has already
//    declared the attempt dead and rescinded), so the proxy drops the
//    frame instead of sleeping — no wall-clock race;
//  * link-down windows drop every frame of either direction whose slot
//    falls inside the window;
//  * controller crashes fire when the first client->server frame
//    reaches the crash tick: the proxy invokes the crash hook (which
//    wipes the server and blocks until the wipe is observable via
//    crash_generation), then severs every proxied connection.
//
// The result: wall-clock deadlines in client and server only *detect*
// outcomes this proxy already decided deterministically.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "obs/recorder.h"
#include "sim/fault/wall_timeline.h"

namespace rcbr::net {

struct ProxyOptions {
  std::uint16_t server_port = 0;
  /// The fault schedule, sim seconds; compiled to the slot domain via
  /// slots_per_second (= 1 / the client's slot_seconds).
  sim::fault::FaultPlan plan;
  double slots_per_second = 100;
  /// One-way delays above this are lost-late and dropped (mirror of the
  /// client's response deadline).
  double late_threshold_s = 0.25;
  std::uint64_t seed = 1;
  /// Invoked when a controller-crash tick is reached. Must leave the
  /// server observably wiped before returning (InjectCrash + wait on
  /// crash_generation) — the proxy drops all connections right after.
  std::function<void()> on_controller_crash;
  obs::Recorder* recorder = nullptr;
};

struct ProxyStats {
  std::int64_t pairs_opened = 0;
  std::int64_t frames_forwarded = 0;
  std::int64_t dropped_loss = 0;
  std::int64_t dropped_late = 0;
  std::int64_t dropped_down = 0;
  std::int64_t crashes_fired = 0;
  std::int64_t decode_failures = 0;
};

class Proxy {
 public:
  explicit Proxy(const ProxyOptions& options);
  ~Proxy();

  /// Binds a kernel-assigned listen port on 127.0.0.1. False on failure.
  bool Start();
  std::uint16_t port() const { return listener_.port(); }

  /// Runs the forwarding loop until Stop(). Call from its own thread.
  void Serve();
  void Stop() { stop_.store(true, std::memory_order_release); }

  const ProxyStats& stats() const { return stats_; }

 private:
  struct Pair;

  /// Drains one side of a pair, applying the impairment schedule to
  /// every decoded frame.
  void PumpSide(Pair& pair, bool from_client);
  /// True = forward, false = drop (stats say why).
  bool LetThrough(const Frame& frame, bool from_client);
  void FireCrashesUpTo(std::int64_t slot);

  ProxyOptions options_;
  sim::fault::WallClockSchedule schedule_;
  TcpListener listener_;
  std::vector<std::unique_ptr<Pair>> pairs_;
  std::int64_t crash_watermark_ = -1;
  bool sever_all_ = false;
  ProxyStats stats_;
  std::atomic<bool> stop_{false};
};

}  // namespace rcbr::net
