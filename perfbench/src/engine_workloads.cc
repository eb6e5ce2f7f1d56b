// engine_scale and engine_mbac: RunSimulation end to end, plus the
// per-layer ledger of its traced run.
//
// The ledger measures each layer from outside. A replay driver rebuilds
// the workload's exact call stream from the seed with the engine's own
// public pieces (EventQueue, CallStore, a signaling stack, the Rng draw
// order of RunSimulation) and the admission decisions the real run's
// policy made, and logs every operation it issues. Each logged chunk is
// then replayed, under a timer, through a separate instance of one layer:
// the event queue, the call store, bare PortControllers, SignalingPaths,
// and (on a lossy channel) LossyPathRenegotiators. The admission layer is
// timed in the real run itself, by a decorator around the AdmissionPolicy
// handed to RunSimulation. Whatever the layers do not account for is
// reported as the residual.
#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "admission/policies.h"
#include "common.h"
#include "core/dp_scheduler.h"
#include "obs/recorder.h"
#include "signaling/lossy_channel.h"
#include "signaling/path.h"
#include "signaling/port_controller.h"
#include "sim/engine/call_store.h"
#include "sim/engine/event_queue.h"
#include "sim/engine/simulation.h"
#include "trace/star_wars.h"
#include "util/piecewise.h"
#include "util/rng.h"
#include "util/units.h"
#include "workloads.h"

namespace perfbench {

namespace {

using rcbr::Rng;
using rcbr::sim::CallProfile;
using rcbr::sim::LinkView;
using rcbr::sim::engine::CallRef;
using rcbr::sim::engine::CallStore;
using rcbr::sim::engine::EventPayload;
using rcbr::sim::engine::EventQueue;
using rcbr::sim::engine::ScheduledEvent;
using rcbr::sim::engine::SimulationOptions;
using rcbr::sim::engine::SimulationResult;

// ---- Inputs -------------------------------------------------------------

struct EngineInputs {
  std::vector<CallProfile> profiles;
  SimulationOptions options;
  /// Chernoff memory MBAC at the bottleneck (engine_mbac); otherwise the
  /// engine's capacity-only admission with no policy object at all.
  bool mbac = false;
  rcbr::admission::PolicyOptions policy_options;
  /// Set-up phases (engine_mbac): trace synthesis and the DP solve.
  double synth_s = 0;
  double dp_s = 0;
  std::optional<rcbr::core::DpResult> dp;
};

// engine_scale: the macro_capacity call pattern. One call is 128 slots of
// 1 s alternating 1.0 / 3.0 every 4 slots (32 renegotiations, mean 2.0);
// the link admits the whole population, so admission never refuses.
constexpr std::int64_t kScaleSlots = 128;
constexpr double kScaleMeasureSeconds = 16;

EngineInputs MakeScaleInputs(double calls) {
  EngineInputs in;
  std::vector<rcbr::Step> steps;
  for (std::int64_t t = 0; t < kScaleSlots; t += 4) {
    steps.push_back({t, (t / 4) % 2 == 0 ? 1.0 : 3.0});
  }
  in.profiles.push_back(
      {rcbr::PiecewiseConstant(std::move(steps), kScaleSlots), 1.0});
  const double duration = static_cast<double>(kScaleSlots);
  SimulationOptions& o = in.options;
  o.link_capacities_bps = {2.0 * calls * 1.1 + 8 * 3.0};
  o.classes.resize(1);
  o.classes[0].candidate_routes = {{0}};
  o.classes[0].arrival_rate_per_s = calls / duration;
  o.warmup_seconds = duration;  // fill to steady state
  o.sample_intervals = 1;
  o.interval_seconds = kScaleMeasureSeconds;
  o.track_connections = true;
  o.expected_peak_calls = static_cast<std::size_t>(calls * 1.1) + 64;
  return in;
}

// engine_mbac: fig_mbac_multihop sized up. A 4-hop tagged class crosses
// links that each carry their own single-hop background class; calls are
// rotated copies of the Star Wars DP schedule; admission is the memory
// MBAC; renegotiations ride a lossy RM-cell channel with periodic resync;
// every class carries a 3-rung ladder.
struct MbacSize {
  std::int64_t frames = 14400;
  double capacity_calls = 1000;  // link capacity in mean call rates
  double load = 0.3;            // offered load per link
  // Measurement intervals of one movie length each. Twelve make a pass
  // long enough that its per-event cost barely depends on the seed's
  // particular arrival stream (with six, events/s spread 0.10 over ten
  // seeds).
  double intervals = 12;
};

constexpr std::size_t kMbacHops = 4;

rcbr::core::DpOptions MbacDpOptions(double fps) {
  // The paper's Fig. 6 set-up: 64 kb/s levels up to 2.56 Mb/s, a 300 kb
  // buffer, alpha = 3000, coalesced onto a 2 kb grid with renegotiation
  // points every 0.25 s and a drained terminal buffer (rotation-safe).
  rcbr::core::DpOptions options;
  const double step = 64.0 * rcbr::kKilobit / fps;
  for (int k = 0; k <= 40; ++k) {
    options.rate_levels.push_back(step * static_cast<double>(k));
  }
  options.buffer_bits = 300.0 * rcbr::kKilobit;
  options.cost = {3000.0, 1.0 / fps};
  options.buffer_quantum_bits = 2.0 * rcbr::kKilobit;
  options.decision_period = 6;
  options.final_buffer_bits = 0.0;
  return options;
}

// The movie is a fixed data set: its DP schedule sets how many
// renegotiations a call makes and how wide its rate distribution is, which
// would change the amount of work per seed. The seed drives the calls.
constexpr std::uint64_t kMovieSeed = 1995;

EngineInputs MakeMbacInputs(const MbacSize& size,
                            rcbr::obs::Recorder* dp_recorder = nullptr) {
  EngineInputs in;
  in.mbac = true;
  auto t0 = Clock::now();
  const rcbr::trace::FrameTrace movie =
      rcbr::trace::MakeStarWarsTrace(kMovieSeed, size.frames);
  in.synth_s = SecondsSince(t0);

  rcbr::core::DpOptions dp_options = MbacDpOptions(movie.fps());
  dp_options.recorder = dp_recorder;
  t0 = Clock::now();
  in.dp.emplace(
      rcbr::core::ComputeOptimalSchedule(movie.frame_bits(), dp_options));
  in.dp_s = SecondsSince(t0);

  std::vector<rcbr::Step> steps;
  for (const rcbr::Step& s : in.dp->schedule.steps()) {
    steps.push_back({s.start, s.value * movie.fps()});
  }
  CallProfile profile{
      rcbr::PiecewiseConstant(std::move(steps), in.dp->schedule.length()),
      movie.slot_seconds()};
  const double call_mean = profile.rates_bps.Mean();
  const double duration = profile.duration_seconds();
  in.profiles.push_back(profile);

  in.policy_options.target_failure_probability = 1e-4;
  for (double level : dp_options.rate_levels) {
    in.policy_options.rate_grid_bps.push_back(level * movie.fps());
  }

  SimulationOptions& o = in.options;
  const double capacity = size.capacity_calls * call_mean;
  o.link_capacities_bps.assign(kMbacHops, capacity);
  // Background carries 10/11 of each link's load, the tagged class 1/11.
  const double lambda_link = size.load * capacity / (call_mean * duration);
  const rcbr::sim::RateLadder ladder =
      rcbr::sim::RateLadder::FromScales({1.0, 0.75, 0.5}, {1.0, 0.75, 0.5});
  for (std::size_t l = 0; l < kMbacHops; ++l) {
    rcbr::sim::engine::TrafficClass bg;
    bg.candidate_routes = {{l}};
    bg.arrival_rate_per_s = lambda_link * 10.0 / 11.0;
    bg.ladder = ladder;
    o.classes.push_back(bg);
  }
  rcbr::sim::engine::TrafficClass tagged;
  std::vector<std::size_t> route;
  for (std::size_t l = 0; l < kMbacHops; ++l) route.push_back(l);
  tagged.candidate_routes = {route};
  tagged.arrival_rate_per_s = lambda_link / 11.0;
  tagged.ladder = ladder;
  o.classes.push_back(tagged);

  o.warmup_seconds = duration;
  o.sample_intervals = static_cast<std::size_t>(size.intervals);
  o.interval_seconds = duration;
  o.per_hop_delay_s = 0.001;
  o.track_connections = true;
  o.cell_loss_probability = 0.01;
  o.resync_every_cells = 8;
  return in;
}

// ---- Admission decorator ------------------------------------------------

struct PolicyCounts {
  std::int64_t decisions = 0;
  std::int64_t accepts = 0;
  std::int64_t admitted = 0;
  std::int64_t updates = 0;
  double decision_s = 0;
  double update_s = 0;
};

/// Wraps the policy RunSimulation sees. It always counts decisions and
/// admissions (the output checks need them); with `timed` it also times
/// every decision and every state update with the steady clock, and with
/// a `log` it records every decision in order (the ledger's replay).
class CountingPolicy final : public rcbr::sim::AdmissionPolicy {
 public:
  CountingPolicy(rcbr::sim::AdmissionPolicy& inner, bool timed,
                 std::vector<char>* log)
      : inner_(inner), timed_(timed), log_(log) {}

  bool Admit(double now, const LinkView& view, double rate) override {
    return Decide([&] { return inner_.Admit(now, view, rate); });
  }
  bool AdmitAtRung(double now, const LinkView& view, double rate,
                   std::size_t rung) override {
    return Decide([&] { return inner_.AdmitAtRung(now, view, rate, rung); });
  }
  void OnAdmitted(double now, std::uint64_t id, double rate) override {
    ++counts.admitted;
    Update([&] { inner_.OnAdmitted(now, id, rate); });
  }
  void OnRateChange(double now, std::uint64_t id, double old_rate,
                    double new_rate) override {
    Update([&] { inner_.OnRateChange(now, id, old_rate, new_rate); });
  }
  void OnDeparture(double now, std::uint64_t id, double rate) override {
    Update([&] { inner_.OnDeparture(now, id, rate); });
  }

  PolicyCounts counts;

 private:
  template <typename F>
  bool Decide(F&& f) {
    ++counts.decisions;
    bool ok = false;
    if (timed_) {
      const auto t0 = Clock::now();
      ok = f();
      counts.decision_s += SecondsSince(t0);
    } else {
      ok = f();
    }
    if (ok) ++counts.accepts;
    if (log_ != nullptr) log_->push_back(ok ? 1 : 0);
    return ok;
  }
  template <typename F>
  void Update(F&& f) {
    ++counts.updates;
    if (timed_) {
      const auto t0 = Clock::now();
      f();
      counts.update_s += SecondsSince(t0);
    } else {
      f();
    }
  }

  rcbr::sim::AdmissionPolicy& inner_;
  bool timed_;
  std::vector<char>* log_;
};

// ---- One RunSimulation pass ---------------------------------------------

struct PassResult {
  SimulationResult result;
  double wall_s = 0;
  PolicyCounts policy;  // zero without a policy object
};

PassResult RunPass(const EngineInputs& in, std::uint64_t seed,
                   rcbr::obs::Recorder* recorder, bool timed_policy,
                   std::vector<char>* decisions = nullptr) {
  SimulationOptions options = in.options;
  options.recorder = recorder;
  options.signaling_recorder = recorder;
  std::optional<rcbr::admission::MemoryPolicy> memory;
  std::optional<CountingPolicy> counting;
  if (in.mbac) {
    memory.emplace(in.policy_options);
    counting.emplace(*memory, timed_policy, decisions);
    options.policy = &*counting;
  }
  Rng rng(seed);
  PassResult pass;
  const auto t0 = Clock::now();
  pass.result = rcbr::sim::engine::RunSimulation(in.profiles, options, rng);
  pass.wall_s = SecondsSince(t0);
  if (counting) pass.policy = counting->counts;
  return pass;
}

/// FNV-1a over every deterministic SimulationResult field (doubles by
/// bit pattern), so "bit-identical across passes" is one compare.
std::uint64_t Digest(const SimulationResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  auto mixd = [&mix](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  for (const auto& c : r.per_class) {
    for (std::int64_t v :
         {c.offered_calls, c.blocked_calls, c.upward_attempts,
          c.failed_attempts, c.rerouted_calls, c.dropped_calls,
          c.downgraded_admits, c.upgrades}) {
      mix(static_cast<std::uint64_t>(v));
    }
    mixd(c.utility_seconds);
    for (std::int64_t v : c.interval_attempts) {
      mix(static_cast<std::uint64_t>(v));
    }
    for (std::int64_t v : c.interval_failures) {
      mix(static_cast<std::uint64_t>(v));
    }
  }
  for (const auto& link : r.util_by_interval) {
    for (double v : link) mixd(v);
  }
  for (double v : r.util_total) mixd(v);
  mix(static_cast<std::uint64_t>(r.events_processed));
  mix(static_cast<std::uint64_t>(r.peak_concurrent_calls));
  return h;
}

std::int64_t Offered(const SimulationResult& r) {
  std::int64_t n = 0;
  for (const auto& c : r.per_class) n += c.offered_calls;
  return n;
}

std::int64_t Blocked(const SimulationResult& r) {
  std::int64_t n = 0;
  for (const auto& c : r.per_class) n += c.blocked_calls;
  return n;
}

/// Output checks shared by every pass of one seed.
void CheckPass(const EngineInputs& in, const PassResult& pass,
               std::uint64_t reference_digest, const char* label,
               Outcome& out) {
  const SimulationResult& r = pass.result;
  bool ok = Digest(r) == reference_digest && r.events_processed > 0 &&
            Offered(r) > 0;
  if (in.mbac) {
    // Every call offered was either admitted (seen by the policy) or
    // blocked.
    ok = ok && Offered(r) == pass.policy.admitted + Blocked(r);
  } else {
    ok = ok && Blocked(r) == 0;
  }
  out.Op(ok, std::string(label) + ": pass output check failed");
}

// ---- Replay ledger ------------------------------------------------------

constexpr std::uint32_t kEvArrival = 1;
constexpr std::uint32_t kEvTransition = 2;
constexpr std::uint32_t kEvDeparture = 3;
constexpr std::uint32_t kEvUpgradePass = 4;

struct QueueOp {
  double time = 0;  // Post: fire time; Pop: the expected fire time
  EventPayload payload;
  bool pop = false;
};

enum class StoreKind : std::uint8_t { kAllocate, kStep, kRelease };
struct StoreOp {
  StoreKind kind = StoreKind::kStep;
  std::uint32_t handle = 0;
  std::uint32_t class_index = 0;
  std::uint32_t path = 0;
  std::uint32_t rung = 0;
  std::uint64_t id = 0;
  std::int64_t shift_or_step = 0;
  double time = 0;
  double rate = 0;  // allocate: granted rate
  double base = 0;  // allocate: full-ask rate
};

enum class SigKind : std::uint8_t { kSetup, kDelta, kTeardown };
struct SigOp {
  SigKind kind = SigKind::kDelta;
  std::uint32_t path = 0;
  std::uint32_t handle = 0;
  std::uint32_t rung = 0;
  std::uint64_t id = 0;
  double rate = 0;  // setup: rate; delta: new rate; teardown: rate hint
  double delta = 0;
  double now = 0;
};

/// One signaling stack (ports + paths over them), as RunSimulation builds
/// it, for one replay layer.
struct SignalingStack {
  std::vector<std::unique_ptr<rcbr::signaling::PortController>> ports;
  std::vector<std::unique_ptr<rcbr::signaling::SignalingPath>> paths;

  SignalingStack(const SimulationOptions& o,
                 const std::vector<std::vector<std::size_t>>& routes,
                 std::size_t reserve, rcbr::obs::Recorder* recorder = nullptr) {
    for (double c : o.link_capacities_bps) {
      ports.push_back(std::make_unique<rcbr::signaling::PortController>(
          c, true, recorder, o.admission_tolerance_bps));
      ports.back()->ReserveConnections(reserve);
    }
    for (const auto& route : routes) {
      std::vector<rcbr::signaling::PortController*> hops;
      for (std::size_t l : route) hops.push_back(ports[l].get());
      paths.push_back(std::make_unique<rcbr::signaling::SignalingPath>(
          std::move(hops), o.per_hop_delay_s));
    }
  }
};

struct Ledger {
  std::int64_t events = 0;
  std::int64_t queue_ops = 0;
  std::int64_t port_cells = 0;
  std::int64_t path_ops = 0;
  std::int64_t path_deltas = 0;
  std::int64_t path_rollbacks = 0;
  std::int64_t lossy_ops = 0;
  std::int64_t order_mismatches = 0;
  std::size_t decisions_used = 0;
  bool decisions_exhausted = false;
  std::size_t peak_pending = 0;
  std::size_t peak_slots = 0;
  double queue_s = 0;
  double store_s = 0;
  double port_s = 0;
  double path_s = 0;
  double lossy_s = 0;
  /// The driver stack's port.* and signaling.* counters, for closure
  /// against the real run's.
  rcbr::obs::MetricsSnapshot driver_counters;
};

/// Rebuilds the call stream of `in` from `seed` and replays it through
/// each layer.
///
/// The driver repeats RunSimulation's own steps with the engine's public
/// pieces: its EventQueue and CallStore, a signaling stack of real
/// PortControllers, SignalingPaths and (on a lossy channel)
/// LossyPathRenegotiators drawing from the same Rng, the ladder walk and
/// the upgrade passes. Where the real run asked its admission policy, the
/// driver takes the policy's recorded answers (`decisions`, in order;
/// empty without a policy). The stream is therefore the real one, which
/// the ledger's closure checks confirm: same events, same decisions, same
/// port and signaling counters.
Ledger RunReplay(const EngineInputs& in, std::uint64_t seed,
                 const std::vector<char>& decisions) {
  const SimulationOptions& o = in.options;
  const bool lossy =
      o.cell_loss_probability != 0 || o.resync_every_cells != 0;
  bool upgrades = false;
  for (const auto& cls : o.classes) upgrades |= cls.ladder.depth() >= 2;

  // Path table in RunSimulation's order: class-major, candidate-minor.
  std::vector<std::vector<std::size_t>> routes;
  std::vector<std::vector<std::uint32_t>> path_index(o.classes.size());
  for (std::size_t c = 0; c < o.classes.size(); ++c) {
    for (const auto& route : o.classes[c].candidate_routes) {
      path_index[c].push_back(static_cast<std::uint32_t>(routes.size()));
      routes.push_back(route);
    }
  }
  const std::size_t reserve =
      o.expected_peak_calls > 0 ? o.expected_peak_calls : 4096;

  // The driver.
  EventQueue queue;
  CallStore store;
  queue.Reserve(reserve + o.classes.size() + 16);
  store.Reserve(reserve);
  rcbr::obs::Recorder driver_recorder;
  SignalingStack driver(o, routes, reserve, &driver_recorder);
  rcbr::signaling::LossyChannelOptions driver_lossy;
  driver_lossy.cell_loss_probability = o.cell_loss_probability;
  driver_lossy.resync_every_cells = o.resync_every_cells;
  driver_lossy.recorder = &driver_recorder;
  std::vector<std::optional<rcbr::signaling::LossyPathRenegotiator>>
      driver_renegs;
  std::unordered_map<std::uint64_t, std::uint32_t> index;
  std::vector<char> pass_pending(o.link_capacities_bps.size(), 0);
  Rng rng(seed);

  // The timed layer instances.
  EventQueue q2;
  q2.Reserve(reserve + o.classes.size() + 16);
  CallStore s2;
  s2.Reserve(reserve);
  SignalingStack pc(o, routes, reserve);
  SignalingStack path(o, routes, reserve);
  std::optional<SignalingStack> lossy_stack;
  std::vector<std::optional<rcbr::signaling::LossyPathRenegotiator>> renegs;
  rcbr::signaling::LossyChannelOptions lossy_options;
  lossy_options.cell_loss_probability = o.cell_loss_probability;
  lossy_options.resync_every_cells = o.resync_every_cells;
  Rng lossy_rng(seed ^ 0x9e3779b97f4a7c15ull);
  if (lossy) lossy_stack.emplace(o, routes, reserve);

  std::vector<QueueOp> qops;
  std::vector<StoreOp> sops;
  std::vector<SigOp> gops;
  constexpr std::size_t kChunk = 1 << 15;
  qops.reserve(3 * kChunk);
  sops.reserve(2 * kChunk);
  gops.reserve(2 * kChunk);

  Ledger ledger;
  double checksum = 0;

  auto flush = [&] {
    auto t0 = Clock::now();
    for (const QueueOp& op : qops) {
      if (op.pop) {
        const ScheduledEvent ev = q2.Pop();
        if (ev.time != op.time) ++ledger.order_mismatches;
        checksum += static_cast<double>(ev.payload.a);
      } else {
        q2.Post(op.time, op.payload);
      }
    }
    ledger.queue_s += SecondsSince(t0);
    ledger.queue_ops += static_cast<std::int64_t>(qops.size());

    t0 = Clock::now();
    for (const StoreOp& op : sops) {
      switch (op.kind) {
        case StoreKind::kAllocate: {
          const CallProfile& profile = in.profiles[0];
          const CallRef ref = s2.Allocate(
              op.id, profile.rates_bps, op.shift_or_step,
              profile.slot_seconds, op.time, op.rate, op.class_index,
              &o.classes[op.class_index].candidate_routes[0], op.path);
          s2.set_base_rate_bps(ref.handle, op.base);
          s2.set_rung(ref.handle, op.rung);
          checksum += s2.HasStep(ref.handle, 1) ? s2.StepTime(ref.handle, 1)
                                                : s2.DepartureTime(ref.handle);
          break;
        }
        case StoreKind::kStep: {
          const auto step = static_cast<std::size_t>(op.shift_or_step);
          const double rate = s2.StepRate(op.handle, step);
          s2.set_rate_bps(op.handle, rate);
          checksum += s2.HasStep(op.handle, step + 1)
                          ? s2.StepTime(op.handle, step + 1)
                          : s2.DepartureTime(op.handle);
          break;
        }
        case StoreKind::kRelease:
          checksum += s2.rate_bps(op.handle);
          s2.Release(op.handle);
          break;
      }
    }
    ledger.store_s += SecondsSince(t0);

    // Bare ports: one cell per hop, as the path would send them.
    t0 = Clock::now();
    for (const SigOp& op : gops) {
      const auto& route = routes[op.path];
      for (std::size_t l : route) {
        rcbr::signaling::PortController& port = *pc.ports[l];
        switch (op.kind) {
          case SigKind::kSetup:
            checksum +=
                port.AdmitConnection(op.id, op.rate, op.rung) ? 1.0 : 0.0;
            break;
          case SigKind::kDelta:
            checksum += port.Handle(rcbr::signaling::RmCell::Delta(
                                        op.id, op.delta, op.rung),
                                    op.now)
                            .granted_delta_bps;
            break;
          case SigKind::kTeardown:
            port.ReleaseConnection(op.id, op.rate);
            break;
        }
      }
      ledger.port_cells += static_cast<std::int64_t>(route.size());
    }
    ledger.port_s += SecondsSince(t0);

    t0 = Clock::now();
    for (const SigOp& op : gops) {
      rcbr::signaling::SignalingPath& p = *path.paths[op.path];
      switch (op.kind) {
        case SigKind::kSetup:
          checksum += p.SetupConnection(op.id, op.rate, op.rung) ? 1.0 : 0.0;
          break;
        case SigKind::kDelta: {
          const auto outcome = p.RequestDelta(op.id, op.delta, op.now, op.rung);
          ++ledger.path_deltas;
          if (!outcome.accepted && outcome.bottleneck_hop > 0) {
            ++ledger.path_rollbacks;
          }
          checksum += outcome.round_trip_s;
          break;
        }
        case SigKind::kTeardown:
          p.TeardownConnection(op.id, op.rate);
          break;
      }
    }
    ledger.path_s += SecondsSince(t0);
    ledger.path_ops += static_cast<std::int64_t>(gops.size());

    if (lossy_stack) {
      t0 = Clock::now();
      for (const SigOp& op : gops) {
        rcbr::signaling::SignalingPath& p = *lossy_stack->paths[op.path];
        if (op.handle >= renegs.size()) renegs.resize(op.handle + 1);
        switch (op.kind) {
          case SigKind::kSetup:
            p.SetupConnection(op.id, op.rate, op.rung);
            renegs[op.handle].emplace(&p, op.id, op.rate, lossy_options,
                                      &lossy_rng);
            renegs[op.handle]->set_rung(op.rung);
            break;
          case SigKind::kDelta:
            renegs[op.handle]->set_rung(op.rung);
            checksum +=
                renegs[op.handle]->Renegotiate(op.rate, op.now) ? 1.0 : 0.0;
            break;
          case SigKind::kTeardown:
            p.TeardownConnection(op.id, op.rate);
            renegs[op.handle].reset();
            break;
        }
      }
      ledger.lossy_s += SecondsSince(t0);
      ledger.lossy_ops += static_cast<std::int64_t>(gops.size());
    }
    qops.clear();
    sops.clear();
    gops.clear();
  };

  auto post = [&](double time, const EventPayload& payload) {
    queue.Post(time, payload);
    qops.push_back({time, payload, false});
  };
  auto schedule_arrival = [&](std::size_t c, double now) {
    EventPayload payload;
    payload.kind = kEvArrival;
    payload.a = c;
    post(now + rng.Exponential(1.0 / o.classes[c].arrival_rate_per_s),
         payload);
  };
  auto schedule_next = [&](const CallRef& ref, std::size_t next_step) {
    EventPayload payload;
    payload.gen = ref.gen;
    payload.a = ref.handle;
    if (store.HasStep(ref.handle, next_step)) {
      payload.kind = kEvTransition;
      payload.b = next_step;
      post(store.StepTime(ref.handle, next_step), payload);
    } else {
      payload.kind = kEvDeparture;
      post(store.DepartureTime(ref.handle), payload);
    }
  };
  auto fits = [&](const std::vector<std::size_t>& route, double extra) {
    for (std::size_t l : route) {
      if (driver.ports[l]->utilization_bps() + extra >
          o.link_capacities_bps[l] + o.admission_tolerance_bps) {
        return false;
      }
    }
    return true;
  };
  // RunSimulation's RequestRate: over the lossy channel when configured,
  // otherwise straight over the path. Every request is a signaling op.
  auto request_rate = [&](std::uint32_t h, double new_rate, double now,
                          std::uint32_t rung) {
    gops.push_back({SigKind::kDelta, store.path_index(h), h, rung,
                    store.id(h), new_rate, new_rate - store.rate_bps(h),
                    now});
    if (lossy) {
      rcbr::signaling::LossyPathRenegotiator& r = *driver_renegs[h];
      const std::uint32_t before = r.rung();
      r.set_rung(rung);
      const bool accepted = r.Renegotiate(new_rate, now);
      if (accepted) {
        store.set_rate_bps(h, r.believed_rate_bps());
      } else {
        r.set_rung(before);
      }
      return accepted;
    }
    const bool accepted =
        driver.paths[store.path_index(h)]
            ->RequestDelta(store.id(h), new_rate - store.rate_bps(h), now,
                           rung)
            .accepted;
    if (accepted) store.set_rate_bps(h, new_rate);
    return accepted;
  };
  auto schedule_promotions = [&](const std::vector<std::size_t>& route,
                                 double now) {
    if (!upgrades) return;
    for (std::size_t l : route) {
      if (pass_pending[l] != 0) continue;
      if (driver.ports[l]->upgrade_waiters().empty()) continue;
      pass_pending[l] = 1;
      EventPayload payload;
      payload.kind = kEvUpgradePass;
      payload.a = l;
      post(now, payload);
    }
  };

  const double end_time =
      o.warmup_seconds +
      o.interval_seconds * static_cast<double>(o.sample_intervals);
  std::uint64_t next_id = 1;
  for (std::size_t c = 0; c < o.classes.size(); ++c) schedule_arrival(c, 0.0);

  while (!queue.empty() && queue.next_time() < end_time) {
    ledger.peak_pending = std::max(ledger.peak_pending, queue.size());
    const ScheduledEvent ev = queue.Pop();
    qops.push_back({ev.time, ev.payload, true});
    ++ledger.events;
    const double now = ev.time;
    switch (ev.payload.kind) {
      case kEvArrival: {
        const auto c = static_cast<std::size_t>(ev.payload.a);
        const auto& ladder = o.classes[c].ladder;
        schedule_arrival(c, now);
        const CallProfile& profile = in.profiles[0];
        const std::int64_t shift =
            rng.UniformInt(0, profile.rates_bps.length() - 1);
        const double initial =
            CallStore::RotatedInitialRate(profile.rates_bps, shift);
        // The ladder walk, best rung first; the engine's first-fit route
        // choice (every class here has one candidate route).
        const auto& route = o.classes[c].candidate_routes[0];
        const std::size_t depth = ladder.empty() ? 1 : ladder.depth();
        bool admitted = false;
        std::uint32_t rung = 0;
        double rate = initial;
        for (std::size_t r = 0; r < depth && !admitted; ++r) {
          const double rung_rate =
              ladder.empty() ? initial : ladder.RateAt(r, initial);
          if (!fits(route, rung_rate)) continue;
          bool ok = true;
          if (in.mbac) {
            if (ledger.decisions_used >= decisions.size()) {
              ledger.decisions_exhausted = true;
              ok = false;
            } else {
              ok = decisions[ledger.decisions_used++] != 0;
            }
          }
          if (ok) {
            admitted = true;
            rung = static_cast<std::uint32_t>(r);
            rate = rung_rate;
          }
        }
        if (!admitted) break;  // blocked
        const std::uint64_t id = next_id++;
        const std::uint32_t p = path_index[c][0];
        driver.paths[p]->SetupConnection(id, rate, rung);
        const CallRef ref =
            store.Allocate(id, profile.rates_bps, shift,
                           profile.slot_seconds, now, rate,
                           static_cast<std::uint32_t>(c), &route, p);
        store.set_base_rate_bps(ref.handle, initial);
        store.set_rung(ref.handle, rung);
        index.emplace(id, ref.handle);
        if (lossy) {
          if (ref.handle >= driver_renegs.size()) {
            driver_renegs.resize(ref.handle + 1);
          }
          driver_renegs[ref.handle].emplace(driver.paths[p].get(), id, rate,
                                            driver_lossy, &rng);
          driver_renegs[ref.handle]->set_rung(rung);
        }
        sops.push_back({StoreKind::kAllocate, ref.handle,
                        static_cast<std::uint32_t>(c), p, rung, id, shift,
                        now, rate, initial});
        gops.push_back({SigKind::kSetup, p, ref.handle, rung, id, rate, 0,
                        now});
        schedule_next(ref, 1);
        break;
      }
      case kEvTransition: {
        const CallRef ref{static_cast<std::uint32_t>(ev.payload.a),
                          ev.payload.gen};
        if (!store.Alive(ref)) break;
        const std::uint32_t h = ref.handle;
        const auto step = static_cast<std::size_t>(ev.payload.b);
        const auto& ladder = o.classes[store.class_index(h)].ladder;
        const std::uint32_t rung = store.rung(h);
        const double new_base = store.StepRate(h, step);
        const double new_rate =
            ladder.empty() ? new_base : ladder.RateAt(rung, new_base);
        if (!ladder.empty()) store.set_base_rate_bps(h, new_base);
        const double old_rate = store.rate_bps(h);
        sops.push_back({StoreKind::kStep, h, 0, 0, 0, 0,
                        static_cast<std::int64_t>(step), now, 0, 0});
        if (new_rate <= old_rate) {
          request_rate(h, new_rate, now, rung);
          store.set_rate_bps(h, new_rate);
          if (new_rate < old_rate) schedule_promotions(*store.route(h), now);
        } else {
          request_rate(h, new_rate, now, rung);
        }
        schedule_next(ref, step + 1);
        break;
      }
      case kEvDeparture: {
        const CallRef ref{static_cast<std::uint32_t>(ev.payload.a),
                          ev.payload.gen};
        if (!store.Alive(ref)) break;
        const std::uint32_t h = ref.handle;
        const std::uint64_t id = store.id(h);
        driver.paths[store.path_index(h)]->TeardownConnection(
            id, store.rate_bps(h));
        schedule_promotions(*store.route(h), now);
        gops.push_back({SigKind::kTeardown, store.path_index(h), h, 0, id,
                        store.rate_bps(h), 0, now});
        sops.push_back({StoreKind::kRelease, h, 0, 0, 0, 0, 0, now, 0, 0});
        if (lossy) driver_renegs[h].reset();
        index.erase(id);
        store.Release(h);
        break;
      }
      case kEvUpgradePass: {
        // Promote the link's waiters in call-id order, each to the best
        // rung its whole route grants.
        const auto link = static_cast<std::size_t>(ev.payload.a);
        pass_pending[link] = 0;
        const std::vector<std::uint64_t> waiters =
            driver.ports[link]->upgrade_waiters();
        for (std::uint64_t id : waiters) {
          const auto it = index.find(id);
          if (it == index.end()) continue;
          const std::uint32_t h = it->second;
          const auto& ladder = o.classes[store.class_index(h)].ladder;
          const std::uint32_t cur = store.rung(h);
          if (ladder.empty() || cur == 0) continue;
          for (std::uint32_t target = 0; target < cur; ++target) {
            if (!request_rate(h, ladder.RateAt(target, store.base_rate_bps(h)),
                              now, target)) {
              continue;
            }
            store.set_rung(h, target);
            break;
          }
        }
        break;
      }
      default:
        break;
    }
    if (qops.size() >= 2 * kChunk) flush();
  }
  flush();
  ledger.peak_slots = s2.slot_count();
  ledger.driver_counters = driver_recorder.metrics().Snapshot();
  Sink(checksum);
  return ledger;
}

// ---- Traced run ---------------------------------------------------------

void AddLayer(MetricMap& m, const std::string& name, double value,
              const char* unit) {
  m[name] = {value, unit};
}

double Counter(const rcbr::obs::MetricsSnapshot& snap, const char* name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
}

/// The engine half of the ledger: untraced and traced passes of the real
/// run (end-to-end ns/event, trace overhead, admission decorator, obs
/// counters) plus the layer replays. Alternates plain and traced passes,
/// at least one of each, for about half of `budget_s`.
void EngineLedger(const EngineInputs& in, std::uint64_t seed,
                  double budget_s, MetricMap& layers, Outcome& out,
                  const char* label) {
  const auto start = Clock::now();
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  std::optional<PassResult> traced;
  rcbr::obs::MetricsSnapshot snap;
  std::vector<char> decisions;
  std::uint64_t digest = 0;
  bool have_digest = false;
  while (untraced_wall.empty() || traced_wall.empty() ||
         SecondsSince(start) < budget_s * 0.5) {
    PassResult plain = RunPass(in, seed, nullptr, false);
    if (!have_digest) {
      digest = Digest(plain.result);
      have_digest = true;
    }
    CheckPass(in, plain, digest, label, out);
    untraced_wall.push_back(plain.wall_s);

    rcbr::obs::Recorder recorder;
    PassResult obs_pass = RunPass(in, seed, &recorder, true,
                                  traced ? nullptr : &decisions);
    CheckPass(in, obs_pass, digest, label, out);
    traced_wall.push_back(obs_pass.wall_s);
    if (!traced) {
      snap = recorder.metrics().Snapshot();
      traced = std::move(obs_pass);
    }
  }
  const double events = static_cast<double>(traced->result.events_processed);
  const double e2e_ns = Median(untraced_wall) * 1e9 / events;

  const Ledger ledger = RunReplay(in, seed, decisions);
  // Closure: no per-operation cost is reported unless the replay issued
  // exactly the real run's events in its order, consumed exactly its
  // admission decisions, and its signaling stack counted exactly the real
  // run's port and signaling cells (accepted, denied, lost, resyncs).
  out.Check(ledger.events == traced->result.events_processed,
            std::string(label) + ": replay event count differs from the run");
  out.Check(ledger.order_mismatches == 0,
            std::string(label) + ": replayed queue popped out of order");
  out.Check(!ledger.decisions_exhausted &&
                ledger.decisions_used == decisions.size(),
            std::string(label) +
                ": replay used a different number of admission decisions");
  for (const char* name : {"port.delta_accepted", "port.delta_denied",
                           "signaling.cells_lost", "signaling.resyncs"}) {
    out.Check(Counter(ledger.driver_counters, name) == Counter(snap, name),
              std::string(label) + ": replay " + name + " differs from the run");
  }

  const double timer_ns = TimerPairNs();
  const double queue_ns = ledger.queue_s * 1e9;
  const double store_ns = ledger.store_s * 1e9;
  const bool lossy = ledger.lossy_ops > 0;
  const double sig_ns = (lossy ? ledger.lossy_s : ledger.path_s) * 1e9;
  double admission_share = 0;  // of a traced pass's wall time
  AddLayer(layers, "sim.engine.ns_per_event", e2e_ns, "ns");
  AddLayer(layers, "sim.engine.event_queue.ns_per_op",
           queue_ns / static_cast<double>(ledger.queue_ops), "ns");
  AddLayer(layers, "sim.engine.event_queue.peak_pending",
           static_cast<double>(ledger.peak_pending), "count");
  AddLayer(layers, "sim.engine.call_store.ns_per_event", store_ns / events,
           "ns");
  AddLayer(layers, "sim.engine.call_store.peak_slots",
           static_cast<double>(ledger.peak_slots), "count");
  AddLayer(layers, "signaling.port_controller.ns_per_cell",
           ledger.port_s * 1e9 / static_cast<double>(ledger.port_cells), "ns");
  AddLayer(layers, "signaling.path.ns_per_request",
           ledger.path_s * 1e9 / static_cast<double>(ledger.path_ops), "ns");
  if (lossy) {
    AddLayer(layers, "signaling.lossy.ns_per_reneg",
             ledger.lossy_s * 1e9 / static_cast<double>(ledger.lossy_ops),
             "ns");
  }
  AddLayer(layers, "signaling.rollback_ratio",
           ledger.path_deltas > 0
               ? static_cast<double>(ledger.path_rollbacks) /
                     static_cast<double>(ledger.path_deltas)
               : 0.0,
           "ratio");
  AddLayer(layers, "port.delta_accepted", Counter(snap, "port.delta_accepted"),
           "count");
  AddLayer(layers, "port.delta_denied", Counter(snap, "port.delta_denied"),
           "count");
  AddLayer(layers, "signaling.cells_lost",
           Counter(snap, "signaling.cells_lost"), "count");
  AddLayer(layers, "signaling.resyncs", Counter(snap, "signaling.resyncs"),
           "count");
  if (in.mbac) {
    const PolicyCounts& t = traced->policy;
    const double decision_ns = std::max(
        0.0, t.decision_s * 1e9 / static_cast<double>(t.decisions) - timer_ns);
    const double update_ns = std::max(
        0.0, t.update_s * 1e9 / static_cast<double>(t.updates) - timer_ns);
    admission_share = (decision_ns * static_cast<double>(t.decisions) +
                       update_ns * static_cast<double>(t.updates)) /
                      (traced->wall_s * 1e9);
    AddLayer(layers, "admission.ns_per_decision", decision_ns, "ns");
    AddLayer(layers, "admission.ns_per_update", update_ns, "ns");
    AddLayer(layers, "admission.accept_ratio",
             static_cast<double>(t.accepts) / static_cast<double>(t.decisions),
             "ratio");
    AddLayer(layers, "admission.time_share", admission_share, "ratio");
  } else {
    // No policy object: the engine's capacity check is all there is.
    AddLayer(layers, "admission.time_share", 0.0, "ratio");
  }
  // Admission is timed inside a traced pass; its share of that pass is
  // applied to the untraced cost so the residual compares like with like.
  AddLayer(layers, "sim.engine.residual_ns_per_event",
           e2e_ns * (1.0 - admission_share) -
               (queue_ns + store_ns + sig_ns) / events,
           "ns");
  AddLayer(layers, "obs.trace_overhead_frac",
           Median(traced_wall) / Median(untraced_wall) - 1.0, "ratio");
}

// ---- Workload drivers ---------------------------------------------------

/// Timed passes until `seconds` have elapsed (at least two, so the
/// bit-identity check always compares something), each after a reading of
/// the host's slowness.
void TimedPasses(const EngineInputs& in, std::uint64_t seed, int seconds,
                 std::uint64_t digest, const char* label, Outcome& out,
                 std::vector<double>& walls, std::vector<double>& rates,
                 std::vector<double>& slowness) {
  const auto start = Clock::now();
  while (walls.size() < 2 || SecondsSince(start) < seconds) {
    slowness.push_back(HostSlowness());
    const PassResult pass = RunPass(in, seed, nullptr, false);
    CheckPass(in, pass, digest, label, out);
    walls.push_back(pass.wall_s);
    rates.push_back(static_cast<double>(pass.result.events_processed) /
                    pass.wall_s);
  }
}

void ReportEngineEndToEnd(const std::vector<double>& walls,
                          const std::vector<double>& rates,
                          const std::vector<double>& slowness,
                          const Timed& setups, std::int64_t events,
                          Outcome& out) {
  // A pass is one batch job; the gated figure is its engine events per
  // second at reference host speed, the median over the run's passes.
  std::vector<double> corrected;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    corrected.push_back(rates[i] * slowness[i]);
  }
  out.end_to_end["work_per_s"] = {Median(corrected), "1/s"};
  out.end_to_end["setup_s"] = {setups.CorrectedMedian(), "s"};
  out.notes["pass_wall_s"] = JoinSamples(walls);
  out.notes["pass_host_slowness"] = JoinSamples(slowness);
  out.named["events_per_s"] = {Median(rates), "events/s"};
  out.named["host_slowness"] = {Median(slowness), "ratio"};
  out.named["pass_wall_s"] = {Median(walls), "s"};
  out.named["passes"] = {static_cast<double>(walls.size()), "count"};
  out.named["events_per_pass"] = {static_cast<double>(events), "count"};
  out.named["setup_s"] = {Median(setups.seconds), "s"};
}

/// The engine is single-threaded; keeping it on one CPU removes migration
/// noise from the pass timings.
int EngineCpu() {
  const std::vector<int> cpus = AllowedCpus();
  return cpus.empty() ? -1 : cpus.back();
}

constexpr double kScaleCalls = 4e5;
constexpr double kScaleWarmupCalls = 2e4;
constexpr int kSetupReps = 5;

}  // namespace

void RunEngineScale(const RunConfig& config, Outcome& out) {
  const ScopedPin pin(EngineCpu());
  // Set-up: build the inputs and run a small warm-up simulation (faults
  // in the allocator and code paths); repeated, median reported.
  Timed setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setups.slowness.push_back(HostSlowness());
    const auto t0 = Clock::now();
    const EngineInputs warm = MakeScaleInputs(kScaleWarmupCalls);
    const PassResult pass = RunPass(warm, config.seed, nullptr, false);
    out.Check(Blocked(pass.result) == 0, "engine_scale: warm-up blocked");
    setups.seconds.push_back(SecondsSince(t0));
  }
  const EngineInputs in = MakeScaleInputs(kScaleCalls);
  out.named["concurrent_calls_target"] = {kScaleCalls, "count"};

  if (config.trace) {
    EngineLedger(in, config.seed, config.seconds, out.layers, out,
                 "engine_scale");
    return;
  }
  // The first full-size pass faults the working set in: a warm-up,
  // excluded from timing, and the reference for bit-identity.
  const PassResult first = RunPass(in, config.seed, nullptr, false);
  const std::uint64_t digest = Digest(first.result);
  CheckPass(in, first, digest, "engine_scale", out);
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<double> slowness;
  TimedPasses(in, config.seed, config.seconds, digest, "engine_scale", out,
              walls, rates, slowness);
  out.named["peak_concurrent_calls"] = {
      static_cast<double>(first.result.peak_concurrent_calls), "count"};
  ReportEngineEndToEnd(walls, rates, slowness, setups,
                       first.result.events_processed, out);
}

namespace {

const MbacSize kMbacFull{};
const MbacSize kMbacProbe{1440, 40, 0.3, 1};

}  // namespace

void RunEngineMbac(const RunConfig& config, Outcome& out) {
  const ScopedPin pin(EngineCpu());
  // Set-up: trace synthesis plus the DP solve that yields the call
  // profile; repeated, median reported.
  Timed setups;
  std::vector<double> synth;
  std::vector<double> solve;
  std::optional<EngineInputs> in;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setups.slowness.push_back(HostSlowness());
    const auto t0 = Clock::now();
    EngineInputs made = MakeMbacInputs(kMbacFull);
    setups.seconds.push_back(SecondsSince(t0));
    synth.push_back(made.synth_s);
    solve.push_back(made.dp_s);
    if (in) {
      out.Check(made.dp->optimal_cost == in->dp->optimal_cost,
                "engine_mbac: set-up DP cost differs between repetitions");
    }
    in = std::move(made);
  }
  // Warm-up pass, excluded from timing; also the bit-identity reference.
  const PassResult warm = RunPass(*in, config.seed, nullptr, false);
  const std::uint64_t digest = Digest(warm.result);
  CheckPass(*in, warm, digest, "engine_mbac", out);

  if (config.trace) {
    EngineLedger(*in, config.seed, config.seconds, out.layers, out,
                 "engine_mbac");
    // The set-up solve is this workload's DP layer: re-solve once with a
    // recorder for the dp.* counters.
    rcbr::obs::Recorder recorder;
    const EngineInputs again = MakeMbacInputs(kMbacFull, &recorder);
    const auto snap = recorder.metrics().Snapshot();
    out.Check(again.dp->optimal_cost == in->dp->optimal_cost,
              "engine_mbac: traced DP cost differs");
    MetricMap& m = out.layers;
    AddLayer(m, "trace.synth_s", Median(synth), "s");
    AddLayer(m, "core.dp.setup_solve_s", Median(solve), "s");
    AddLayer(m, "core.dp.ns_per_node",
             Median(solve) * 1e9 / static_cast<double>(in->dp->total_nodes),
             "ns");
    const double candidates = Counter(snap, "dp.candidate_nodes");
    AddLayer(m, "core.dp.retained_ratio",
             candidates > 0 ? Counter(snap, "dp.retained_nodes") / candidates
                            : 0.0,
             "ratio");
    AddLayer(m, "core.dp.total_nodes",
             static_cast<double>(in->dp->total_nodes), "count");
    AddLayer(m, "core.dp.peak_live_nodes",
             static_cast<double>(in->dp->peak_live_nodes), "count");
    AddLayer(m, "core.dp.peak_resident_nodes",
             static_cast<double>(in->dp->peak_resident_nodes), "count");
    AddLayer(m, "core.dp.recomputed_epochs",
             static_cast<double>(in->dp->recomputed_epochs), "count");
    return;
  }
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<double> slowness;
  TimedPasses(*in, config.seed, config.seconds, digest, "engine_mbac", out,
              walls, rates, slowness);
  const SimulationResult& r = warm.result;
  out.named["blocking"] = {
      static_cast<double>(Blocked(r)) / static_cast<double>(Offered(r)),
      "ratio"};
  std::int64_t attempts = 0;
  std::int64_t failures = 0;
  for (const auto& c : r.per_class) {
    attempts += c.upward_attempts;
    failures += c.failed_attempts;
  }
  out.named["reneg_failure_ratio"] = {
      attempts > 0 ? static_cast<double>(failures) /
                         static_cast<double>(attempts)
                   : 0.0,
      "ratio"};
  out.named["peak_concurrent_calls"] = {
      static_cast<double>(r.peak_concurrent_calls), "count"};
  out.named["trace.synth_s"] = {Median(synth), "s"};
  out.named["core.dp.setup_solve_s"] = {Median(solve), "s"};
  ReportEngineEndToEnd(walls, rates, slowness, setups, r.events_processed,
                       out);
}

void ProbeEngineLayers(std::uint64_t seed, MetricMap& out, Outcome& outcome) {
  const EngineInputs in = MakeMbacInputs(kMbacProbe);
  const PassResult warm = RunPass(in, seed, nullptr, false);
  CheckPass(in, warm, Digest(warm.result), "engine probe", outcome);
  EngineLedger(in, seed, 0.0, out, outcome, "engine probe");
}

}  // namespace perfbench
