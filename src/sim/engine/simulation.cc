#include "sim/engine/simulation.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/engine/call_store.h"
#include "sim/engine/engine.h"
#include "sim/engine/measurement.h"
#include "sim/fault/fault_plan.h"
#include "sim/fault/fault_timeline.h"
#include "signaling/lossy_channel.h"
#include "signaling/path.h"
#include "signaling/port_shards.h"
#include "util/error.h"

namespace rcbr::sim::engine {

namespace {

using TraceStyle = SimulationOptions::TraceStyle;

// Payload kinds for the engine's POD event records. Arrivals carry the
// class index in `a`; transitions and departures carry the call's store
// handle in `a` (+ its generation in `gen`, the stale-event filter) and,
// for transitions, the step index in `b`. Upgrade passes carry the link
// index in `a`: they ride the same calendar queue so promotions happen
// at a deterministic point in the (time, seq) order. Fault events carry
// nothing: each advances the fault timeline to the engine clock.
constexpr std::uint32_t kEvArrival = 1;
constexpr std::uint32_t kEvTransition = 2;
constexpr std::uint32_t kEvDeparture = 3;
constexpr std::uint32_t kEvUpgradePass = 4;
constexpr std::uint32_t kEvFault = 5;

class Simulation {
 public:
  Simulation(const std::vector<CallProfile>& profiles,
             const SimulationOptions& options, Rng& rng)
      : profiles_(profiles), options_(options), rng_(rng),
        window_(options.warmup_seconds, options.sample_intervals,
                options.interval_seconds) {
    Validate();
    const std::size_t num_links = options_.link_capacities_bps.size();
    ports_.emplace(options_.link_capacities_bps, options_.track_connections,
                   options_.signaling_recorder,
                   options_.admission_tolerance_bps);
    path_index_.resize(options_.classes.size());
    for (std::size_t c = 0; c < options_.classes.size(); ++c) {
      for (const auto& route : options_.classes[c].candidate_routes) {
        std::vector<signaling::PortController*> hops;
        hops.reserve(route.size());
        for (std::size_t link : route) hops.push_back(&ports_->port(link));
        path_index_[c].push_back(paths_.size());
        paths_.push_back(std::make_unique<signaling::SignalingPath>(
            std::move(hops), options_.per_hop_delay_s));
      }
    }

    const std::string& prefix = options_.metric_prefix;
    obs::Recorder* obs = options_.recorder;
    ctr_offered_ =
        obs::FindCounter(obs, (prefix + ".offered_calls").c_str());
    ctr_blocked_ =
        obs::FindCounter(obs, (prefix + ".blocked_calls").c_str());
    ctr_attempts_ =
        obs::FindCounter(obs, (prefix + ".upward_attempts").c_str());
    ctr_failures_ =
        obs::FindCounter(obs, (prefix + ".failed_attempts").c_str());

    // Resolve-once handles for the second-generation telemetry; all stay
    // nullptr (one dead branch per call site) unless the recorder carries
    // the matching subsystem.
    ts_live_calls_ =
        obs::FindSeries(obs, (prefix + ".live_calls").c_str());
    ts_renegs_ =
        obs::FindSeries(obs, (prefix + ".renegotiations").c_str());
    ts_denies_ =
        obs::FindSeries(obs, (prefix + ".reneg_denials").c_str());
    if (ts_live_calls_ != nullptr) {
      ts_links_.reserve(num_links);
      for (std::size_t l = 0; l < num_links; ++l) {
        const std::string name =
            prefix + ".link" + std::to_string(l) + ".reserved_bps";
        ts_links_.push_back(obs::FindSeries(obs, name.c_str()));
      }
    }
    span_hold_ = obs::FindSpan(obs, (prefix + ".span.call_hold_s").c_str());
    span_reneg_rtt_ =
        obs::FindSpan(obs, (prefix + ".span.reneg_rtt_s").c_str());

    result_.per_class.resize(options_.classes.size());
    for (ClassTotals& totals : result_.per_class) {
      totals.interval_attempts.assign(window_.intervals(), 0);
      totals.interval_failures.assign(window_.intervals(), 0);
    }
    result_.util_by_interval.assign(
        num_links, std::vector<double>(window_.intervals(), 0.0));
    result_.util_total.assign(num_links, 0.0);

    if (options_.fault_plan != nullptr && !options_.fault_plan->empty()) {
      faults_.emplace(options_.fault_plan, num_links, options_.recorder);
      ctr_rerouted_ =
          obs::FindCounter(obs, (prefix + ".rerouted_calls").c_str());
      ctr_dropped_ =
          obs::FindCounter(obs, (prefix + ".dropped_calls").c_str());
    }

    // Ladder wiring. `ladders_on_` turns on delivered-utility accounting;
    // `upgrades_enabled_` (some class can actually downgrade, i.e. depth
    // >= 2) registers the ladder counters and allocates the per-link
    // upgrade-pass dedupe. Depth-1 ladders deliberately register nothing:
    // FindCounter inserts the name into the metrics snapshot even at 0,
    // and the depth-1 golden outputs are pinned byte-identical to scalar.
    for (const TrafficClass& cls : options_.classes) {
      if (!cls.ladder.empty()) ladders_on_ = true;
      if (cls.ladder.depth() >= 2) upgrades_enabled_ = true;
    }
    if (ladders_on_) utility_rate_.assign(options_.classes.size(), 0.0);
    if (upgrades_enabled_) {
      ctr_downgraded_ =
          obs::FindCounter(obs, (prefix + ".downgraded_admits").c_str());
      ctr_upgrades_ = obs::FindCounter(obs, (prefix + ".upgrades").c_str());
      pass_pending_.assign(num_links, 0);
    }

    // Capacity hints: pre-size the call arena, the event queue (one
    // pending transition per active call + one arrival per class) and
    // the per-VCI audit tables for the expected concurrency, so a
    // million-call run does not pay repeated rehash/reallocation.
    const std::size_t peak = ExpectedPeakCalls();
    store_.Reserve(peak);
    engine_.Reserve(peak + options_.classes.size() + 16);
    if (options_.track_connections) ports_->ReserveConnections(peak);
    if (Lossy()) renegotiators_.reserve(peak);
  }

  SimulationResult Run() {
    engine_.set_advance_hook([this](double from, double to) {
      window_.Integrate(from, to,
                        [this](std::size_t k, double start, double end) {
                          for (std::size_t l = 0; l < ports_->size(); ++l) {
                            const double reserved =
                                ports_->port(l).utilization_bps();
                            result_.util_by_interval[l][k] +=
                                reserved * (end - start);
                            result_.util_total[l] += reserved * (end - start);
                          }
                          if (ladders_on_) {
                            for (std::size_t c = 0; c < utility_rate_.size();
                                 ++c) {
                              result_.per_class[c].utility_seconds +=
                                  utility_rate_[c] * (end - start);
                            }
                          }
                        });
    });
    engine_.set_dispatcher([this](const EventPayload& event) {
      switch (event.kind) {
        case kEvArrival:
          OnArrival(static_cast<std::size_t>(event.a));
          break;
        case kEvTransition:
          OnRateChange({static_cast<std::uint32_t>(event.a), event.gen},
                       static_cast<std::size_t>(event.b));
          break;
        case kEvDeparture:
          OnDeparture({static_cast<std::uint32_t>(event.a), event.gen});
          break;
        case kEvUpgradePass:
          RunUpgradePass(static_cast<std::size_t>(event.a));
          break;
        case kEvFault:
          faults_->AdvanceTo(engine_.now());
          break;
        default:
          Require(false, "engine: unknown event payload kind");
      }
    });
    // Post the fault plan before seeding arrivals, so a fault scheduled
    // at the same instant as a call event fires first (fixed order).
    if (faults_.has_value()) {
      fault::FaultCallbacks callbacks;
      callbacks.on_link_down = [this](std::size_t link, double now) {
        OnLinkDown(link, now);
      };
      callbacks.on_controller_crash = [this](std::size_t link, double now) {
        OnControllerCrash(link, now);
      };
      faults_->set_callbacks(std::move(callbacks));
      EventPayload payload;
      payload.kind = kEvFault;
      for (const fault::FaultEvent& event : options_.fault_plan->events()) {
        engine_.Post(event.time_s, payload);
        if (event.kind == fault::FaultKind::kRmLossBurst &&
            event.duration_s > 0) {
          engine_.Post(event.time_s + event.duration_s, payload);
        }
      }
    }
    // Seed one arrival per class, in class order (pinned draw order).
    for (std::size_t c = 0; c < options_.classes.size(); ++c) {
      ScheduleArrival(c);
    }
    engine_.RunUntil(window_.end_time());
    result_.events_processed = engine_.events_processed();
    result_.peak_concurrent_calls =
        static_cast<std::int64_t>(store_.peak_alive());
    return std::move(result_);
  }

 private:
  void Validate() const {
    Require(!profiles_.empty(), "engine: empty profile pool");
    Require(!options_.link_capacities_bps.empty(), "engine: no links");
    Require(!options_.classes.empty(), "engine: no traffic classes");
    Require(options_.interval_seconds > 0 && options_.sample_intervals > 0,
            "engine: need measurement intervals");
    Require(options_.admission_tolerance_bps >= 0,
            "engine: negative admission tolerance");
    const std::size_t num_links = options_.link_capacities_bps.size();
    for (double c : options_.link_capacities_bps) {
      Require(c > 0, "engine: link capacity must be positive");
    }
    for (const TrafficClass& cls : options_.classes) {
      Require(!cls.candidate_routes.empty(), "engine: class without routes");
      Require(cls.arrival_rate_per_s > 0,
              "engine: class arrival rate must be positive");
      Require(cls.uniform_profile_pick ||
                  cls.profile_index < profiles_.size(),
              "engine: profile index out of range");
      for (const auto& route : cls.candidate_routes) {
        Require(!route.empty(), "engine: empty route");
        for (std::size_t link : route) {
          Require(link < num_links, "engine: link index out of range");
        }
      }
    }
    if (Lossy()) {
      Require(options_.track_connections,
              "engine: lossy signaling needs tracked connections (resync)");
    }
    if (options_.fault_plan != nullptr && !options_.fault_plan->empty()) {
      Require(options_.track_connections,
              "engine: fault injection needs tracked connections "
              "(reroute and crash repair audit per-VCI rates)");
      Require(options_.fault_plan->max_link() < num_links,
              "engine: fault plan targets a link index out of range");
    }
  }

  bool Lossy() const {
    return options_.cell_loss_probability != 0 ||
           options_.resync_every_cells != 0 ||
           (options_.fault_plan != nullptr &&
            options_.fault_plan->has_bursts());
  }

  /// Little's-law estimate of the concurrency high-water mark when the
  /// caller does not supply one: sum of arrival rate × mean holding time
  /// over the classes, padded for fluctuation. Only a capacity hint.
  std::size_t ExpectedPeakCalls() const {
    if (options_.expected_peak_calls > 0) return options_.expected_peak_calls;
    double mean_pool_duration = 0;
    for (const CallProfile& profile : profiles_) {
      mean_pool_duration += profile.duration_seconds();
    }
    mean_pool_duration /= static_cast<double>(profiles_.size());
    double expected = 0;
    for (const TrafficClass& cls : options_.classes) {
      const double holding =
          cls.uniform_profile_pick
              ? mean_pool_duration
              : profiles_[cls.profile_index].duration_seconds();
      expected += cls.arrival_rate_per_s * holding;
    }
    expected = std::min(expected * 1.25 + 64.0, 4.0e6);
    return static_cast<std::size_t>(expected);
  }

  /// True unless an injected fault has the link down right now.
  bool LinkUp(std::size_t link) const {
    return !faults_.has_value() || faults_->link_up(link);
  }

  void ScheduleArrival(std::size_t c) {
    const double when =
        engine_.now() +
        rng_.Exponential(1.0 / options_.classes[c].arrival_rate_per_s);
    EventPayload payload;
    payload.kind = kEvArrival;
    payload.a = static_cast<std::uint64_t>(c);
    engine_.Post(when, payload);
  }

  bool RouteFits(const std::vector<std::size_t>& route,
                 double extra_bps) const {
    for (std::size_t link : route) {
      if (!LinkUp(link)) return false;
      if (ports_->port(link).utilization_bps() + extra_bps >
          options_.link_capacities_bps[link] +
              options_.admission_tolerance_bps) {
        return false;
      }
    }
    return true;
  }

  double BottleneckUtilization(const std::vector<std::size_t>& route) const {
    double worst = 0;
    for (std::size_t link : route) {
      worst = std::max(worst, ports_->port(link).utilization_bps() /
                                  options_.link_capacities_bps[link]);
    }
    return worst;
  }

  std::size_t BottleneckLink(const std::vector<std::size_t>& route) const {
    std::size_t best = route.front();
    double worst = -1.0;
    for (std::size_t link : route) {
      const double u = ports_->port(link).utilization_bps() /
                       options_.link_capacities_bps[link];
      if (u > worst) {
        worst = u;
        best = link;
      }
    }
    return best;
  }

  /// Granted rates of every active call crossing `link`, in the active
  /// index's iteration order. The index is an unordered_map keyed by call
  /// id with exactly the legacy active-map's insert/erase sequence, so
  /// its iteration order — and therefore the MBAC estimators' summation
  /// order — matches the pre-refactor map bit-for-bit (pinned).
  std::vector<double> RatesOn(std::size_t link) const {
    std::vector<double> rates;
    rates.reserve(index_.size());
    for (const auto& [id, handle] : index_) {
      for (std::size_t l : *store_.route(handle)) {
        if (l == link) {
          rates.push_back(store_.rate_bps(handle));
          break;
        }
      }
    }
    return rates;
  }

  struct RouteChoice {
    const std::vector<std::size_t>* route = nullptr;
    std::size_t candidate = 0;
  };

  /// Route selection: feasible candidates only; least-loaded picks the
  /// one with the smallest bottleneck utilization, otherwise first fit.
  RouteChoice SelectRoute(const TrafficClass& cls, double rate_bps) const {
    RouteChoice choice;
    double chosen_bottleneck = 2.0;
    for (std::size_t r = 0; r < cls.candidate_routes.size(); ++r) {
      const auto& route = cls.candidate_routes[r];
      if (!RouteFits(route, rate_bps)) continue;
      if (!options_.least_loaded_routing) {
        choice.route = &route;
        choice.candidate = r;
        break;
      }
      const double bottleneck = BottleneckUtilization(route);
      if (bottleneck < chosen_bottleneck) {
        choice.route = &route;
        choice.candidate = r;
        chosen_bottleneck = bottleneck;
      }
    }
    return choice;
  }

  /// Binds a lossy renegotiator to the call's slab slot (slot = store
  /// handle; the slab replaces the old per-call unique_ptr map and is
  /// never iterated, so behavior is unchanged).
  void MakeRenegotiator(std::uint32_t handle, signaling::SignalingPath* path,
                        std::uint64_t id, double rate_bps) {
    signaling::LossyChannelOptions lossy;
    lossy.cell_loss_probability = options_.cell_loss_probability;
    lossy.resync_every_cells = options_.resync_every_cells;
    lossy.recorder = options_.signaling_recorder;
    if (faults_.has_value()) lossy.conditions = &faults_->conditions();
    if (handle >= renegotiators_.size()) {
      renegotiators_.resize(static_cast<std::size_t>(handle) + 1);
    }
    renegotiators_[handle].emplace(path, id, rate_bps, lossy, &rng_);
  }

  signaling::LossyPathRenegotiator* Renegotiator(std::uint32_t handle) {
    if (handle >= renegotiators_.size() ||
        !renegotiators_[handle].has_value()) {
      return nullptr;
    }
    return &*renegotiators_[handle];
  }

  void DropRenegotiator(std::uint32_t handle) {
    if (handle < renegotiators_.size()) renegotiators_[handle].reset();
  }

  void OnArrival(std::size_t c) {
    const TrafficClass& cls = options_.classes[c];
    // Schedule the next arrival regardless of the admission outcome.
    ScheduleArrival(c);
    ClassTotals& totals = result_.per_class[c];
    ++totals.offered_calls;
    if (ctr_offered_ != nullptr) ctr_offered_->Add();

    const std::size_t pick =
        cls.uniform_profile_pick
            ? static_cast<std::size_t>(rng_.UniformInt(
                  0, static_cast<std::int64_t>(profiles_.size()) - 1))
            : cls.profile_index;
    const CallProfile& profile = profiles_[pick];
    const std::int64_t shift =
        rng_.UniformInt(0, profile.rates_bps.length() - 1);
    const double initial_rate =
        CallStore::RotatedInitialRate(profile.rates_bps, shift);
    const double now = engine_.now();

    // Walk the class's ladder best rung first and grant the first rung
    // that both physically fits a candidate route and passes the
    // admission policy. A scalar class is the one-iteration r = 0 walk
    // (AdmitAtRung(.., 0) dispatches to the policy's binary Admit), so
    // the scalar path executes the exact legacy operation sequence.
    const RateLadder& ladder = cls.ladder;
    const std::size_t depth = ladder.empty() ? 1 : ladder.depth();
    const std::vector<std::size_t>* chosen = nullptr;
    std::size_t chosen_candidate = 0;
    std::uint32_t granted_rung = 0;
    double granted_rate = initial_rate;
    bool physically_fits = false;
    bool admitted = false;
    for (std::size_t r = 0; r < depth && !admitted; ++r) {
      const double rung_rate =
          ladder.empty() ? initial_rate : ladder.RateAt(r, initial_rate);
      const RouteChoice selected = SelectRoute(cls, rung_rate);
      if (selected.route == nullptr) continue;
      physically_fits = true;
      bool ok = true;
      if (options_.policy != nullptr) {
        const std::size_t link = BottleneckLink(*selected.route);
        const std::vector<double> rates = RatesOn(link);
        const LinkView view{options_.link_capacities_bps[link],
                            ports_->port(link).utilization_bps(), &rates};
        ok = options_.policy->AdmitAtRung(now, view, rung_rate, r);
      }
      if (ok) {
        admitted = true;
        chosen = selected.route;
        chosen_candidate = selected.candidate;
        granted_rung = static_cast<std::uint32_t>(r);
        granted_rate = rung_rate;
      }
    }
    if (!admitted) {
      ++totals.blocked_calls;
      if (ctr_blocked_ != nullptr) ctr_blocked_->Add();
      if (options_.trace_style == TraceStyle::kSingleLink) {
        obs::Emit(options_.recorder, now, obs::EventKind::kAdmitReject,
                  next_call_id_, {"rate_bps", initial_rate},
                  {"reserved_bps", ports_->port(0).utilization_bps()},
                  {"by_capacity", physically_fits ? 0.0 : 1.0});
      } else {
        obs::Emit(options_.recorder, now, obs::EventKind::kAdmitReject,
                  next_call_id_, {"class", static_cast<double>(c)},
                  {"rate_bps", initial_rate});
      }
      return;
    }

    const std::uint64_t id = next_call_id_++;
    signaling::SignalingPath& path =
        *paths_[path_index_[c][chosen_candidate]];
    Require(path.SetupConnection(id, granted_rate, granted_rung),
            "engine: signaling rejected a pre-checked setup");
    const CallRef ref = store_.Allocate(
        id, profile.rates_bps, shift, profile.slot_seconds, now,
        granted_rate, static_cast<std::uint32_t>(c), chosen,
        static_cast<std::uint32_t>(path_index_[c][chosen_candidate]));
    store_.set_base_rate_bps(ref.handle, initial_rate);
    store_.set_rung(ref.handle, granted_rung);
    index_.emplace(id, ref.handle);
    if (Lossy()) {
      MakeRenegotiator(ref.handle, &path, id, granted_rate);
      Renegotiator(ref.handle)->set_rung(granted_rung);
    }
    if (options_.policy != nullptr) {
      options_.policy->OnAdmitted(now, id, granted_rate);
    }
    if (granted_rung > 0) {
      ++totals.downgraded_admits;
      if (ctr_downgraded_ != nullptr) ctr_downgraded_->Add();
    }
    if (ladders_on_) utility_rate_[c] += ClassUtility(c, granted_rung);
    if (options_.trace_style == TraceStyle::kSingleLink) {
      obs::Emit(options_.recorder, now, obs::EventKind::kAdmitAccept, id,
                {"rate_bps", granted_rate},
                {"reserved_bps", ports_->port(0).utilization_bps()},
                {"rung", static_cast<double>(granted_rung)});
    } else {
      obs::Emit(options_.recorder, now, obs::EventKind::kAdmitAccept, id,
                {"class", static_cast<double>(c)},
                {"rate_bps", granted_rate},
                {"hops", static_cast<double>(chosen->size())},
                {"rung", static_cast<double>(granted_rung)});
    }
    SampleLiveCalls(now);
    SampleRoute(*chosen, now);
    ScheduleTransition(ref, 1);
  }

  /// Utility-per-second a class-`c` call delivers at `rung` (scalar
  /// classes in a mixed run count full utility).
  double ClassUtility(std::size_t c, std::uint32_t rung) const {
    const RateLadder& ladder = options_.classes[c].ladder;
    return ladder.empty() ? 1.0 : ladder.utility(rung);
  }

  void ScheduleTransition(const CallRef& ref, std::size_t next_step) {
    EventPayload payload;
    payload.gen = ref.gen;
    payload.a = ref.handle;
    if (store_.HasStep(ref.handle, next_step)) {
      payload.kind = kEvTransition;
      payload.b = next_step;
      engine_.Post(store_.StepTime(ref.handle, next_step), payload);
    } else {
      payload.kind = kEvDeparture;
      engine_.Post(store_.DepartureTime(ref.handle), payload);
    }
  }

  /// Carries the renegotiation to the ports — directly over the path, or
  /// through the lossy channel when one is configured. `rung` is the
  /// ladder rung the call lands on if granted (0 for scalar contracts);
  /// the cells carry it so the ports' upgrade queues follow the call.
  bool RequestRate(std::uint32_t handle, double new_rate, double now,
                   std::uint32_t rung = 0) {
    if (signaling::LossyPathRenegotiator* lossy = Renegotiator(handle)) {
      const std::uint32_t rung_before = lossy->rung();
      lossy->set_rung(rung);
      const bool accepted = lossy->Renegotiate(new_rate, now);
      if (accepted) {
        store_.set_rate_bps(handle, lossy->believed_rate_bps());
      } else {
        // Denied: the call stays at its previous rung, so later cells
        // must keep carrying it.
        lossy->set_rung(rung_before);
      }
      return accepted;
    }
    const std::uint64_t id = store_.id(handle);
    const signaling::PathOutcome outcome =
        paths_[store_.path_index(handle)]
            ->RequestDelta(id, new_rate - store_.rate_bps(handle), now,
                           rung);
    if (span_reneg_rtt_ != nullptr) {
      span_reneg_rtt_->Record(outcome.round_trip_s);
    }
    if (outcome.accepted) store_.set_rate_bps(handle, new_rate);
    return outcome.accepted;
  }

  void OnRateChange(const CallRef& ref, std::size_t step) {
    if (!store_.Alive(ref)) return;
    const std::uint32_t h = ref.handle;
    const double now = engine_.now();
    const double new_base = store_.StepRate(h, step);
    const RateLadder& ladder = options_.classes[store_.class_index(h)].ladder;
    const std::uint32_t rung = store_.rung(h);
    // A downgraded call keeps its rung across schedule steps: the whole
    // schedule is scaled by the rung (lower resolution, same
    // renegotiation pattern). Rung 0 multiplies bit-exactly, so scalar
    // and depth-1 runs see the unscaled step rate.
    const double new_rate =
        ladder.empty() ? new_base : ladder.RateAt(rung, new_base);
    if (!ladder.empty()) store_.set_base_rate_bps(h, new_base);
    const double old_rate = store_.rate_bps(h);
    const std::uint64_t id = store_.id(h);
    if (new_rate <= old_rate) {
      // Decreases always succeed (and, on a lossy channel, may be lost —
      // the unacked source moves its belief either way).
      RequestRate(h, new_rate, now, rung);
      store_.set_rate_bps(h, new_rate);
      if (options_.policy != nullptr) {
        options_.policy->OnRateChange(now, id, old_rate, new_rate);
      }
      // The decrease freed capacity on every link of the route — give
      // downgraded calls waiting there a chance to climb.
      if (upgrades_enabled_ && new_rate < old_rate) {
        SchedulePromotionPasses(*store_.route(h));
      }
    } else {
      ClassTotals& totals = result_.per_class[store_.class_index(h)];
      ++totals.upward_attempts;
      if (ctr_attempts_ != nullptr) ctr_attempts_->Add();
      const std::int64_t idx = window_.IntervalIndex(now);
      if (idx >= 0) {
        ++totals.interval_attempts[static_cast<std::size_t>(idx)];
      }
      // A route with a failed link cannot carry the request cell at all:
      // the increase is denied without consulting (or drawing loss for)
      // any port.
      bool accepted = false;
      if (RouteLinksUp(*store_.route(h))) {
        accepted = RequestRate(h, new_rate, now, rung);
      }
      if (accepted) {
        if (options_.policy != nullptr) {
          options_.policy->OnRateChange(now, id, old_rate, new_rate);
        }
        if (options_.trace_style == TraceStyle::kSingleLink) {
          obs::Emit(options_.recorder, now, obs::EventKind::kRenegGrant, id,
                    {"old_bps", old_rate}, {"new_bps", new_rate},
                    {"reserved_bps", ports_->port(0).utilization_bps()});
        } else {
          obs::Emit(options_.recorder, now, obs::EventKind::kRenegGrant, id,
                    {"class", static_cast<double>(store_.class_index(h))},
                    {"old_bps", old_rate}, {"new_bps", new_rate});
        }
        if (ts_renegs_ != nullptr) ts_renegs_->Sample(now, 1.0);
        SampleRoute(*store_.route(h), now);
      } else {
        ++totals.failed_attempts;
        if (ctr_failures_ != nullptr) ctr_failures_->Add();
        if (idx >= 0) {
          ++totals.interval_failures[static_cast<std::size_t>(idx)];
        }
        // Full-grant-or-nothing: the call keeps its old reservation.
        if (options_.trace_style == TraceStyle::kSingleLink) {
          obs::Emit(options_.recorder, now, obs::EventKind::kRenegDeny, id,
                    {"old_bps", old_rate}, {"new_bps", new_rate},
                    {"reserved_bps", ports_->port(0).utilization_bps()});
        } else {
          obs::Emit(options_.recorder, now, obs::EventKind::kRenegDeny, id,
                    {"class", static_cast<double>(store_.class_index(h))},
                    {"old_bps", old_rate}, {"new_bps", new_rate});
        }
        if (ts_denies_ != nullptr) ts_denies_->Sample(now, 1.0);
      }
    }
    ScheduleTransition(ref, step + 1);
  }

  bool RouteLinksUp(const std::vector<std::size_t>& route) const {
    for (std::size_t link : route) {
      if (!LinkUp(link)) return false;
    }
    return true;
  }

  /// Posts one upgrade-pass event per link of `route` that has waiters
  /// (deduped per link while a pass is pending). The pass rides the
  /// calendar queue at `now`, so promotions run after the current event
  /// finishes, at a deterministic (time, seq) position.
  void SchedulePromotionPasses(const std::vector<std::size_t>& route) {
    for (std::size_t link : route) {
      if (pass_pending_[link] != 0) continue;
      if (ports_->port(link).upgrade_waiters().empty()) continue;
      pass_pending_[link] = 1;
      EventPayload payload;
      payload.kind = kEvUpgradePass;
      payload.a = static_cast<std::uint64_t>(link);
      engine_.Post(engine_.now(), payload);
    }
  }

  /// Tries to promote every call waiting on `link`, in ascending call-id
  /// order (the queue is sorted by VCI == call id). Each promotion goes
  /// through the normal renegotiation path, so a grant consumes capacity
  /// that later waiters in the same pass then contend for.
  void RunUpgradePass(std::size_t link) {
    pass_pending_[link] = 0;
    const double now = engine_.now();
    // Promotions edit the queue (a grant to rung 0 removes the waiter),
    // so iterate a snapshot.
    const std::vector<std::uint64_t> waiters =
        ports_->port(link).upgrade_waiters();
    for (std::uint64_t id : waiters) {
      const auto it = index_.find(id);
      if (it == index_.end()) continue;
      TryPromote(it->second, now);
    }
  }

  /// One promotion attempt: walk the rungs above the call's current one,
  /// best first, and take the first the whole route grants. Denied
  /// attempts roll back byte-exactly and the call keeps waiting.
  void TryPromote(std::uint32_t h, double now) {
    const std::size_t c = store_.class_index(h);
    const RateLadder& ladder = options_.classes[c].ladder;
    const std::uint32_t cur = store_.rung(h);
    if (ladder.empty() || cur == 0) return;
    if (!RouteLinksUp(*store_.route(h))) return;
    const std::uint64_t id = store_.id(h);
    for (std::uint32_t target = 0; target < cur; ++target) {
      const double target_rate =
          ladder.RateAt(target, store_.base_rate_bps(h));
      if (!RequestRate(h, target_rate, now, target)) continue;
      store_.set_rung(h, target);
      utility_rate_[c] += ladder.utility(target) - ladder.utility(cur);
      ++result_.per_class[c].upgrades;
      if (ctr_upgrades_ != nullptr) ctr_upgrades_->Add();
      obs::Emit(options_.recorder, now, obs::EventKind::kCallUpgrade, id,
                {"class", static_cast<double>(c)},
                {"from_rung", static_cast<double>(cur)},
                {"to_rung", static_cast<double>(target)},
                {"rate_bps", store_.rate_bps(h)});
      SampleRoute(*store_.route(h), now);
      return;
    }
  }

  void SampleLiveCalls(double now) {
    if (ts_live_calls_ != nullptr) {
      ts_live_calls_->Sample(now,
                             static_cast<double>(store_.alive_count()));
    }
  }

  /// Samples reserved bandwidth on every link of `route` — called at the
  /// mutation points (admit, grant, teardown) so the series tracks each
  /// change without touching the per-event advance hook.
  void SampleRoute(const std::vector<std::size_t>& route, double now) {
    if (ts_links_.empty()) return;
    for (std::size_t link : route) {
      ts_links_[link]->Sample(now, ports_->port(link).utilization_bps());
    }
  }

  /// Active calls whose route crosses `link`, ascending call id — the
  /// fixed processing order fault handlers use (the active index's own
  /// iteration order is not deterministic across platforms).
  std::vector<std::uint64_t> CallsCrossing(std::size_t link) const {
    std::vector<std::uint64_t> ids;
    for (const auto& [id, handle] : index_) {
      for (std::size_t l : *store_.route(handle)) {
        if (l == link) {
          ids.push_back(id);
          break;
        }
      }
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  void OnLinkDown(std::size_t link, double now) {
    for (std::uint64_t id : CallsCrossing(link)) {
      RerouteOrDrop(id, link, now);
    }
  }

  /// A link failure severed this call's route: move it to a feasible
  /// alternate candidate at its current rate, or drop it mid-service.
  void RerouteOrDrop(std::uint64_t id, std::size_t failed_link, double now) {
    const std::uint32_t h = index_.at(id);
    const std::size_t c = store_.class_index(h);
    const double rate = store_.rate_bps(h);
    ClassTotals& totals = result_.per_class[c];
    // Release the dead route first so an alternate sharing healthy links
    // with it sees the freed capacity.
    const std::vector<std::size_t>* old_route = store_.route(h);
    paths_[store_.path_index(h)]->TeardownConnection(id, rate);
    DropRenegotiator(h);
    if (upgrades_enabled_) SchedulePromotionPasses(*old_route);
    const RouteChoice alternate = SelectRoute(options_.classes[c], rate);
    if (alternate.route != nullptr) {
      signaling::SignalingPath& path =
          *paths_[path_index_[c][alternate.candidate]];
      Require(path.SetupConnection(id, rate, store_.rung(h)),
              "engine: signaling rejected a pre-checked reroute");
      store_.set_route(h, alternate.route);
      store_.set_path_index(
          h, static_cast<std::uint32_t>(path_index_[c][alternate.candidate]));
      if (Lossy()) {
        MakeRenegotiator(h, &path, id, rate);
        Renegotiator(h)->set_rung(store_.rung(h));
      }
      ++totals.rerouted_calls;
      if (ctr_rerouted_ != nullptr) ctr_rerouted_->Add();
      obs::Emit(options_.recorder, now, obs::EventKind::kCallRerouted, id,
                {"class", static_cast<double>(c)},
                {"link", static_cast<double>(failed_link)},
                {"rate_bps", rate});
      SampleRoute(*alternate.route, now);
    } else {
      // No feasible alternate: the network loses the call. Pending
      // transition events for the handle become no-ops, like a departure.
      if (ladders_on_) {
        utility_rate_[c] -= ClassUtility(c, store_.rung(h));
      }
      if (options_.policy != nullptr) {
        options_.policy->OnDeparture(now, id, rate);
      }
      ++totals.dropped_calls;
      if (ctr_dropped_ != nullptr) ctr_dropped_->Add();
      obs::Emit(options_.recorder, now, obs::EventKind::kCallDropped, id,
                {"class", static_cast<double>(c)},
                {"link", static_cast<double>(failed_link)},
                {"rate_bps", rate});
      // A dropped call's lifetime ends here: it still gets a hold span.
      if (span_hold_ != nullptr) {
        span_hold_->Record(now - store_.start_time(h));
      }
      index_.erase(id);
      store_.Release(h);
      SampleLiveCalls(now);
    }
  }

  /// The port controller on `link` crashed and restarted empty. The
  /// existing absolute-rate resync is the repair (Sec. III-B): every call
  /// crossing the link resyncs its believed rate along its whole path,
  /// rebuilding the port's per-VCI table and aggregate utilization.
  void OnControllerCrash(std::size_t link, double now) {
    ports_->port(link).CrashRestart();
    for (std::uint64_t id : CallsCrossing(link)) {
      const std::uint32_t h = index_.at(id);
      if (signaling::LossyPathRenegotiator* lossy = Renegotiator(h)) {
        lossy->Resync(now);
      } else {
        paths_[store_.path_index(h)]->Resync(id, store_.rate_bps(h), now,
                                             store_.rung(h));
      }
    }
  }

  void OnDeparture(const CallRef& ref) {
    if (!store_.Alive(ref)) return;
    const std::uint32_t h = ref.handle;
    const double now = engine_.now();
    const double rate = store_.rate_bps(h);
    const std::uint64_t id = store_.id(h);
    // Untracked ports release the hint; tracked ports release what they
    // actually reserved (which under loss may differ from the belief).
    paths_[store_.path_index(h)]->TeardownConnection(id, rate);
    if (ladders_on_) {
      utility_rate_[store_.class_index(h)] -=
          ClassUtility(store_.class_index(h), store_.rung(h));
    }
    // The departure freed this call's reservation on every link it
    // crossed — promote downgraded calls waiting there.
    if (upgrades_enabled_) SchedulePromotionPasses(*store_.route(h));
    if (options_.policy != nullptr) {
      options_.policy->OnDeparture(now, id, rate);
    }
    if (options_.trace_style == TraceStyle::kSingleLink) {
      obs::Emit(options_.recorder, now, obs::EventKind::kCallDeparture, id,
                {"rate_bps", rate},
                {"reserved_bps", ports_->port(0).utilization_bps()});
    } else {
      obs::Emit(options_.recorder, now, obs::EventKind::kCallDeparture, id,
                {"class", static_cast<double>(store_.class_index(h))},
                {"rate_bps", rate});
    }
    if (span_hold_ != nullptr) {
      span_hold_->Record(now - store_.start_time(h));
    }
    const std::vector<std::size_t>* route = store_.route(h);
    DropRenegotiator(h);
    index_.erase(id);
    store_.Release(h);
    SampleLiveCalls(now);
    SampleRoute(*route, now);
  }

  const std::vector<CallProfile>& profiles_;
  const SimulationOptions& options_;
  Rng& rng_;
  MeasurementWindow window_;
  Engine engine_;
  std::optional<signaling::PortShards> ports_;
  std::vector<std::unique_ptr<signaling::SignalingPath>> paths_;
  std::vector<std::vector<std::size_t>> path_index_;
  /// SoA slot-map of active calls (schedules, rates, routes).
  CallStore store_;
  /// Call id -> store handle. Kept as an unordered_map with the legacy
  /// active-map's exact insert/erase sequence: RatesOn iterates it, and
  /// that iteration order feeds the MBAC estimators' float sums, which
  /// the hexfloat regression pins fix bit-for-bit. Do not reserve() it —
  /// the legacy map never did, and the bucket-count trajectory is part
  /// of the iteration order.
  std::unordered_map<std::uint64_t, std::uint32_t> index_;
  /// Lossy renegotiators, slab-indexed by store handle (only bound when
  /// the run is lossy; never iterated).
  std::vector<std::optional<signaling::LossyPathRenegotiator>>
      renegotiators_;
  std::uint64_t next_call_id_ = 1;
  std::optional<fault::FaultTimeline> faults_;
  SimulationResult result_;
  /// Ladder accounting. `ladders_on_` = some class carries a ladder
  /// (delivered-utility integration active); `upgrades_enabled_` = some
  /// class can actually downgrade (depth >= 2 — registers the ladder
  /// counters and arms the upgrade passes). Depth-1 runs keep both event
  /// stream and metrics snapshot byte-identical to scalar.
  bool ladders_on_ = false;
  bool upgrades_enabled_ = false;
  /// Sum of alive calls' utility-per-second, per class (event-order
  /// deterministic; integrated by the advance hook).
  std::vector<double> utility_rate_;
  /// Per-link "an upgrade pass is already queued" dedupe.
  std::vector<std::uint8_t> pass_pending_;
  obs::Counter* ctr_downgraded_ = nullptr;
  obs::Counter* ctr_upgrades_ = nullptr;
  obs::Counter* ctr_offered_ = nullptr;
  obs::Counter* ctr_blocked_ = nullptr;
  obs::Counter* ctr_attempts_ = nullptr;
  obs::Counter* ctr_failures_ = nullptr;
  obs::Counter* ctr_rerouted_ = nullptr;
  obs::Counter* ctr_dropped_ = nullptr;
  obs::TimeSeries* ts_live_calls_ = nullptr;
  obs::TimeSeries* ts_renegs_ = nullptr;
  obs::TimeSeries* ts_denies_ = nullptr;
  /// Per-link reserved-bandwidth series (empty when sampling is off).
  std::vector<obs::TimeSeries*> ts_links_;
  obs::SpanHistogram* span_hold_ = nullptr;
  obs::SpanHistogram* span_reneg_rtt_ = nullptr;
};

}  // namespace

SimulationResult RunSimulation(const std::vector<CallProfile>& profiles,
                               const SimulationOptions& options, Rng& rng) {
  Simulation simulation(profiles, options, rng);
  return simulation.Run();
}

}  // namespace rcbr::sim::engine
