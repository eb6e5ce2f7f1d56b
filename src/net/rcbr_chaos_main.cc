// rcbr_chaos — the seeded loopback chaos drill, one process.
//
//   rcbr_chaos [--seed N] [--proxy-seed N] [--slots N] [--crashes N]
//              [--no-drain] [--json-out FILE] [--session-out FILE]
//              [--print-session]
//
// Client -> impairment proxy -> rcbrd server on 127.0.0.1, with a fault
// schedule that includes an RM-loss burst, a delay spike past the
// response deadline, a link-down window, at least one controller
// crash/restart, and a mid-session drain (the SIGTERM stand-in). Exit
// status 0 iff the run passed: session completed with an acknowledged
// Bye, reconnects stayed inside the retry budget, and every post-crash
// StateQuery audit found the client and server byte-exact on rate and
// rung. The canonical session log written by --session-out is a pure
// function of the seeds: CI runs this binary twice and byte-compares.
// A malformed or out-of-range flag value exits 2 before anything runs.

#include <climits>
#include <cstdio>
#include <cstring>
#include <string>

#include "net/chaos.h"
#include "obs/recorder.h"
#include "util/error.h"
#include "util/flags.h"

namespace {

bool WriteText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  using rcbr::sim::fault::FaultEvent;
  using rcbr::sim::fault::FaultKind;
  using rcbr::ParseFlagInt;

  rcbr::net::ChaosOptions options;
  options.client.seed = 42;
  options.client.slots = 400;
  options.client.slot_seconds = 0.01;
  options.client.ladder = rcbr::sim::RateLadder::FromScales(
      {1.0, 0.5, 0.25}, {1.0, 0.5, 0.25});
  options.client.upgrade_every_slots = 64;
  options.client.heuristic.denial_cooldown_slots = 8;
  options.client.retry.timeout_s = 0.06;
  options.client.retry.max_retries = 3;
  options.server.capacity_bps = 10e6;

  int crashes = 1;
  bool drain = true;
  std::string json_out;
  std::string session_out;
  bool print_session = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
      if (std::strcmp(arg, "--seed") == 0 && value != nullptr) {
        options.client.seed =
            static_cast<std::uint64_t>(ParseFlagInt(value, arg));
        ++i;
      } else if (std::strcmp(arg, "--proxy-seed") == 0 && value != nullptr) {
        options.proxy_seed =
            static_cast<std::uint64_t>(ParseFlagInt(value, arg));
        ++i;
      } else if (std::strcmp(arg, "--slots") == 0 && value != nullptr) {
        options.client.slots = ParseFlagInt(value, arg);
        ++i;
      } else if (std::strcmp(arg, "--crashes") == 0 && value != nullptr) {
        crashes = static_cast<int>(ParseFlagInt(value, arg, INT_MAX));
        ++i;
      } else if (std::strcmp(arg, "--no-drain") == 0) {
        drain = false;
      } else if (std::strcmp(arg, "--json-out") == 0 && value != nullptr) {
        json_out = value;
        ++i;
      } else if (std::strcmp(arg, "--session-out") == 0 && value != nullptr) {
        session_out = value;
        ++i;
      } else if (std::strcmp(arg, "--print-session") == 0) {
        print_session = true;
      } else {
        std::fprintf(stderr, "rcbr_chaos: unknown argument %s\n", arg);
        return 2;
      }
    }
    rcbr::net::ValidateClientOptions(options.client);
  } catch (const rcbr::Error& e) {
    std::fprintf(stderr, "rcbr_chaos: %s\n", e.what());
    return 2;
  }

  // The fault schedule, in sim seconds on the client's slot clock. The
  // horizon scales with --slots so every act still lands in-session.
  const double horizon_s =
      static_cast<double>(options.client.slots) * options.client.slot_seconds;

  // Act 1: an RM-loss burst — retransmits + rescind resyncs.
  FaultEvent burst;
  burst.time_s = 0.15 * horizon_s;
  burst.kind = FaultKind::kRmLossBurst;
  burst.duration_s = 0.10 * horizon_s;
  burst.loss_probability = 0.35;
  options.plan.Add(burst);

  // Act 2: a delay spike past the response deadline — every control
  // frame in the window is deterministically "lost late".
  FaultEvent spike;
  spike.time_s = 0.32 * horizon_s;
  spike.kind = FaultKind::kRmLossBurst;
  spike.duration_s = 0.03 * horizon_s;
  spike.extra_delay_s = 10.0;  // far beyond any deadline
  options.plan.Add(spike);

  // Act 3: controller crash(es) — reconnect + absolute-rate resync.
  for (int c = 0; c < crashes; ++c) {
    FaultEvent crash;
    crash.time_s = (0.45 + 0.18 * c) * horizon_s;
    crash.kind = FaultKind::kControllerCrash;
    options.plan.Add(crash);
  }

  // Act 4: a link-down window — everything drops, both directions.
  FaultEvent down;
  down.time_s = 0.72 * horizon_s;
  down.kind = FaultKind::kLinkDown;
  options.plan.Add(down);
  FaultEvent up;
  up.time_s = 0.76 * horizon_s;
  up.kind = FaultKind::kLinkUp;
  options.plan.Add(up);

  // Act 5: graceful drain near the end (SIGTERM stand-in): hold the
  // grant, drain the buffer, Bye.
  if (drain) {
    options.server.drain_at_slot =
        static_cast<std::int64_t>(0.9 * static_cast<double>(options.client.slots));
  }

  rcbr::obs::Recorder recorder;
  options.client.recorder = &recorder;

  const rcbr::net::ChaosResult result = rcbr::net::RunChaos(options);

  if (print_session) {
    std::fputs(result.session_canonical.c_str(), stdout);
  }
  if (!session_out.empty() &&
      !WriteText(session_out, result.session_canonical)) {
    std::fprintf(stderr, "rcbr_chaos: cannot write %s\n", session_out.c_str());
    return 1;
  }
  if (!json_out.empty() &&
      !WriteText(json_out, rcbr::net::ChaosReportJson(options, result))) {
    std::fprintf(stderr, "rcbr_chaos: cannot write %s\n", json_out.c_str());
    return 1;
  }

  std::printf(
      "rcbr_chaos: %s crashes=%llu reconnects=%lld resyncs=%lld "
      "desyncs=%lld timeouts=%lld grants=%lld denies=%lld upgrades=%lld "
      "drain_notices=%lld proxy_drops=%lld/%lld/%lld final_rate=%.0f "
      "rung=%u\n",
      result.Passed() ? "PASS" : "FAIL",
      static_cast<unsigned long long>(result.crash_generations),
      static_cast<long long>(result.client.reconnects),
      static_cast<long long>(result.client.resyncs),
      static_cast<long long>(result.desyncs),
      static_cast<long long>(result.client.timeouts),
      static_cast<long long>(result.client.grants),
      static_cast<long long>(result.client.denies),
      static_cast<long long>(result.client.upgrades),
      static_cast<long long>(result.client.drain_notices),
      static_cast<long long>(result.proxy.dropped_loss),
      static_cast<long long>(result.proxy.dropped_down),
      static_cast<long long>(result.proxy.dropped_late),
      result.final_rate_bps, result.final_rung);
  return result.Passed() ? 0 : 1;
}
