// rcbr_client — the RCBR end system talking to a running rcbrd.
//
//   rcbr_client --port N [--host H] [--slots N] [--seed N] [--vci N]
//               [--slot-ms N] [--ladder-depth N] [--upgrade-every N]
//               [--session-out FILE] [--jsonl]
//
// Drives the seeded multi-time-scale source + AR(1) heuristic + rate
// ladder against a live daemon and prints the session outcome. Exit
// status 0 iff the session completed with an acknowledged Bye and zero
// desyncs; 2 on a malformed or out-of-range flag value.

#include <climits>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/client.h"
#include "util/error.h"
#include "util/flags.h"

namespace {

rcbr::sim::RateLadder MakeLadder(int depth) {
  if (depth <= 1) return rcbr::sim::RateLadder::Scalar();
  std::vector<rcbr::sim::RateRung> rungs;
  double scale = 1.0;
  for (int r = 0; r < depth; ++r) {
    rungs.push_back({scale, scale});
    scale *= 0.5;
  }
  return rcbr::sim::RateLadder(std::move(rungs));
}

bool WriteText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  using rcbr::ParseFlagInt;
  rcbr::net::ClientOptions options;
  options.heuristic.denial_cooldown_slots = 8;
  int ladder_depth = 3;
  std::string session_out;
  bool print_jsonl = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
      if (std::strcmp(arg, "--host") == 0 && value != nullptr) {
        options.host = value;
        ++i;
      } else if (std::strcmp(arg, "--port") == 0 && value != nullptr) {
        options.port =
            static_cast<std::uint16_t>(ParseFlagInt(value, arg, 65535));
        ++i;
      } else if (std::strcmp(arg, "--vci") == 0 && value != nullptr) {
        options.vci = static_cast<std::uint64_t>(ParseFlagInt(value, arg));
        ++i;
      } else if (std::strcmp(arg, "--slots") == 0 && value != nullptr) {
        options.slots = ParseFlagInt(value, arg);
        ++i;
      } else if (std::strcmp(arg, "--seed") == 0 && value != nullptr) {
        options.seed = static_cast<std::uint64_t>(ParseFlagInt(value, arg));
        ++i;
      } else if (std::strcmp(arg, "--slot-ms") == 0 && value != nullptr) {
        options.slot_seconds =
            static_cast<double>(ParseFlagInt(value, arg, INT_MAX)) * 1e-3;
        ++i;
      } else if (std::strcmp(arg, "--ladder-depth") == 0 &&
                 value != nullptr) {
        ladder_depth = static_cast<int>(ParseFlagInt(value, arg, INT_MAX));
        ++i;
      } else if (std::strcmp(arg, "--upgrade-every") == 0 &&
                 value != nullptr) {
        options.upgrade_every_slots = ParseFlagInt(value, arg);
        ++i;
      } else if (std::strcmp(arg, "--session-out") == 0 && value != nullptr) {
        session_out = value;
        ++i;
      } else if (std::strcmp(arg, "--jsonl") == 0) {
        print_jsonl = true;
      } else {
        std::fprintf(stderr, "rcbr_client: unknown argument %s\n", arg);
        return 2;
      }
    }
    options.ladder = MakeLadder(ladder_depth);
    rcbr::net::ValidateClientOptions(options);
  } catch (const rcbr::Error& e) {
    std::fprintf(stderr, "rcbr_client: %s\n", e.what());
    return 2;
  }
  if (options.port == 0) {
    std::fprintf(stderr, "rcbr_client: --port is required\n");
    return 2;
  }
  rcbr::net::Client client(options);
  const bool ok = client.Run();
  const rcbr::net::ClientStats& stats = client.stats();

  if (print_jsonl) {
    std::fputs(client.log().ToJsonl().c_str(), stdout);
  }
  if (!session_out.empty() &&
      !WriteText(session_out, client.log().CanonicalText())) {
    std::fprintf(stderr, "rcbr_client: cannot write %s\n",
                 session_out.c_str());
    return 1;
  }

  std::printf(
      "rcbr_client: %s slots=%lld charged=%lld grants=%lld denies=%lld "
      "timeouts=%lld holds=%lld reconnects=%lld resyncs=%lld desyncs=%lld "
      "upgrades=%lld loss=%.4f final_rate=%.0f rung=%u\n",
      ok ? "completed" : (stats.gave_up ? "gave-up" : "failed"),
      static_cast<long long>(stats.slots),
      static_cast<long long>(stats.charged_slots),
      static_cast<long long>(stats.grants),
      static_cast<long long>(stats.denies),
      static_cast<long long>(stats.timeouts),
      static_cast<long long>(stats.holds),
      static_cast<long long>(stats.reconnects),
      static_cast<long long>(stats.resyncs),
      static_cast<long long>(stats.desyncs),
      static_cast<long long>(stats.upgrades), stats.loss_fraction(),
      client.granted_bps(), client.rung());
  return ok && stats.desyncs == 0 ? 0 : 1;
}
