// rcbrd — the RCBR admission daemon on loopback TCP.
//
//   rcbrd [--port N] [--capacity-bps X] [--tolerance-bps X]
//         [--client-deadline-ms N] [--drain-at-slot N]
//
// Runs PortController admission behind the length-prefixed frame
// protocol (src/net/wire.h). SIGTERM or SIGINT starts a graceful drain:
// no new sessions, rate increases denied, every session gets a Drain
// notice and finishes with Bye/ByeAck; the daemon exits when the last
// session is gone. A second signal stops immediately. A malformed flag
// value (non-numeric, negative, overflowing, or a port past 65535) exits
// 2 before anything is bound.

#include <climits>
#include <csignal>
#include <cstdio>
#include <cstring>

#include "net/server.h"
#include "util/error.h"
#include "util/flags.h"

namespace {

rcbr::net::Server* g_server = nullptr;
volatile std::sig_atomic_t g_signals = 0;

void HandleSignal(int) {
  // Both entry points are lock-free atomic stores — signal-safe.
  if (g_server == nullptr) return;
  g_signals = g_signals + 1;
  if (g_signals == 1) {
    g_server->RequestDrain();
  } else {
    g_server->Stop();
  }
}

}  // namespace

int main(int argc, char** argv) {
  using rcbr::ParseFlagInt;
  rcbr::net::ServerOptions options;
  options.port = 4790;
  try {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
      if (std::strcmp(arg, "--port") == 0 && value != nullptr) {
        options.port =
            static_cast<std::uint16_t>(ParseFlagInt(value, arg, 65535));
        ++i;
      } else if (std::strcmp(arg, "--capacity-bps") == 0 &&
                 value != nullptr) {
        options.capacity_bps = rcbr::ParseFlagPositiveDouble(value, arg);
        ++i;
      } else if (std::strcmp(arg, "--tolerance-bps") == 0 &&
                 value != nullptr) {
        options.admission_tolerance_bps =
            rcbr::ParseFlagNonNegativeDouble(value, arg);
        ++i;
      } else if (std::strcmp(arg, "--client-deadline-ms") == 0 &&
                 value != nullptr) {
        options.client_deadline_ms =
            static_cast<int>(ParseFlagInt(value, arg, INT_MAX));
        ++i;
      } else if (std::strcmp(arg, "--drain-at-slot") == 0 &&
                 value != nullptr) {
        options.drain_at_slot = ParseFlagInt(value, arg);
        ++i;
      } else {
        std::fprintf(stderr, "rcbrd: unknown argument %s\n", arg);
        return 2;
      }
    }
  } catch (const rcbr::Error& e) {
    std::fprintf(stderr, "rcbrd: %s\n", e.what());
    return 2;
  }

  rcbr::net::Server server(options);
  if (!server.Start()) {
    std::fprintf(stderr, "rcbrd: cannot bind 127.0.0.1:%u\n",
                 static_cast<unsigned>(options.port));
    return 1;
  }
  g_server = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  std::printf("rcbrd: listening on 127.0.0.1:%u capacity %.0f bps\n",
              static_cast<unsigned>(server.port()), options.capacity_bps);
  std::fflush(stdout);
  server.Serve();

  const rcbr::net::ServerStats& stats = server.stats();
  std::printf(
      "rcbrd: exit sessions=%lld admits=%lld grants=%lld denies=%lld "
      "resyncs=%lld crashes=%lld drains=%lld protocol_errors=%lld\n",
      static_cast<long long>(stats.sessions_opened),
      static_cast<long long>(stats.admits),
      static_cast<long long>(stats.grants),
      static_cast<long long>(stats.denies),
      static_cast<long long>(stats.resyncs),
      static_cast<long long>(stats.crashes),
      static_cast<long long>(stats.drains_notified),
      static_cast<long long>(stats.protocol_errors));
  return 0;
}
