#include "net/chaos.h"

#include <chrono>
#include <thread>

#include "util/error.h"
#include "util/json.h"

namespace rcbr::net {

ChaosResult RunChaos(const ChaosOptions& options) {
  // Reject a bad session before any thread starts: a throw past a
  // joinable std::thread terminates the process.
  ValidateClientOptions(options.client);
  ChaosResult result;

  ServerOptions server_options = options.server;
  server_options.port = 0;
  Server server(server_options);
  Require(server.Start(), "RunChaos: server failed to bind");

  ProxyOptions proxy_options;
  proxy_options.server_port = server.port();
  proxy_options.plan = options.plan;
  proxy_options.slots_per_second = 1.0 / options.client.slot_seconds;
  proxy_options.late_threshold_s = options.client.response_deadline_ms * 1e-3;
  proxy_options.seed = options.proxy_seed;
  proxy_options.recorder = options.client.recorder;
  proxy_options.on_controller_crash = [&server] {
    // The handshake that makes a crash a completed fact: request the
    // wipe, then wait until the serve loop has demonstrably done it.
    const std::uint64_t generation = server.crash_generation();
    server.InjectCrash();
    while (server.crash_generation() == generation) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  Proxy proxy(proxy_options);
  Require(proxy.Start(), "RunChaos: proxy failed to bind");
  std::thread server_thread([&server] { server.Serve(); });
  std::thread proxy_thread([&proxy] { proxy.Serve(); });

  ClientOptions client_options = options.client;
  client_options.host = "127.0.0.1";
  client_options.port = proxy.port();
  Client client(client_options);
  client.Run();

  proxy.Stop();
  proxy_thread.join();
  server.Stop();
  server_thread.join();

  result.client = client.stats();
  result.server = server.stats();
  result.proxy = proxy.stats();
  result.completed = client.stats().completed;
  result.gave_up = client.stats().gave_up;
  result.desyncs = client.stats().desyncs;
  result.crash_generations = server.crash_generation();
  result.session_canonical = client.log().CanonicalText();
  result.session = client.log();
  result.final_rate_bps = client.granted_bps();
  result.final_rung = client.rung();
  result.server_utilization_bps = server.utilization_bps();
  return result;
}

std::string ChaosReportJson(const ChaosOptions& options,
                            const ChaosResult& result) {
  std::string out = "{\n";
  out += "  \"experiment\": " + json::Quote(options.name) + ",\n";
  out += "  \"base_seed\": " + std::to_string(options.client.seed) + ",\n";
  out += "  \"notes\": [" +
         json::Quote("loopback chaos run: client -> impairment proxy -> "
                     "rcbrd on 127.0.0.1") +
         "],\n";
  out += "  \"results\": {\n";
  out += "    \"passed\": " + std::string(result.Passed() ? "true" : "false") +
         ",\n";
  out += "    \"completed\": " +
         std::string(result.completed ? "true" : "false") + ",\n";
  out += "    \"gave_up\": " + std::string(result.gave_up ? "true" : "false") +
         ",\n";
  out += "    \"desyncs\": " + std::to_string(result.desyncs) + ",\n";
  out += "    \"crashes\": " + std::to_string(result.crash_generations) +
         ",\n";
  out += "    \"reconnects\": " + std::to_string(result.client.reconnects) +
         ",\n";
  out += "    \"resyncs\": " + std::to_string(result.client.resyncs) + ",\n";
  out += "    \"timeouts\": " + std::to_string(result.client.timeouts) + ",\n";
  out += "    \"grants\": " + std::to_string(result.client.grants) + ",\n";
  out += "    \"denies\": " + std::to_string(result.client.denies) + ",\n";
  out += "    \"upgrades\": " + std::to_string(result.client.upgrades) + ",\n";
  out += "    \"drain_notices\": " +
         std::to_string(result.client.drain_notices) + ",\n";
  out += "    \"slots\": " + std::to_string(result.client.slots) + ",\n";
  out += "    \"charged_slots\": " +
         std::to_string(result.client.charged_slots) + ",\n";
  out += "    \"arrived_bits\": " + json::Number(result.client.arrived_bits) +
         ",\n";
  out += "    \"lost_bits\": " + json::Number(result.client.lost_bits) + ",\n";
  out += "    \"loss_fraction\": " +
         json::Number(result.client.loss_fraction()) + ",\n";
  out += "    \"sent_bytes\": " + std::to_string(result.client.sent_bytes) +
         ",\n";
  out += "    \"proxy_dropped_loss\": " +
         std::to_string(result.proxy.dropped_loss) + ",\n";
  out += "    \"proxy_dropped_down\": " +
         std::to_string(result.proxy.dropped_down) + ",\n";
  out += "    \"proxy_dropped_late\": " +
         std::to_string(result.proxy.dropped_late) + ",\n";
  out += "    \"final_rate_bps\": " + json::Number(result.final_rate_bps) +
         ",\n";
  out += "    \"final_rung\": " + std::to_string(result.final_rung) + "\n";
  out += "  },\n";
  // The data bytes the server metered depend on which in-flight frames it
  // read around a crash or link-down: wall-clock timing, not the seeds.
  out += "  \"wall_clock\": {\n    \"server_data_bytes\": " +
         std::to_string(result.server.data_bytes) + "\n  },\n";
  out += "  \"session\": " + result.session.ToJsonArray("  ");
  if (options.client.recorder != nullptr) {
    const obs::MetricsSnapshot snapshot =
        options.client.recorder->metrics().Snapshot();
    if (!snapshot.empty()) {
      out += ",\n  \"obs_metrics\": " + snapshot.ToJson("  ");
    }
  }
  out += "\n}\n";
  return out;
}

}  // namespace rcbr::net
