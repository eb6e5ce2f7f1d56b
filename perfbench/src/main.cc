// rcbr_perfbench: the repository benchmark driver (see README.md).
//
//   rcbr_perfbench --workload NAME --seed N [--seconds N] [--trace 0|1]
//
// Prints a detail line ({"perfbench": ...}: fingerprint, the workload's own
// metric names, checks) and, last, one JSON object with exactly the keys
// correct, attempted, failed and metrics. Untraced runs report the
// end-to-end metrics; traced runs report the per-layer ledger. Malformed
// arguments exit 2; a sanitizer build refuses to report and exits 3.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::MetricMap;
using perfbench::Outcome;
using perfbench::RunConfig;

struct LayerSpec {
  const char* name;
  const char* unit;
};

// Every per-layer metric a traced run prints, whatever the workload.
// Families a workload does not exercise are filled by that family's probe.
const LayerSpec kLayers[] = {
    {"sim.engine.ns_per_event", "ns"},
    {"sim.engine.event_queue.ns_per_op", "ns"},
    {"sim.engine.event_queue.peak_pending", "count"},
    {"sim.engine.call_store.ns_per_event", "ns"},
    {"sim.engine.call_store.peak_slots", "count"},
    {"sim.engine.residual_ns_per_event", "ns"},
    {"signaling.port_controller.ns_per_cell", "ns"},
    {"signaling.path.ns_per_request", "ns"},
    {"signaling.lossy.ns_per_reneg", "ns"},
    {"signaling.rollback_ratio", "ratio"},
    {"port.delta_accepted", "count"},
    {"port.delta_denied", "count"},
    {"signaling.cells_lost", "count"},
    {"signaling.resyncs", "count"},
    {"admission.ns_per_decision", "ns"},
    {"admission.ns_per_update", "ns"},
    {"admission.accept_ratio", "ratio"},
    {"admission.time_share", "ratio"},
    {"obs.trace_overhead_frac", "ratio"},
    {"net.wire.encode_ns.data", "ns"},
    {"net.wire.encode_ns.control", "ns"},
    {"net.wire.decode_ns.data", "ns"},
    {"net.wire.decode_ns.control", "ns"},
    {"net.socket.send_us", "us"},
    {"net.socket.recv_us", "us"},
    {"net.client.wait_us", "us"},
    {"net.server.turnaround_us", "us"},
    {"net.port_controller.ns_per_cell", "ns"},
    {"net.deny_ratio", "ratio"},
    {"net.frames_in", "count"},
    {"net.grants", "count"},
    {"net.denies", "count"},
    {"net.data_bytes", "count"},
    {"net.protocol_errors", "count"},
    {"net.grants_per_s", "1/s"},
    {"net.data_mb_per_s", "MB/s"},
    {"net.trace_overhead_frac", "ratio"},
    {"core.dp.ns_per_node", "ns"},
    {"core.dp.retained_ratio", "ratio"},
    {"core.dp.total_nodes", "count"},
    {"core.dp.peak_live_nodes", "count"},
    {"core.dp.peak_resident_nodes", "count"},
    {"core.dp.recomputed_epochs", "count"},
    {"core.dp.parallel_speedup", "ratio"},
    {"core.dp.serial_solve_s", "s"},
    {"core.dp.parallel_solve_s", "s"},
    {"core.dp.setup_solve_s", "s"},
    {"trace.synth_s", "s"},
};

const char* const kEndToEnd[] = {"work_per_s", "setup_s", "peak_rss_mb"};

struct Workload {
  const char* name;
  void (*run)(const RunConfig&, Outcome&);
};

const Workload kWorkloads[] = {
    {"engine_scale", perfbench::RunEngineScale},
    {"engine_mbac", perfbench::RunEngineMbac},
    {"daemon_loopback", perfbench::RunDaemonLoopback},
    {"dp_offline", perfbench::RunDpOffline},
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "rcbr_perfbench: %s\nusage: rcbr_perfbench --workload "
               "{engine_scale|engine_mbac|daemon_loopback|dp_offline} "
               "--seed N [--seconds N] [--trace 0|1]\n",
               why.c_str());
  std::exit(2);
}

bool ParseUint(const char* text, std::uint64_t max, std::uint64_t* out) {
  if (text == nullptr || *text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v > max) return false;
  *out = v;
  return true;
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  config.seconds = 10;
  bool have_workload = false;
  bool have_seed = false;
  std::set<std::string> seen;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    if (!seen.insert(flag).second) Usage("repeated flag " + flag);
    const char* value = argv[i + 1];
    std::uint64_t v = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = false;
      for (const Workload& w : kWorkloads) {
        if (config.workload == w.name) have_workload = true;
      }
      if (!have_workload) Usage("unknown workload '" + config.workload + "'");
    } else if (flag == "--seed") {
      if (!ParseUint(value, UINT64_MAX, &v)) Usage("malformed --seed");
      config.seed = v;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, 600, &v) || v == 0) Usage("malformed --seconds");
      config.seconds = static_cast<int>(v);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace must be 0 or 1");
      }
      config.trace = value[0] == '1';
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!have_seed) Usage("--seed is required");
  return config;
}

std::string Quote(const std::string& s) {
  std::string q = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      q += '\\';
      q += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      q += buf;
    } else {
      q += c;
    }
  }
  return q + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Metrics(const MetricMap& m) {
  std::string s = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) s += ", ";
    first = false;
    s += Quote(name) + ": {\"value\": " + Number(metric.value) +
         ", \"unit\": " + Quote(metric.unit) + "}";
  }
  return s + "}";
}

/// Fills the layer families the workload did not measure from probes.
void FillFromProbes(const RunConfig& config, Outcome& out) {
  struct Family {
    std::vector<const char*> prefixes;
    void (*probe)(std::uint64_t, MetricMap&, Outcome&);
  };
  const Family families[] = {
      {{"sim.", "signaling.", "port.", "admission.", "obs."},
       perfbench::ProbeEngineLayers},
      {{"net."}, perfbench::ProbeNetLayers},
      {{"core.", "trace."}, perfbench::ProbeDpLayers},
  };
  for (const Family& family : families) {
    std::vector<std::string> missing;
    for (const LayerSpec& spec : kLayers) {
      const std::string name = spec.name;
      if (out.layers.count(name) != 0) continue;
      for (const char* prefix : family.prefixes) {
        if (name.rfind(prefix, 0) == 0) missing.push_back(name);
      }
    }
    if (missing.empty()) continue;
    MetricMap probe;
    family.probe(config.seed, probe, out);
    for (const std::string& name : missing) {
      const auto it = probe.find(name);
      if (it == probe.end()) continue;
      out.layers[name] = it->second;
      out.probed.push_back(name);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig config = ParseArgs(argc, argv);
  if (perfbench::SanitizerBuild()) {
    std::fprintf(stderr,
                 "rcbr_perfbench: refusing to report from a sanitizer "
                 "build\n");
    return 3;
  }
  Outcome out;
  try {
    for (const Workload& w : kWorkloads) {
      if (config.workload == w.name) w.run(config, out);
    }
    if (config.trace) FillFromProbes(config, out);
  } catch (const std::exception& e) {
    out.Check(false, std::string("exception: ") + e.what());
  }

  MetricMap final_metrics;
  if (config.trace) {
    for (const LayerSpec& spec : kLayers) {
      const auto it = out.layers.find(spec.name);
      const bool ok = it != out.layers.end() &&
                      it->second.unit == spec.unit &&
                      std::isfinite(it->second.value);
      out.Check(ok, std::string("per-layer metric missing: ") + spec.name);
      final_metrics[spec.name] =
          ok ? it->second : perfbench::Metric{0.0, spec.unit};
    }
  } else {
    out.end_to_end["peak_rss_mb"] = {perfbench::PeakRssMb(), "MB"};
    out.named["peak_rss_mb"] = out.end_to_end["peak_rss_mb"];
    for (const char* name : kEndToEnd) {
      const auto it = out.end_to_end.find(name);
      const bool ok = it != out.end_to_end.end() &&
                      std::isfinite(it->second.value) && it->second.value > 0;
      out.Check(ok, std::string("end-to-end metric missing: ") + name);
      final_metrics[name] =
          ok ? it->second : perfbench::Metric{0.0, ""};
    }
  }
  out.named["op_failure_ratio"] = {
      out.attempted > 0 ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 0.0,
      "ratio"};

  std::string detail = "{\"perfbench\": {\"workload\": " +
                       Quote(config.workload) +
                       ", \"seed\": " + std::to_string(config.seed) +
                       ", \"seconds\": " + std::to_string(config.seconds) +
                       ", \"trace\": " + (config.trace ? "1" : "0") +
                       ", \"fingerprint\": {";
  bool first = true;
  for (const auto& [k, v] : perfbench::Fingerprint()) {
    if (!first) detail += ", ";
    first = false;
    detail += Quote(k) + ": " + Quote(v);
  }
  detail += "}, \"metrics\": " + Metrics(out.named) + ", \"probed\": [";
  for (std::size_t i = 0; i < out.probed.size(); ++i) {
    detail += (i ? ", " : "") + Quote(out.probed[i]);
  }
  detail += "], \"notes\": {";
  first = true;
  for (const auto& [k, v] : out.notes) {
    if (!first) detail += ", ";
    first = false;
    detail += Quote(k) + ": " + Quote(v);
  }
  detail += "}, \"failures\": [";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    detail += (i ? ", " : "") + Quote(out.failures[i]);
  }
  detail += "]}}";
  std::printf("%s\n", detail.c_str());

  const std::int64_t attempted = out.attempted > 0 ? out.attempted : 1;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      out.correct() ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(out.failed), Metrics(final_metrics).c_str());
  std::fflush(stdout);
  return 0;
}
