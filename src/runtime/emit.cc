#include "runtime/emit.h"

#include <cstdio>
#include <fstream>

#include "util/error.h"
#include "util/json.h"

namespace rcbr::runtime {
namespace {

std::string JsonStringArray(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json::Quote(values[i]);
  }
  return out + "]";
}

// {"name": value, ...} with names and values aligned by index.
std::string JsonNamedValues(const std::vector<std::string>& names,
                            const std::vector<double>& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += json::Quote(names[i]) + ": " + json::Number(values[i]);
  }
  return out + "}";
}

std::string Serialize(const SweepResult& result, bool include_timings) {
  const SweepSpec& spec = result.spec;
  std::string out = "{\n";
  out += "  \"experiment\": " + json::Quote(spec.name) + ",\n";
  out += "  \"base_seed\": " + std::to_string(result.base_seed) + ",\n";
  if (include_timings) {
    out += "  \"threads\": " + std::to_string(result.threads) + ",\n";
    out +=
        "  \"total_seconds\": " + json::Number(result.total_seconds) + ",\n";
  }
  out += "  \"notes\": " + JsonStringArray(spec.notes) + ",\n";
  out += "  \"parameters\": " + JsonStringArray(spec.parameters) + ",\n";
  out += "  \"metrics\": " + JsonStringArray(spec.metrics) + ",\n";
  if (!result.metrics.empty()) {
    // Deterministic (sim-only) observability snapshot; kept in both
    // serializations, like the metric columns themselves.
    out += "  \"obs_metrics\": " + result.metrics.ToJson("  ") + ",\n";
  }
  out += "  \"points\": [\n";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const PointResult& point = result.points[i];
    out += "    {\"parameters\": " +
           JsonNamedValues(spec.parameters, point.parameters) +
           ",\n     \"metrics\": " +
           JsonNamedValues(spec.metrics, point.metrics) +
           ",\n     \"seed\": " + std::to_string(point.seed);
    if (include_timings) {
      out += ",\n     \"seconds\": " + json::Number(point.seconds);
    }
    out += i + 1 < result.points.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

// Writes `contents` to `<directory>/<file>`, returning the path; `what`
// names the public writer in the error messages.
std::string WriteArtifact(const std::string& what,
                          const std::string& directory,
                          const std::string& file,
                          const std::string& contents) {
  std::string path = directory.empty() ? "." : directory;
  if (path.back() != '/') path += '/';
  path += file;
  std::ofstream out(path);
  Require(out.good(), what + ": cannot open " + path);
  out << contents;
  out.close();
  Require(out.good(), what + ": write failed for " + path);
  return path;
}

}  // namespace

void PrintPreamble(const std::string& experiment,
                   const std::vector<std::string>& notes,
                   const std::vector<std::string>& columns) {
  std::printf("# experiment: %s\n", experiment.c_str());
  for (const std::string& note : notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("#");
  for (const std::string& column : columns) {
    std::printf(" %14s", column.c_str());
  }
  std::printf("\n");
}

void PrintRow(const std::vector<double>& values) {
  std::printf(" ");
  for (double v : values) {
    std::printf(" %14.6g", v);
  }
  std::printf("\n");
  std::fflush(stdout);
}

void PrintTable(const SweepResult& result) {
  const SweepSpec& spec = result.spec;
  std::vector<std::string> columns = spec.parameters;
  columns.insert(columns.end(), spec.metrics.begin(), spec.metrics.end());
  PrintPreamble(spec.name, spec.notes, columns);
  for (const PointResult& point : result.points) {
    std::vector<double> row = point.parameters;
    row.insert(row.end(), point.metrics.begin(), point.metrics.end());
    PrintRow(row);
  }
}

std::string ToJson(const SweepResult& result) {
  return Serialize(result, /*include_timings=*/true);
}

std::string ToJsonWithoutTimings(const SweepResult& result) {
  return Serialize(result, /*include_timings=*/false);
}

std::string WriteJson(const SweepResult& result,
                      const std::string& directory) {
  return WriteArtifact("WriteJson", directory,
                       "BENCH_" + result.spec.name + ".json",
                       ToJson(result));
}

std::string ToTraceJsonl(const SweepResult& result) {
  std::string out;
  for (const PointEvents& point : result.events) {
    obs::AppendJsonl(point.point, point.events, out);
    if (point.dropped > 0) {
      // A truncation marker keeps silent caps out of the trace.
      out += "{\"point\": " + std::to_string(point.point) +
             ", \"event\": \"trace_truncated\", \"dropped\": " +
             std::to_string(point.dropped) + "}\n";
    }
  }
  return out;
}

std::string WriteTrace(const SweepResult& result,
                       const std::string& directory) {
  return WriteArtifact("WriteTrace", directory,
                       "TRACE_" + result.spec.name + ".jsonl",
                       ToTraceJsonl(result));
}

std::string ToTimeSeriesJsonl(const SweepResult& result) {
  std::string out;
  for (const PointSeries& point : result.series) {
    const double window_s = point.series.window_s;
    for (const auto& [name, windows] : point.series.series) {
      for (const obs::SeriesWindow& w : windows) {
        const double t0 = static_cast<double>(w.window) * window_s;
        out += "{\"point\": " + std::to_string(point.point) +
               ", \"series\": " + json::Quote(name) +
               ", \"window\": " + std::to_string(w.window) +
               ", \"t0\": " + json::Number(t0) +
               ", \"t1\": " + json::Number(t0 + window_s) +
               ", \"n\": " + std::to_string(w.count) +
               ", \"sum\": " + json::Number(w.sum) +
               ", \"min\": " + json::Number(w.min) +
               ", \"max\": " + json::Number(w.max) +
               ", \"last\": " + json::Number(w.last) + "}\n";
      }
    }
  }
  return out;
}

std::string WriteTimeSeries(const SweepResult& result,
                            const std::string& directory) {
  return WriteArtifact("WriteTimeSeries", directory,
                       "TS_" + result.spec.name + ".jsonl",
                       ToTimeSeriesJsonl(result));
}

std::string ToFlightJsonl(const SweepResult& result) {
  std::string out;
  for (const PointFlight& point : result.flight) {
    obs::AppendFlightJsonl(point.point, point.dumps, point.suppressed, out);
  }
  return out;
}

std::string WriteFlight(const SweepResult& result,
                        const std::string& directory) {
  return WriteArtifact("WriteFlight", directory,
                       "FLIGHT_" + result.spec.name + ".jsonl",
                       ToFlightJsonl(result));
}

}  // namespace rcbr::runtime
