#include "obs/metrics.h"

#include "util/json.h"

namespace rcbr::obs {

namespace {

/// The instrument named `name`, registered on first use. The caller holds
/// the registry mutex; only a registration builds a std::string.
template <typename Instrument>
Instrument& Resolve(
    std::map<std::string, std::unique_ptr<Instrument>, std::less<>>& named,
    std::string_view name) {
  auto it = named.find(name);
  if (it == named.end()) {
    it = named.emplace(std::string(name), std::make_unique<Instrument>())
             .first;
  }
  return *it->second;
}

}  // namespace

void SpanHistogram::Record(double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  histogram_.Record(seconds);
}

LogHistogramValue SpanHistogram::value() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return histogram_.value();
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.spans) spans[name].Merge(value);
}

std::string MetricsSnapshot::ToJson(const std::string& indent) const {
  const std::string pad = indent + "  ";
  const std::string pad2 = pad + "  ";
  std::string out = "{";
  bool first_section = true;
  auto open_section = [&](const char* name) {
    if (!first_section) out += ",";
    first_section = false;
    out += "\n" + pad + json::Quote(name) + ": {";
  };

  if (!counters.empty()) {
    open_section("counters");
    bool first = true;
    for (const auto& [name, value] : counters) {
      out += first ? "\n" : ",\n";
      first = false;
      out += pad2 + json::Quote(name) + ": " + std::to_string(value);
    }
    out += "\n" + pad + "}";
  }
  if (!spans.empty()) {
    open_section("spans");
    bool first = true;
    for (const auto& [name, v] : spans) {
      out += first ? "\n" : ",\n";
      first = false;
      out += pad2 + json::Quote(name) +
             ": {\"count\": " + std::to_string(v.count) +
             ", \"underflow\": " + std::to_string(v.underflow) +
             ", \"min\": " + json::Number(v.min) +
             ", \"max\": " + json::Number(v.max) +
             ", \"sum\": " + json::Number(v.sum) +
             ", \"p50\": " + json::Number(v.Quantile(0.5)) +
             ", \"p90\": " + json::Number(v.Quantile(0.9)) +
             ", \"p99\": " + json::Number(v.Quantile(0.99)) +
             ", \"buckets\": [";
      for (std::size_t i = 0; i < v.buckets.size(); ++i) {
        if (i > 0) out += ", ";
        out += '[';
        out += json::Number(
            LogHistogram::BucketLowerBound(v.buckets[i].first));
        out += ", " + std::to_string(v.buckets[i].second) + "]";
      }
      out += "]}";
    }
    out += "\n" + pad + "}";
  }
  out += first_section ? "}" : "\n" + indent + "}";
  return out;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return Resolve(counters_, name);
}

SpanHistogram& MetricsRegistry::GetSpan(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return Resolve(spans_, name);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->value();
  }
  for (const auto& [name, span] : spans_) {
    LogHistogramValue value = span->value();
    if (value.count > 0) snapshot.spans.emplace(name, std::move(value));
  }
  return snapshot;
}

}  // namespace rcbr::obs
