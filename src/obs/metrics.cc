#include "obs/metrics.h"

#include <algorithm>

#include "util/json.h"

namespace rcbr::obs {

void GaugeValue::Observe(double x) {
  if (count == 0) {
    min = x;
    max = x;
  } else {
    min = std::min(min, x);
    max = std::max(max, x);
  }
  ++count;
  last = x;
  sum += x;
}

void GaugeValue::Merge(const GaugeValue& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
  last = other.last;
}

void Gauge::Set(double x) {
  std::lock_guard<std::mutex> lock(mutex_);
  value_.Observe(x);
}

GaugeValue Gauge::value() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return value_;
}

void SpanHistogram::Record(double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (seen_ % sample_every_ == 0) histogram_.Record(seconds);
  ++seen_;
}

SpanValue SpanHistogram::value() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {histogram_.value(), seen_};
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.gauges) gauges[name].Merge(value);
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
  if (!gauges.empty()) {
    open_section("gauges");
    bool first = true;
    for (const auto& [name, g] : gauges) {
      out += first ? "\n" : ",\n";
      first = false;
      out += pad2 + json::Quote(name) + ": {\"count\": " +
             std::to_string(g.count) + ", \"last\": " + json::Number(g.last) +
             ", \"sum\": " + json::Number(g.sum) +
             ", \"min\": " + json::Number(g.min) +
             ", \"max\": " + json::Number(g.max) + "}";
    }
    out += "\n" + pad + "}";
  }
  if (!spans.empty()) {
    open_section("spans");
    bool first = true;
    for (const auto& [name, s] : spans) {
      out += first ? "\n" : ",\n";
      first = false;
      const LogHistogramValue& v = s.value;
      out += pad2 + json::Quote(name) + ": {\"seen\": " +
             std::to_string(s.seen) +
             ", \"count\": " + std::to_string(v.count) +
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
        out += "[" + json::Number(LogHistogram::BucketLowerBound(
                         v.buckets[i].first)) +
               ", " + std::to_string(v.buckets[i].second) + "]";
      }
      out += "]}";
    }
    out += "\n" + pad + "}";
  }
  out += first_section ? "}" : "\n" + indent + "}";
  return out;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

SpanHistogram& MetricsRegistry::GetSpan(const std::string& name,
                                        std::int64_t sample_every) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = spans_[name];
  if (slot == nullptr) slot = std::make_unique<SpanHistogram>(sample_every);
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->value();
  }
  for (const auto& [name, span] : spans_) {
    SpanValue value = span->value();
    if (value.seen > 0) snapshot.spans.emplace(name, std::move(value));
  }
  return snapshot;
}

}  // namespace rcbr::obs
