#include "obs/time_series.h"

#include <algorithm>
#include <cmath>

namespace rcbr::obs {

void TimeSeries::Sample(double t, double value) {
  const auto idx = static_cast<std::int64_t>(std::floor(t / window_s_));
  std::lock_guard<std::mutex> lock(mutex_);
  if (windows_.empty() || idx > windows_.back().window) {
    windows_.push_back(SeriesWindow{idx});
    windows_.back().Observe(value);
    return;
  }
  if (idx == windows_.back().window) {
    windows_.back().Observe(value);
    return;
  }
  // Rare out-of-order sample: binary-search the sorted window list.
  auto it = std::lower_bound(
      windows_.begin(), windows_.end(), idx,
      [](const SeriesWindow& w, std::int64_t i) { return w.window < i; });
  if (it == windows_.end() || it->window != idx) {
    it = windows_.insert(it, SeriesWindow{idx});
  }
  it->Observe(value);
}

std::vector<SeriesWindow> TimeSeries::Windows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return windows_;
}

TimeSeries& TimeSeriesSampler::GetSeries(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(std::string(name),
                         std::make_unique<TimeSeries>(window_s_))
             .first;
  }
  return *it->second;
}

TimeSeriesSnapshot TimeSeriesSampler::Snapshot() const {
  TimeSeriesSnapshot snapshot;
  snapshot.window_s = window_s_;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, series] : series_) {
    auto windows = series->Windows();
    if (!windows.empty()) snapshot.series.emplace(name, std::move(windows));
  }
  return snapshot;
}

}  // namespace rcbr::obs
