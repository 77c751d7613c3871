#include "metrics/timeseries.hpp"

#include <algorithm>

namespace bifrost::metrics {

std::string SeriesKey::to_string() const {
  std::string out = name;
  if (labels.empty()) return out;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + v + "\"";
  }
  out += '}';
  return out;
}

bool Selector::matches(const SeriesKey& key) const {
  if (key.name != name) return false;
  for (const auto& [k, v] : matchers) {
    const auto it = key.labels.find(k);
    if (it == key.labels.end() || it->second != v) return false;
  }
  return true;
}

std::string Selector::to_string() const {
  SeriesKey key{name, matchers};
  return key.to_string();
}

void TimeSeriesStore::record(const std::string& name, const Labels& labels,
                             double time, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  series_[SeriesKey{name, labels}].push_back(Sample{time, value});
}

std::vector<std::pair<SeriesKey, Sample>> TimeSeriesStore::instant(
    const Selector& selector, double at_time, double lookback) const {
  std::vector<std::pair<SeriesKey, Sample>> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, samples] : series_) {
    if (!selector.matches(key)) continue;
    // Scan from the back: samples are appended in time order.
    for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
      if (it->time <= at_time) {
        if (it->time >= at_time - lookback) out.emplace_back(key, *it);
        break;
      }
    }
  }
  return out;
}

std::vector<std::pair<SeriesKey, std::vector<Sample>>> TimeSeriesStore::range(
    const Selector& selector, double at_time, double window) const {
  std::vector<std::pair<SeriesKey, std::vector<Sample>>> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, samples] : series_) {
    if (!selector.matches(key)) continue;
    std::vector<Sample> in_window;
    for (const Sample& s : samples) {
      if (s.time > at_time - window && s.time <= at_time) {
        in_window.push_back(s);
      }
    }
    if (!in_window.empty()) out.emplace_back(key, std::move(in_window));
  }
  return out;
}

double TimeSeriesStore::newest_sample_time() const {
  // Same back-to-front pick as instant(): per series, the last-appended
  // sample at or before 1e18, not the largest time in the series.
  const auto in_horizon = [](const Sample& s) { return s.time <= 1e18; };
  double newest = 0.0;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, samples] : series_) {
    const auto it = std::find_if(samples.rbegin(), samples.rend(), in_horizon);
    if (it != samples.rend()) newest = std::max(newest, it->time);
  }
  return newest;
}

std::vector<SeriesKey> TimeSeriesStore::series() const {
  std::vector<SeriesKey> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(series_.size());
  for (const auto& [key, samples] : series_) out.push_back(key);
  return out;
}

std::size_t TimeSeriesStore::series_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return series_.size();
}

std::size_t TimeSeriesStore::sample_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [key, samples] : series_) n += samples.size();
  return n;
}

void TimeSeriesStore::compact(double before) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, samples] : series_) {
    std::erase_if(samples,
                  [before](const Sample& s) { return s.time < before; });
  }
}

void TimeSeriesStore::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  series_.clear();
}

}  // namespace bifrost::metrics
