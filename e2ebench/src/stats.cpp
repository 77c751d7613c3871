#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace e2ebench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double windowed_percentile(const std::vector<double>& in_time_order, double q,
                           std::size_t per_window) {
  const std::size_t windows = std::clamp<std::size_t>(
      in_time_order.size() / std::max<std::size_t>(1, per_window), 1, 64);
  const std::size_t size = in_time_order.size() / windows;
  std::vector<double> figures;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = in_time_order.begin() + static_cast<long>(w * size);
    const auto end = w + 1 == windows ? in_time_order.end()
                                      : begin + static_cast<long>(size);
    figures.push_back(percentile(std::vector<double>(begin, end), q));
  }
  return percentile(std::move(figures), 50.0);
}

}  // namespace e2ebench
