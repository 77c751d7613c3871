// Small order statistics over samples (no histogram bucketing: every
// figure is taken from the raw samples).
#pragma once

#include <cstddef>
#include <vector>

namespace e2ebench {

/// Linear-interpolated percentile (q in [0, 100]) of `values`; 0 when
/// empty. Sorts a copy.
double percentile(std::vector<double> values, double q);

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Splits time-ordered samples into consecutive windows of at least
/// `per_window` samples (at most 64 windows), takes percentile q of each
/// window and returns the median of those: a stall that hits one window
/// moves one window's figure, not the result.
double windowed_percentile(const std::vector<double>& in_time_order, double q,
                           std::size_t per_window);

}  // namespace e2ebench
