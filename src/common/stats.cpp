#include "common/stats.h"

#include <algorithm>
#include <numeric>

namespace rpm {

double PercentileWindow::percentile(double q) {
  if (samples_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples_.size() - 1) + 0.5);
  auto nth = samples_.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(samples_.begin(), nth, samples_.end());
  return *nth;
}

double PercentileWindow::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

}  // namespace rpm
