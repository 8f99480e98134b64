// The exact percentile reference: the Fig. 2, 4 and 10 benches and the
// pingmesh tests measure with it. Every Analyzer percentile, SLA table and
// telemetry histogram comes from sketch::QuantileSketch instead.
#pragma once

#include <cstddef>
#include <vector>

namespace rpm {

/// Collects raw samples and answers percentile queries. Intended for bounded
/// windows (one bench run, one test); memory grows with the sample count.
class PercentileWindow {
 public:
  void add(double x) { samples_.push_back(x); }
  void clear() { samples_.clear(); }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// q in [0, 1]; q = 0.5 is the median. The sample of nearest rank
  /// q*(n-1); 0 when empty. Non-const because it partially sorts the sample
  /// buffer in place.
  [[nodiscard]] double percentile(double q);

  [[nodiscard]] double mean() const;

 private:
  std::vector<double> samples_;
};

}  // namespace rpm
