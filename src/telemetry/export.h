// Exporter for MetricsRegistry snapshots: the Prometheus text exposition
// format, plus a PeriodicTask-driven dumper that snapshots the registry on
// the simulation clock (the sim-world stand-in for a scrape loop).
//
// The rendering is deterministic for a deterministic snapshot: families
// sorted by name, series by canonical label key, no timestamps, fixed float
// formatting. That is what makes golden-file tests of a fixed-seed run
// possible.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "sim/scheduler.h"
#include "telemetry/metrics.h"

namespace rpm::telemetry {

/// Prometheus text exposition format. Counters/gauges render one line per
/// series; histograms render as summaries (quantile series + _sum + _count).
std::string to_prometheus(const Snapshot& snap);

/// Periodically snapshots a registry on the simulated clock and hands the
/// Prometheus text to a sink (stdout, a file, a test buffer). This is the
/// simulated equivalent of a Prometheus scrape: examples hook it into the
/// cluster's scheduler next to the Analyzer's 20 s loop.
class PeriodicDumper {
 public:
  using Sink = std::function<void(const std::string&)>;

  PeriodicDumper(sim::Scheduler& sched, TimeNs period, Sink sink,
                 MetricsRegistry* reg = &registry());
  ~PeriodicDumper();

  void start(TimeNs first_delay = 0);
  void stop();
  [[nodiscard]] bool running() const;

  /// Snapshot + render + sink immediately (also what the periodic task runs).
  void dump_now();

  [[nodiscard]] std::uint64_t dumps() const { return dumps_; }

 private:
  MetricsRegistry* reg_;
  Sink sink_;
  std::uint64_t dumps_ = 0;
  sim::PeriodicTask task_;
};

}  // namespace rpm::telemetry
