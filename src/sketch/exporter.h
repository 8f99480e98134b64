// SketchExporter: flushes a fabric's LinkSketchBank to the Analyzer once
// per upload interval (transport::kUploadInterval) over a transport
// Channel, like Agent uploads: monotone sequence numbers for receiver
// dedup, and the channel retries each report until it is acked (an outage
// costs only the reports its drop-oldest window evicts).
#pragma once

#include <cstdint>

#include "common/types.h"
#include "sim/scheduler.h"
#include "sketch/sketch.h"
#include "telemetry/metrics.h"
#include "transport/transport.h"

namespace rpm::sketch {

class SketchExporter {
 public:
  SketchExporter(sim::Scheduler& sched, transport::Channel& channel,
                 LinkSketchBank& bank);
  ~SketchExporter();
  SketchExporter(const SketchExporter&) = delete;
  SketchExporter& operator=(const SketchExporter&) = delete;

  void start();
  void stop();

  /// Flush the bank immediately (the periodic task calls this).
  void flush_now();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::uint64_t reports_sent() const { return reports_sent_; }

 private:
  sim::Scheduler& sched_;
  transport::Channel& channel_;
  LinkSketchBank& bank_;
  sim::PeriodicTask flush_task_;
  bool running_ = false;
  std::uint64_t next_seq_ = 1;
  std::uint64_t reports_sent_ = 0;
  TimeNs period_start_ = 0;
  telemetry::Counter m_reports_ = telemetry::registry().counter(
      "rpm_sketch_reports_total", "Sketch reports by processing result",
      {{"result", "flushed"}});
  telemetry::Counter m_bytes_ = telemetry::registry().counter(
      "rpm_sketch_bytes_total", "Wire bytes of flushed sketch reports");
};

}  // namespace rpm::sketch
