// SketchExporter: flushes a fabric's LinkSketchBank to the Analyzer once
// per upload interval over a transport Channel, with the same delivery
// discipline as Agent uploads (transport::kUploadInterval and friends) —
// monotone sequence numbers for receiver dedup, application-level requeue
// on transport expiry, and a bounded spill ring (oldest dropped) drained
// when the channel acks again after an outage.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

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
  [[nodiscard]] std::size_t spill_depth() const { return spill_.size(); }
  [[nodiscard]] std::uint64_t spill_drops() const { return spill_drops_; }

 private:
  void send_report(SketchReport&& rep);
  void on_expired(std::uint64_t chan_seq, std::any& payload);
  void on_acked();
  void spill_report(SketchReport&& rep);
  void drain_spill();

  sim::Scheduler& sched_;
  transport::Channel& channel_;
  LinkSketchBank& bank_;
  sim::PeriodicTask flush_task_;
  bool running_ = false;
  std::uint64_t epoch_ = 0;  // invalidates deferred resends across stop()
  std::uint64_t next_seq_ = 1;
  std::uint64_t reports_sent_ = 0;
  std::uint64_t spill_drops_ = 0;
  TimeNs period_start_ = 0;
  std::deque<SketchReport> spill_;  // ascending seq
  bool drain_pending_ = false;
  telemetry::Counter m_reports_ = telemetry::registry().counter(
      "rpm_sketch_reports_total", "Sketch reports by processing result",
      {{"result", "flushed"}});
  telemetry::Counter m_bytes_ = telemetry::registry().counter(
      "rpm_sketch_bytes_total", "Wire bytes of flushed sketch reports");
};

}  // namespace rpm::sketch
