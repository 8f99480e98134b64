// Pipeline wall-clock stage profiler.
//
// Sim-time metrics and the flight recorder explain *causality*; neither says
// where wall-clock time actually goes between submit and verdict. This
// module does: a fixed enum of pipeline stages (event dispatch, ingest
// submit, the analyze_period sub-stages, digest flush, global merge,
// transport delivery, sketch flush), each measured with std::chrono::
// steady_clock by a RAII `StageScope`, accumulated in per-thread buffers —
// a recording thread never touches another thread's state — and folded on
// demand into per-stage count/total/min/max plus a mergeable
// `sketch::QuantileSketch` for p50/p99.
//
// Design constraints (shared with the flight recorder):
//  * Always compiled, one branch when disabled: StageScope's constructor is
//    a single relaxed atomic load when the profiler is off — no allocation,
//    no clock read (tests/test_prof pins this).
//  * Wall time NEVER feeds simulation decisions. The profiler only observes;
//    profiler on vs off produces byte-identical verdicts/SLA/ChaosReport
//    output (tests/test_prof pins this too).
//  * Deterministic folds: count/total/min/max are order-independent integer
//    reductions and QuantileSketch::merge is commutative + associative, so
//    the folded report does not depend on thread registration order.
//
// Outputs: `rpm_prof_stage_*{stage}` metrics (registry collector, installed
// while enabled), `ProfileReport::to_json()` dumps, and `chrome_events()` —
// per-thread chrome://tracing tracks (pid 3, wall-clock timeline) that
// obs::chrome_trace() puts next to the flight recorder's sim-time tracks.
// sim.dispatch samples feed the stats but not the tracks.
//
// The period-close watchdog: `PeriodCloseScope` wraps one Analyzer period
// close (drain -> verdict -> checkpoint) or GlobalAnalyzer merge. When the
// close exceeds `ProfilerConfig::period_close_budget`, it bumps
// `rpm_prof_budget_overruns_total` and emits a "budget-overrun" flight-
// recorder marker naming the top-cost stage of that close.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"
#include "sketch/sketch.h"
#include "telemetry/metrics.h"

namespace rpm::sim {
class Scheduler;
}  // namespace rpm::sim

namespace rpm::prof {

/// The fixed stage set. Stages nest naturally (everything below
/// kSimDispatch runs inside a dispatched event; the drain.* stages run
/// inside period.close), so totals overlap by design — this is a
/// hierarchical profile, not a partition.
enum class Stage : std::uint8_t {
  kSimDispatch = 0,     // one Scheduler callback execution
  kIngestSubmit,        // IngestSink submit
  kDrainTriage,         // analyze_period: classify + rnic_detect + attribute
  kDrainVote,           // analyze_period: Algorithm-1 localization
  kDrainBottleneck,     // analyze_period: bottleneck scan
  kDrainSla,            // analyze_period: SLA percentile tables
  kDrainImpact,         // analyze_period: P0/P1/P2 impact assessment
  kDrainDiaglog,        // period-end history/diagnosis/journal bookkeeping
  kDigestFlush,         // PodAnalyzer built + sent one PodDigest
  kGlobalMerge,         // GlobalAnalyzer merged the pending digests
  kTransportDeliver,    // one Channel handler invocation
  kSketchFlush,         // SketchExporter flushed a period's link sketches
  kPeriodClose,         // whole Analyzer close: drain -> verdict -> checkpoint
};
inline constexpr std::size_t kNumStages = 13;

/// Dotted display name, e.g. "sim.dispatch", "drain.vote".
const char* stage_name(Stage s);

/// Folded statistics for one stage.
struct StageStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;  // 0 when count == 0
  std::uint64_t max_ns = 0;
  sketch::QuantileSketch sketch;  // per-sample duration, ns

  [[nodiscard]] double p50_ns() const { return sketch.quantile(0.5); }
  [[nodiscard]] double p99_ns() const { return sketch.quantile(0.99); }
  void merge(const StageStats& o);
};

/// One deterministic fold of every thread buffer.
struct ProfileReport {
  std::array<StageStats, kNumStages> stages;
  std::uint64_t budget_overruns = 0;
  std::uint64_t trace_events_dropped = 0;

  [[nodiscard]] const StageStats& stage(Stage s) const {
    return stages[static_cast<std::size_t>(s)];
  }
  /// {"stages":[{"stage":...,"count":...,"total_ns":...,"min_ns":...,
  ///  "max_ns":...,"p50_ns":...,"p99_ns":...},...],
  ///  "budget_overruns":N,"trace_events_dropped":N}
  [[nodiscard]] std::string to_json() const;
};

struct ProfilerConfig {
  /// Wall budget for one period close; 0 disables the watchdog.
  TimeNs period_close_budget = 0;
  /// Per-thread cap on buffered chrome://tracing events (0 = no tracks;
  /// stage statistics are always collected). Overflow is counted, not kept.
  /// sim.dispatch samples never enter the tracks.
  std::size_t max_trace_events = 4096;
};

/// Most recent period close observed by a PeriodCloseScope.
struct PeriodCloseInfo {
  std::uint64_t seq = 0;  // closes observed since enable(); 0 = none yet
  std::uint64_t wall_ns = 0;
  Stage top_stage = Stage::kPeriodClose;  // largest per-stage delta
  bool overrun = false;
};

class Profiler {
 public:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Turn profiling on. Re-enabling resets all buffers, the overrun counter,
  /// and the trace epoch, and (re-)installs the metrics collector.
  void enable(ProfilerConfig cfg = {});
  void disable();
  /// Acquire pairs with enable()'s release store so a recording thread that
  /// observes `true` also observes the freshly reset epoch/config (free on
  /// x86; a plain load-acquire on ARM).
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const ProfilerConfig& config() const { return cfg_; }

  /// Fold a measured duration into the calling thread's buffer. One branch
  /// when disabled. Used directly by callers that already hold a duration
  /// (scheduler dispatch hook, analyze_period's stage transitions);
  /// everything else uses StageScope.
  void record(Stage s, std::uint64_t ns) {
    if (!enabled()) return;
    record_slow(s, ns);
  }

  /// Install a dispatch observer on `sched` that folds every executed
  /// event's wall cost into sim.dispatch. The observer stays installed (and
  /// keeps paying two clock reads per event) until detach_scheduler; it
  /// records nothing while the profiler is disabled.
  void attach_scheduler(sim::Scheduler& sched);
  static void detach_scheduler(sim::Scheduler& sched);

  /// Deterministic fold of every thread buffer (order-independent).
  /// Readable while enabled and after disable().
  [[nodiscard]] ProfileReport report() const;

  /// Comma-joined chrome://tracing 'X' events — one track per recording
  /// thread (pid 3, tid = registration index), ts = wall microseconds since
  /// enable(). Feed to obs::chrome_trace().
  [[nodiscard]] std::string chrome_events() const;

  [[nodiscard]] std::uint64_t budget_overruns() const {
    return overruns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] PeriodCloseInfo last_period_close() const;
  [[nodiscard]] std::size_t num_thread_buffers() const;

 private:
  friend class PeriodCloseScope;
  struct ThreadBuf;

  void record_slow(Stage s, std::uint64_t ns);
  ThreadBuf* local_buf();
  /// count/total only (cheap), for per-close deltas.
  void fold_totals(std::array<std::uint64_t, kNumStages>& totals) const;
  void note_period_close(std::uint64_t wall_ns,
                         const std::array<std::uint64_t, kNumStages>& before);
  void export_metrics_to(telemetry::MetricsRegistry& reg);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{0};  // bumped per enable()
  std::atomic<std::uint64_t> overruns_{0};
  ProfilerConfig cfg_;
  std::chrono::steady_clock::time_point epoch_{};  // enable() time

  mutable std::mutex mu_;  // guards bufs_ vector + last_close_ + collector
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  PeriodCloseInfo last_close_;
  telemetry::Counter m_overruns_;
  telemetry::CollectorGuard collector_;
};

/// The process-wide profiler every built-in instrumentation point uses —
/// mirrors obs::recorder().
Profiler& profiler();

/// RAII stage measurement. Constructor cost when the profiler is disabled:
/// one relaxed atomic load and a branch — no allocation, no clock read.
class StageScope {
 public:
  explicit StageScope(Stage s) {
    Profiler& p = profiler();
    if (!p.enabled()) return;
    prof_ = &p;
    stage_ = s;
    t0_ = std::chrono::steady_clock::now();
  }
  ~StageScope() {
    if (prof_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0_)
                        .count();
    prof_->record(stage_, static_cast<std::uint64_t>(ns));
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  Profiler* prof_ = nullptr;
  Stage stage_{};
  std::chrono::steady_clock::time_point t0_{};
};

/// RAII watchdog around one period close (Analyzer::analyze_now,
/// GlobalAnalyzer::merge_now). Records the close's wall cost as
/// Stage::kPeriodClose; on destruction it diffs per-stage totals to name
/// the top-cost stage of this close, emits a "period-close" flight-recorder
/// marker, and — when the configured budget is exceeded — bumps
/// rpm_prof_budget_overruns_total and emits a "budget-overrun" marker.
class PeriodCloseScope {
 public:
  PeriodCloseScope();
  ~PeriodCloseScope();
  PeriodCloseScope(const PeriodCloseScope&) = delete;
  PeriodCloseScope& operator=(const PeriodCloseScope&) = delete;

 private:
  Profiler* prof_ = nullptr;
  std::chrono::steady_clock::time_point t0_{};
  std::array<std::uint64_t, kNumStages> totals0_{};
};

}  // namespace rpm::prof
