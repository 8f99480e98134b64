// Pipeline wall-clock stage profiler.
//
// Sim-time metrics and the flight recorder explain *causality*; neither says
// where wall-clock time actually goes between submit and verdict. This
// module does: a fixed enum of pipeline stages (event dispatch, ingest
// submit, the analyze_period sub-stages, digest flush, global merge,
// transport delivery), each measured with std::chrono::
// steady_clock by a RAII `StageScope`, and accumulated into one buffer of
// per-stage count/total/min/max plus a `sketch::QuantileSketch` for
// p50/p99. Like the event loop it observes, it is single-threaded by
// contract (DESIGN §5b): nothing here locks.
//
// Design constraints (shared with the flight recorder):
//  * Always compiled, one branch when disabled: StageScope's constructor
//    reads one bool when the profiler is off — no allocation, no clock read
//    (tests/test_prof pins this).
//  * Wall time NEVER feeds simulation decisions. The profiler only observes;
//    profiler on vs off produces byte-identical verdicts/SLA/ChaosReport
//    output (tests/test_prof pins this too).
//
// Outputs: `rpm_prof_stage_*{stage}` metrics (registry collector, installed
// while enabled), `ProfileReport::write_json()` dumps, and
// `write_chrome_events()` — a chrome://tracing track (pid 3, tid 0,
// wall-clock timeline) that obs::write_chrome_trace() puts next to the
// flight recorder's sim-time tracks. sim.dispatch samples feed the stats but
// not the track. The profiler writes nothing into the flight recorder, so
// wall time never reaches the sim-time record.
//
// The period-close watchdog: `PeriodCloseScope` wraps one Analyzer period
// close (verdict -> digest -> checkpoint) or GlobalAnalyzer merge. When the
// close exceeds `ProfilerConfig::period_close_budget`, it bumps
// `rpm_prof_budget_overruns_total` and puts a "budget-overrun" instant on
// the pid-3 track carrying the close's wall ns and its top-cost stage.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
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
  kIngestSubmit,        // IngestSink submit, the Analyzer's fold included
  kDrainTriage,         // analyze_period: steps 1-3 over the period tables
  kDrainVote,           // analyze_period: emission, Algorithm-1 localization
  kDrainBottleneck,     // analyze_period: RTT + processing-delay verdicts
  kDrainSla,            // analyze_period: SLA tables from their digests
  kDrainImpact,         // analyze_period: service networks + impact
  kDrainDiaglog,        // period-end history/diagnosis/journal bookkeeping
  kDigestFlush,         // a pod's Analyzer built + sent one PodDigest
  kGlobalMerge,         // GlobalAnalyzer merged the pending digests
  kTransportDeliver,    // one Channel handler invocation
  kSketchFlush,         // recorded by nothing (perfbench still names it)
  kPeriodClose,         // whole Analyzer close: verdict -> checkpoint
};
inline constexpr std::size_t kNumStages = 13;

/// Dotted display name, e.g. "sim.dispatch", "drain.vote".
const char* stage_name(Stage s);

/// Statistics of one stage's samples.
struct StageStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;  // 0 when count == 0
  std::uint64_t max_ns = 0;
  sketch::QuantileSketch sketch;  // per-sample duration, ns

  [[nodiscard]] double p50_ns() const { return sketch.quantile(0.5); }
  [[nodiscard]] double p99_ns() const { return sketch.quantile(0.99); }
};

/// A copy of the profiler's stage statistics and drop counts.
struct ProfileReport {
  std::array<StageStats, kNumStages> stages;
  std::uint64_t budget_overruns = 0;
  std::uint64_t trace_events_dropped = 0;

  [[nodiscard]] const StageStats& stage(Stage s) const {
    return stages[static_cast<std::size_t>(s)];
  }
  /// [{"stage":...,"count":...,"total_ns":...,"min_ns":...,"max_ns":...,
  ///   "p50_ns":...,"p99_ns":...},...], one row per stage; `nonempty_only`
  /// skips the stages without samples.
  void write_stage_rows(json::Writer& w, bool nonempty_only = false) const;
  /// {"stages":<every row>,"budget_overruns":N,"trace_events_dropped":N}
  void write_json(json::Writer& w) const;
  /// write_json() into a string.
  [[nodiscard]] std::string to_json() const;
};

struct ProfilerConfig {
  /// Wall budget for one period close; 0 disables the watchdog.
  TimeNs period_close_budget = 0;
  /// Cap on buffered chrome://tracing events (0 = no track; stage
  /// statistics are always collected). Overflow is counted, not kept.
  /// sim.dispatch samples never enter the track.
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
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Turn profiling on. Every enable() starts from an empty profile: it
  /// clears the stage statistics, the trace and its drop count, the overrun
  /// counter and the last close, resets the trace epoch, and (re-)installs
  /// the metrics collector.
  void enable(ProfilerConfig cfg = {});
  void disable();
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const ProfilerConfig& config() const { return cfg_; }

  /// Fold a measured duration into the stage's statistics. One branch when
  /// disabled. Used directly by callers that already hold a duration
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

  /// Copy of the statistics recorded since enable(). Readable while enabled
  /// and after disable().
  [[nodiscard]] ProfileReport report() const;

  /// chrome://tracing events, written into the writer's open array: one
  /// track (pid 3, tid 0) of 'X' stage spans and thread-scoped
  /// "budget-overrun" instants, ts = wall microseconds since enable(). See
  /// obs::write_chrome_trace().
  void write_chrome_events(json::Writer& w) const;
  /// write_chrome_events() as one JSON array.
  [[nodiscard]] std::string chrome_events() const;

  [[nodiscard]] std::uint64_t budget_overruns() const { return overruns_; }
  [[nodiscard]] PeriodCloseInfo last_period_close() const {
    return last_close_;
  }

 private:
  friend class PeriodCloseScope;

  /// A stage span, or a budget-overrun instant at `start_ns` whose `dur_ns`
  /// is the close's wall time and `stage` its top-cost stage.
  struct TraceEvent {
    Stage stage;
    std::uint64_t start_ns;  // wall ns since enable()
    std::uint64_t dur_ns;
    bool overrun = false;
  };

  void record_slow(Stage s, std::uint64_t ns);
  [[nodiscard]] std::uint64_t since_epoch() const;
  /// True when the trace may take one more event; counts the drop if not.
  bool trace_room();
  /// Per-stage total_ns, for per-close deltas.
  [[nodiscard]] std::array<std::uint64_t, kNumStages> stage_totals() const;
  void note_period_close(std::uint64_t wall_ns,
                         const std::array<std::uint64_t, kNumStages>& before);
  void export_metrics_to(telemetry::MetricsRegistry& reg);

  bool enabled_ = false;
  std::uint64_t overruns_ = 0;
  ProfilerConfig cfg_;
  std::chrono::steady_clock::time_point epoch_{};  // enable() time

  std::array<StageStats, kNumStages> stats_;
  std::vector<TraceEvent> trace_;
  std::uint64_t trace_dropped_ = 0;
  PeriodCloseInfo last_close_;
  telemetry::Counter m_overruns_;
  telemetry::CollectorGuard collector_;
};

/// The process-wide profiler every built-in instrumentation point uses —
/// mirrors obs::recorder().
Profiler& profiler();

/// RAII stage measurement. Constructor cost when the profiler is disabled:
/// one bool load and a branch — no allocation, no clock read.
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
/// the top-cost stage of this close (last_period_close()) and — when the
/// configured budget is exceeded — bumps rpm_prof_budget_overruns_total and
/// adds a "budget-overrun" instant to the pid-3 track.
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
