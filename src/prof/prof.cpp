// Pipeline wall-clock stage profiler — implementation. See prof.h for the
// contract: one branch when disabled, one buffer, wall time never feeding
// sim decisions.
#include "prof/prof.h"

#include <algorithm>

#include "obs/chrome_trace.h"
#include "sim/scheduler.h"

namespace rpm::prof {
namespace {

constexpr const char* kStageNames[kNumStages] = {
    "sim.dispatch",  "ingest.submit",     "drain.triage",
    "drain.vote",    "drain.bottleneck",  "drain.sla",
    "drain.impact",  "drain.diaglog",     "digest.flush",
    "global.merge",  "transport.deliver", "sketch.flush",
    "period.close",
};

}  // namespace

const char* stage_name(Stage s) {
  const auto i = static_cast<std::size_t>(s);
  return i < kNumStages ? kStageNames[i] : "?";
}

void ProfileReport::write_stage_rows(json::Writer& w,
                                     bool nonempty_only) const {
  w.begin_array();
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const StageStats& st = stages[i];
    if (nonempty_only && st.count == 0) continue;
    w.begin_object()
        .key("stage").string(kStageNames[i])
        .key("count").integer(st.count)
        .key("total_ns").integer(st.total_ns)
        .key("min_ns").integer(st.min_ns)
        .key("max_ns").integer(st.max_ns)
        .key("p50_ns").fixed(st.p50_ns(), 1)
        .key("p99_ns").fixed(st.p99_ns(), 1)
        .end_object();
  }
  w.end_array();
}

void ProfileReport::write_json(json::Writer& w) const {
  w.begin_object();
  write_stage_rows(w.key("stages"));
  w.key("budget_overruns").integer(budget_overruns)
      .key("trace_events_dropped").integer(trace_events_dropped)
      .end_object();
}

std::string ProfileReport::to_json() const {
  return json::to_string([this](json::Writer& w) { write_json(w); });
}

void Profiler::enable(ProfilerConfig cfg) {
  disable();
  cfg_ = cfg;
  stats_ = {};
  trace_ = std::vector<TraceEvent>();  // frees the last run's trace
  trace_dropped_ = 0;
  last_close_ = PeriodCloseInfo{};
  overruns_ = 0;
  epoch_ = std::chrono::steady_clock::now();
  auto& reg = telemetry::registry();
  m_overruns_ = reg.counter("rpm_prof_budget_overruns_total",
                            "Period closes that exceeded the profiler's "
                            "wall-clock budget");
  collector_ = telemetry::CollectorGuard(
      reg, [this](telemetry::MetricsRegistry& r) { export_metrics_to(r); });
  enabled_ = true;
}

void Profiler::disable() {
  enabled_ = false;
  // The buffer stays readable (report() after a run); only the collector
  // goes, so disabled-profiler metric scrapes are byte-identical to
  // never-enabled.
  collector_ = telemetry::CollectorGuard();
}

void Profiler::record_slow(Stage s, std::uint64_t ns) {
  StageStats& st = stats_[static_cast<std::size_t>(s)];
  st.min_ns = st.count == 0 ? ns : std::min(st.min_ns, ns);
  st.max_ns = std::max(st.max_ns, ns);
  ++st.count;
  st.total_ns += ns;
  st.sketch.add(static_cast<double>(ns));
  // sim.dispatch fires once per simulated event — millions per run — and
  // would fill the trace buffer within milliseconds, crowding out every
  // other stage's spans. It stays in the stats only.
  if (s != Stage::kSimDispatch && trace_room()) {
    const std::uint64_t now = since_epoch();
    trace_.push_back({s, now > ns ? now - ns : 0, ns});
  }
}

std::uint64_t Profiler::since_epoch() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

bool Profiler::trace_room() {
  if (cfg_.max_trace_events == 0) return false;
  if (trace_.size() < cfg_.max_trace_events) return true;
  ++trace_dropped_;
  return false;
}

ProfileReport Profiler::report() const {
  ProfileReport rep;
  rep.stages = stats_;
  rep.budget_overruns = overruns_;
  rep.trace_events_dropped = trace_dropped_;
  return rep;
}

void Profiler::write_chrome_events(json::Writer& w) const {
  for (const TraceEvent& e : trace_) {
    // pid 3 keeps the wall-clock stage track apart from the flight
    // recorder's sim-time markers (pid 1) and probe tracks (pid 2).
    obs::begin_chrome_event(
        w, {.name = e.overrun ? "budget-overrun" : stage_name(e.stage),
            .cat = "prof",
            .ph = e.overrun ? 'i' : 'X',
            .scope = 't',
            .pid = 3,
            .tid = 0,
            .ts = static_cast<TimeNs>(e.start_ns),
            .dur = static_cast<TimeNs>(std::max<std::uint64_t>(e.dur_ns, 1))});
    if (e.overrun) {
      w.key("args").begin_object()
          .key("wall_ns").integer(e.dur_ns)
          .key("top_stage").string(stage_name(e.stage))
          .end_object();
    }
    w.end_object();
  }
}

std::string Profiler::chrome_events() const {
  return json::to_string([this](json::Writer& w) {
    w.begin_array();
    write_chrome_events(w);
    w.end_array();
  });
}

std::array<std::uint64_t, kNumStages> Profiler::stage_totals() const {
  std::array<std::uint64_t, kNumStages> totals{};
  for (std::size_t i = 0; i < kNumStages; ++i) totals[i] = stats_[i].total_ns;
  return totals;
}

void Profiler::note_period_close(
    std::uint64_t wall_ns,
    const std::array<std::uint64_t, kNumStages>& before) {
  const std::array<std::uint64_t, kNumStages> after = stage_totals();
  // Top-cost stage of *this* close = largest per-stage delta; the close's
  // own kPeriodClose sample is excluded (it spans everything). Ties break
  // toward the lowest stage index — deterministic.
  std::size_t top = static_cast<std::size_t>(Stage::kPeriodClose);
  std::uint64_t top_delta = 0;
  for (std::size_t i = 0; i < kNumStages; ++i) {
    if (i == static_cast<std::size_t>(Stage::kPeriodClose)) continue;
    const std::uint64_t delta = after[i] - before[i];
    if (delta > top_delta) {
      top_delta = delta;
      top = i;
    }
  }
  const bool overrun =
      cfg_.period_close_budget > 0 &&
      wall_ns > static_cast<std::uint64_t>(cfg_.period_close_budget);
  ++last_close_.seq;
  last_close_.wall_ns = wall_ns;
  last_close_.top_stage = static_cast<Stage>(top);
  last_close_.overrun = overrun;
  if (overrun) {
    ++overruns_;
    m_overruns_.inc();
    if (trace_room()) {
      trace_.push_back({static_cast<Stage>(top), since_epoch(), wall_ns,
                        true});
    }
  }
}

void Profiler::export_metrics_to(telemetry::MetricsRegistry& reg) {
  const ProfileReport rep = report();
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const StageStats& st = rep.stages[i];
    if (st.count == 0) continue;
    const telemetry::Labels labels = {{"stage", kStageNames[i]}};
    reg.counter("rpm_prof_stage_count", "Samples folded per pipeline stage",
                labels)
        .set(st.count);
    reg.counter("rpm_prof_stage_total_ns",
                "Cumulative wall nanoseconds per pipeline stage", labels)
        .set(st.total_ns);
    reg.gauge("rpm_prof_stage_min_ns",
              "Fastest sample per pipeline stage, wall ns", labels)
        .set(static_cast<double>(st.min_ns));
    reg.gauge("rpm_prof_stage_max_ns",
              "Slowest sample per pipeline stage, wall ns", labels)
        .set(static_cast<double>(st.max_ns));
    reg.gauge("rpm_prof_stage_p50_ns",
              "Median sample per pipeline stage, wall ns", labels)
        .set(st.p50_ns());
    reg.gauge("rpm_prof_stage_p99_ns",
              "p99 sample per pipeline stage, wall ns", labels)
        .set(st.p99_ns());
  }
}

void Profiler::attach_scheduler(sim::Scheduler& sched) {
  sched.set_dispatch_observer(
      [this](std::uint32_t /*always 0*/, std::uint64_t wall_ns) {
        record(Stage::kSimDispatch, wall_ns);
      });
}

void Profiler::detach_scheduler(sim::Scheduler& sched) {
  sched.set_dispatch_observer(nullptr);
}

Profiler& profiler() {
  static Profiler p;
  return p;
}

PeriodCloseScope::PeriodCloseScope() {
  Profiler& p = profiler();
  if (!p.enabled()) return;
  prof_ = &p;
  totals0_ = p.stage_totals();
  t0_ = std::chrono::steady_clock::now();
}

PeriodCloseScope::~PeriodCloseScope() {
  if (prof_ == nullptr) return;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0_)
                      .count();
  const auto wall = static_cast<std::uint64_t>(ns);
  prof_->record(Stage::kPeriodClose, wall);
  if (prof_->enabled()) prof_->note_period_close(wall, totals0_);
}

}  // namespace rpm::prof
