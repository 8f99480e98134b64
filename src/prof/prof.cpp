// Pipeline wall-clock stage profiler — implementation. See prof.h for the
// contract: one branch when disabled, per-thread buffers, deterministic
// (order-independent) folds, wall time never feeding sim decisions.
#include "prof/prof.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
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

/// Thread-local cache of the calling thread's buffer. Keyed by (owner,
/// generation): a new enable() invalidates every cached pointer without
/// having to visit other threads.
struct LocalSlot {
  const void* owner = nullptr;
  std::uint64_t generation = 0;
  void* buf = nullptr;
};
thread_local LocalSlot t_slot;

void append_u64(std::string& out, const char* key, std::uint64_t v) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void append_f64(std::string& out, const char* key, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.1f", key, v);
  out += buf;
}

}  // namespace

const char* stage_name(Stage s) {
  const auto i = static_cast<std::size_t>(s);
  return i < kNumStages ? kStageNames[i] : "?";
}

void StageStats::merge(const StageStats& o) {
  if (o.count == 0) return;
  min_ns = count == 0 ? o.min_ns : std::min(min_ns, o.min_ns);
  max_ns = std::max(max_ns, o.max_ns);
  count += o.count;
  total_ns += o.total_ns;
  sketch.merge(o.sketch);
}

std::string ProfileReport::to_json() const {
  std::string out = "{\"stages\":[";
  bool first = true;
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const StageStats& st = stages[i];
    if (!first) out += ',';
    first = false;
    out += "{\"stage\":";
    json::append_quoted(out, kStageNames[i]);
    out += ',';
    append_u64(out, "count", st.count);
    out += ',';
    append_u64(out, "total_ns", st.total_ns);
    out += ',';
    append_u64(out, "min_ns", st.min_ns);
    out += ',';
    append_u64(out, "max_ns", st.max_ns);
    out += ',';
    append_f64(out, "p50_ns", st.p50_ns());
    out += ',';
    append_f64(out, "p99_ns", st.p99_ns());
    out += '}';
  }
  out += "],";
  append_u64(out, "budget_overruns", budget_overruns);
  out += ',';
  append_u64(out, "trace_events_dropped", trace_events_dropped);
  out += '}';
  return out;
}

/// One thread's private accumulation state. `mu` is per-buffer (the owning
/// thread takes it on every record; the folding thread takes it at report
/// time), following the telemetry Histogram per-series-mutex precedent —
/// uncontended in steady state, TSan-clean at the barrier.
struct Profiler::ThreadBuf {
  struct TraceEvent {
    Stage stage;
    std::uint64_t start_ns;  // wall ns since enable()
    std::uint64_t dur_ns;
  };

  std::mutex mu;
  std::array<StageStats, kNumStages> stats;
  std::vector<TraceEvent> trace;
  std::uint64_t trace_dropped = 0;
  std::size_t index = 0;  // registration order; chrome tid
};

Profiler::Profiler() = default;
Profiler::~Profiler() = default;

void Profiler::enable(ProfilerConfig cfg) {
  disable();
  {
    std::lock_guard<std::mutex> lock(mu_);
    cfg_ = cfg;
    bufs_.clear();
    last_close_ = PeriodCloseInfo{};
    overruns_.store(0, std::memory_order_relaxed);
    epoch_ = std::chrono::steady_clock::now();
    generation_.fetch_add(1, std::memory_order_relaxed);
  }
  // Registry interaction happens outside mu_: the collector snapshots via
  // report(), which takes mu_ under the registry lock — acquiring them here
  // in the opposite order would be a lock-order inversion.
  auto& reg = telemetry::registry();
  m_overruns_ = reg.counter("rpm_prof_budget_overruns_total",
                            "Period closes that exceeded the profiler's "
                            "wall-clock budget");
  collector_ = telemetry::CollectorGuard(
      reg, [this](telemetry::MetricsRegistry& r) { export_metrics_to(r); });
  enabled_.store(true, std::memory_order_release);
}

void Profiler::disable() {
  enabled_.store(false, std::memory_order_release);
  // Buffers stay readable (report() after a run); only the collector goes,
  // so disabled-profiler metric scrapes are byte-identical to never-enabled.
  collector_ = telemetry::CollectorGuard();
}

void Profiler::record_slow(Stage s, std::uint64_t ns) {
  ThreadBuf* buf = local_buf();
  std::lock_guard<std::mutex> lock(buf->mu);
  StageStats& st = buf->stats[static_cast<std::size_t>(s)];
  st.min_ns = st.count == 0 ? ns : std::min(st.min_ns, ns);
  st.max_ns = std::max(st.max_ns, ns);
  ++st.count;
  st.total_ns += ns;
  st.sketch.add(static_cast<double>(ns));
  // sim.dispatch fires once per simulated event — millions per run — and
  // would fill the trace buffer within milliseconds, crowding out every
  // other stage's spans. It stays in the stats only.
  if (cfg_.max_trace_events > 0 && s != Stage::kSimDispatch) {
    if (buf->trace.size() < cfg_.max_trace_events) {
      const auto now = std::chrono::steady_clock::now();
      const auto since_epoch = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_)
              .count());
      const std::uint64_t start =
          since_epoch > ns ? since_epoch - ns : 0;
      buf->trace.push_back({s, start, ns});
    } else {
      ++buf->trace_dropped;
    }
  }
}

Profiler::ThreadBuf* Profiler::local_buf() {
  const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
  if (t_slot.owner == this && t_slot.generation == gen &&
      t_slot.buf != nullptr) {
    return static_cast<ThreadBuf*>(t_slot.buf);
  }
  std::lock_guard<std::mutex> lock(mu_);
  bufs_.push_back(std::make_unique<ThreadBuf>());
  ThreadBuf* buf = bufs_.back().get();
  buf->index = bufs_.size() - 1;
  t_slot = {this, gen, buf};
  return buf;
}

ProfileReport Profiler::report() const {
  ProfileReport rep;
  std::lock_guard<std::mutex> lock(mu_);
  rep.budget_overruns = overruns_.load(std::memory_order_relaxed);
  for (const std::unique_ptr<ThreadBuf>& buf : bufs_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    for (std::size_t i = 0; i < kNumStages; ++i) {
      rep.stages[i].merge(buf->stats[i]);
    }
    rep.trace_events_dropped += buf->trace_dropped;
  }
  return rep;
}

std::string Profiler::chrome_events() const {
  std::string out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<ThreadBuf>& tb : bufs_) {
    std::lock_guard<std::mutex> buf_lock(tb->mu);
    for (const ThreadBuf::TraceEvent& e : tb->trace) {
      // pid 3 keeps the wall-clock stage tracks apart from the flight
      // recorder's sim-time markers (pid 1) and probe tracks (pid 2).
      obs::append_chrome_event(
          out, {.name = stage_name(e.stage),
                .cat = "prof",
                .pid = 3,
                .tid = tb->index,
                .ts = static_cast<TimeNs>(e.start_ns),
                .dur = static_cast<TimeNs>(std::max<std::uint64_t>(
                    e.dur_ns, 1)),
                .args = {}});
    }
  }
  return out;
}

void Profiler::fold_totals(
    std::array<std::uint64_t, kNumStages>& totals) const {
  totals.fill(0);
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<ThreadBuf>& buf : bufs_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    for (std::size_t i = 0; i < kNumStages; ++i) {
      totals[i] += buf->stats[i].total_ns;
    }
  }
}

void Profiler::note_period_close(
    std::uint64_t wall_ns,
    const std::array<std::uint64_t, kNumStages>& before) {
  std::array<std::uint64_t, kNumStages> after{};
  fold_totals(after);
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
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++last_close_.seq;
    last_close_.wall_ns = wall_ns;
    last_close_.top_stage = static_cast<Stage>(top);
    last_close_.overrun = overrun;
  }
  obs::recorder().marker("period-close", wall_ns, top);
  if (overrun) {
    overruns_.fetch_add(1, std::memory_order_relaxed);
    m_overruns_.inc();
    obs::recorder().marker("budget-overrun", wall_ns, top);
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

PeriodCloseInfo Profiler::last_period_close() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_close_;
}

std::size_t Profiler::num_thread_buffers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bufs_.size();
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
  p.fold_totals(totals0_);
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
