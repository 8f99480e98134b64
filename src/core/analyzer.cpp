#include "core/analyzer.h"

#include <stdexcept>
#include <utility>

#include "prof/prof.h"
#include "telemetry/trace.h"

namespace rpm::core {

Analyzer::Analyzer(const topo::Topology& topo, const Controller& controller,
                   sim::Scheduler& sched, AnalyzerConfig cfg)
    : topo_(topo), sched_(sched), sink_(sink_hooks()) {
  if (cfg.period <= 0) {
    throw std::invalid_argument("AnalyzerConfig: period must be > 0");
  }
  core_ = std::make_unique<AnalysisCore>(topo, &controller, std::move(cfg));
}

IngestHooks Analyzer::sink_hooks() {
  IngestHooks hooks;
  // Dereferences core_ at call time; uploads only arrive after construction
  // completes.
  hooks.host_alive = [this](HostId h) {
    core_->note_host_alive(h, sched_.now());
  };
  hooks.tap = &tap_;
  return hooks;
}

void Analyzer::ingest_sketch(sketch::SketchReport&& rep) {
  if (outage_) return;  // a blacked-out Analyzer hears nothing
  core_->ingest_sketch(std::move(rep));
}

void Analyzer::start() {
  if (period_task_) return;
  period_task_ = std::make_unique<sim::PeriodicTask>(
      sched_, config().period, [this] {
        if (!outage_) analyze_now();
      });
  period_task_->start(config().period);
}

void Analyzer::stop() {
  if (period_task_) period_task_->cancel();
  period_task_.reset();
}

void Analyzer::set_outage(bool outage) {
  if (outage_ == outage) return;
  outage_ = outage;
  sink_.set_paused(outage);
  if (outage) {
    telemetry::tracer().instant("analyzer-outage-begin", "control");
    return;
  }
  telemetry::tracer().instant("analyzer-outage-end", "control");
  const TimeNs now = sched_.now();
  core_->forgive_silence(now);
  core_->set_period_boundary(now);
}

const PeriodReport& Analyzer::analyze_now() {
  // Watchdog over the whole close: drain -> analyze -> hooks -> checkpoint.
  prof::PeriodCloseScope close_scope;
  const TimeNs now = sched_.now();
  std::vector<ProbeRecord> records = sink_.drain_period();
  // The summary is drained unconditionally so a stray test summary can
  // never leak across a sketch-mode flip.
  const sketch::HostSummary summary = sink_.drain_summary();
  const PeriodReport& rep =
      core_->analyze_period(std::move(records), summary, now, fed_);
  if (period_hook_) period_hook_(rep, *core_->last_diagnosis());
  if (journal_ != nullptr) save_checkpoint();
  return rep;
}

void Analyzer::attach_journal(StateJournal* journal, std::string role) {
  journal_ = journal;
  role_ = role;
  core_->attach_journal(journal, std::move(role));
}

void Analyzer::save_checkpoint() {
  AnalyzerCheckpoint cp;
  core_->fill_checkpoint(cp);
  cp.ingest = sink_.checkpoint();
  if (checkpoint_hook_) checkpoint_hook_(cp);
  journal_->save_checkpoint(role_, cp);
}

void Analyzer::crash() {
  telemetry::tracer().instant("analyzer-crash", "control");
  outage_ = true;
  // Everything in process memory dies: buffered records, the folded
  // summary, dedup windows, pipeline history. Rebuild the sink empty and
  // hold it paused until restore_from_journal().
  sink_ = IngestSink(sink_hooks());
  sink_.set_paused(true);
  core_->reset_volatile();
}

bool Analyzer::restore_from_journal() {
  std::optional<AnalyzerCheckpoint> cp;
  if (journal_ != nullptr) cp = journal_->load_checkpoint(role_);
  if (cp.has_value()) {
    core_->restore(*cp);
    sink_.restore(cp->ingest);
  }
  outage_ = false;
  sink_.set_paused(false);
  telemetry::tracer().instant("analyzer-restart", "control");
  const TimeNs now = sched_.now();
  // Same contract as outage recovery: the downtime never reads as host
  // silence, and the next period spans from the restart, not the crash.
  core_->forgive_silence(now);
  core_->set_period_boundary(now);
  return cp.has_value();
}

}  // namespace rpm::core
