#include "core/analyzer.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/flight_recorder.h"
#include "prof/prof.h"

namespace rpm::core {

Analyzer::Analyzer(const topo::Topology& topo, const Controller& controller,
                   sim::Scheduler& sched, AnalyzerConfig cfg)
    : VerdictLog("analyzer"),
      topo_(topo),
      directory_(&controller),
      sched_(sched),
      cfg_(std::move(cfg)),
      sink_(topo, sink_hooks()) {
  if (cfg_.period <= 0) {
    throw std::invalid_argument("AnalyzerConfig: period must be > 0");
  }
  auto& reg = telemetry::registry();
  metrics_.periods =
      reg.counter("rpm_analyzer_periods_total", "Analysis periods executed");
  for (std::uint8_t c = 0; c < 5; ++c) {
    metrics_.timeouts_by_cause[c] = reg.counter(
        "rpm_analyzer_timeouts_total", "Timeout probes by attributed cause",
        {{"cause", anomaly_cause_name(static_cast<AnomalyCause>(c))}});
  }
  for (std::uint8_t c = 0; c < 7; ++c) {
    metrics_.problems_by_category[c] = reg.counter(
        "rpm_analyzer_problems_total", "Problems emitted by category",
        {{"category", problem_category_name(static_cast<ProblemCategory>(c))}});
  }
  for (std::uint8_t p = 0; p < 4; ++p) {
    metrics_.problems_by_priority[p] = reg.counter(
        "rpm_analyzer_problem_priority_total", "Problems emitted by priority",
        {{"priority", priority_name(static_cast<Priority>(p))}});
  }
}

IngestHooks Analyzer::sink_hooks() {
  IngestHooks hooks;
  // Receipt of ANY upload — duplicate included — proves the host alive.
  hooks.host_alive = [this](HostId h) {
    last_upload_[h.value] = sched_.now();
    known_hosts_.insert(h.value);
  };
  hooks.tap = &tap_;
  return hooks;
}

void Analyzer::start() {
  if (period_task_) return;
  period_task_ = std::make_unique<sim::PeriodicTask>(
      sched_, cfg_.period, [this] {
        if (!outage_) analyze_now();
      });
  period_task_->start(cfg_.period);
}

void Analyzer::stop() {
  if (period_task_) period_task_->cancel();
  period_task_.reset();
}

void Analyzer::forgive_silence(TimeNs now) {
  for (auto& [host, last] : last_upload_) last = std::max(last, now);
  last_period_end_ = now;
}

void Analyzer::set_outage(bool outage) {
  if (outage_ == outage) return;
  outage_ = outage;
  sink_.set_paused(outage);
  if (outage) {
    obs::recorder().marker("analyzer-outage-begin");
    return;
  }
  obs::recorder().marker("analyzer-outage-end");
  forgive_silence(sched_.now());
}

const PeriodReport& Analyzer::analyze_now() {
  // Watchdog over the whole close: drain -> analyze -> hooks -> checkpoint.
  prof::PeriodCloseScope close_scope;
  const TimeNs now = sched_.now();
  std::vector<ProbeRecord> records;
  sketch::HostSummary summary;
  {
    prof::StageScope collect_scope(prof::Stage::kDrainCollect);
    records = sink_.drain_period();
    // The summary is drained unconditionally so a stray test summary can
    // never leak across a sketch-mode flip.
    summary = sink_.drain_summary();
  }
  const PeriodReport& rep = analyze_period(records, summary, now);
  {
    prof::StageScope release_scope(prof::Stage::kDrainRelease);
    std::vector<ProbeRecord>().swap(records);
  }
  if (period_hook_) period_hook_(rep, *last_diagnosis());
  if (journal_ != nullptr) save_checkpoint();
  return rep;
}

void Analyzer::attach_journal(StateJournal* journal, std::string role) {
  journal_ = journal;
  role_ = std::move(role);
}

void Analyzer::save_checkpoint() {
  AnalyzerCheckpoint cp;
  cp.last_period_end = last_period_end_;
  save_ids(cp);
  cp.last_upload.assign(last_upload_.begin(), last_upload_.end());
  std::sort(cp.last_upload.begin(), cp.last_upload.end());
  cp.known_hosts.assign(known_hosts_.begin(), known_hosts_.end());
  std::sort(cp.known_hosts.begin(), cp.known_hosts.end());
  cp.rnic_blamed_until.assign(rnic_blamed_until_.begin(),
                              rnic_blamed_until_.end());
  std::sort(cp.rnic_blamed_until.begin(), cp.rnic_blamed_until.end());
  cp.host_noise_until.assign(host_noise_until_.begin(),
                             host_noise_until_.end());
  std::sort(cp.host_noise_until.begin(), cp.host_noise_until.end());
  cp.ingest = sink_.checkpoint();
  if (checkpoint_hook_) checkpoint_hook_(cp);
  journal_->save_checkpoint(role_, cp);
}

void Analyzer::crash() {
  obs::recorder().marker("analyzer-crash");
  outage_ = true;
  // Everything in process memory dies: buffered records, the folded
  // summary, dedup windows, pipeline history. Rebuild the sink empty and
  // hold it paused until restore_from_journal().
  sink_ = IngestSink(topo_, sink_hooks());
  sink_.set_paused(true);
  last_upload_.clear();
  known_hosts_.clear();
  rnic_blamed_until_.clear();
  host_noise_until_.clear();
  forget();
  last_period_end_ = 0;
}

bool Analyzer::restore_from_journal() {
  std::optional<AnalyzerCheckpoint> cp;
  if (journal_ != nullptr) cp = journal_->load_checkpoint(role_);
  if (cp.has_value()) {
    restore_ids(*cp);
    last_upload_.clear();
    last_upload_.insert(cp->last_upload.begin(), cp->last_upload.end());
    known_hosts_.clear();
    known_hosts_.insert(cp->known_hosts.begin(), cp->known_hosts.end());
    rnic_blamed_until_.clear();
    rnic_blamed_until_.insert(cp->rnic_blamed_until.begin(),
                              cp->rnic_blamed_until.end());
    host_noise_until_.clear();
    host_noise_until_.insert(cp->host_noise_until.begin(),
                             cp->host_noise_until.end());
    sink_.restore(cp->ingest);
  }
  outage_ = false;
  sink_.set_paused(false);
  obs::recorder().marker("analyzer-restart");
  // Same contract as outage recovery: the downtime never reads as host
  // silence, and the next period spans from the restart, not the crash.
  // (This also supersedes the checkpoint's period boundary.)
  forgive_silence(sched_.now());
  return cp.has_value();
}

}  // namespace rpm::core
