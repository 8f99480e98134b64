#include "core/analyzer.h"

#include <algorithm>
#include <any>
#include <stdexcept>
#include <utility>

#include "obs/flight_recorder.h"
#include "prof/prof.h"
#include "transport/transport.h"

namespace rpm::core {

namespace {

using IdTimes = std::vector<std::pair<std::uint32_t, TimeNs>>;

// A table's entries in ascending id order; an id at kNoTime has none.
IdTimes table_entries(const std::vector<TimeNs>& table) {
  IdTimes out;
  for (std::uint32_t id = 0; id < table.size(); ++id) {
    if (table[id] != kNoTime) out.emplace_back(id, table[id]);
  }
  return out;
}

// Refill `table` from checkpoint entries; an id outside it is dropped.
void load_table(std::vector<TimeNs>& table, const IdTimes& entries) {
  std::fill(table.begin(), table.end(), kNoTime);
  for (const auto& [id, t] : entries) {
    if (id < table.size()) table[id] = t;
  }
}

}  // namespace

Analyzer::Analyzer(const topo::Topology& topo, const Controller& controller,
                   sim::Scheduler& sched, AnalyzerConfig cfg)
    : VerdictLog("analyzer"),
      topo_(topo),
      directory_(&controller),
      sched_(sched),
      cfg_(std::move(cfg)),
      last_upload_(topo.num_hosts(), kNoTime),
      rnic_blamed_until_(topo.num_rnics(), kNoTime),
      host_noise_until_(topo.num_hosts(), kNoTime),
      period_(topo),
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
  };
  hooks.tap = &tap_;
  hooks.fold = [this](const std::vector<ProbeRecord>& records,
                      const sketch::HostSummary* summary) {
    fold(records, summary);
  };
  return hooks;
}

void Analyzer::serve_pod(std::uint32_t pod, std::vector<bool> hosts,
                         transport::Channel* channel) {
  pod_ = pod;
  local_hosts_ = std::move(hosts);
  digest_channel_ = channel;
  // Only pods register these series, so a flat run's scrape has none.
  auto& reg = telemetry::registry();
  digests_total_ =
      reg.counter("rpm_pod_digests_total", "PodDigests flushed by this pod",
                  {{"pod", std::to_string(pod)}});
  digest_bytes_total_ = reg.counter("rpm_pod_digest_bytes_total",
                                    "Declared wire bytes of flushed digests",
                                    {{"pod", std::to_string(pod)}});
}

void Analyzer::start() {
  if (period_task_) return;
  period_task_ = std::make_unique<sim::PeriodicTask>(
      sched_, cfg_.period, [this] {
        if (!in_outage()) analyze_now();
      });
  period_task_->start(cfg_.period);
}

void Analyzer::stop() {
  if (period_task_) period_task_->cancel();
  period_task_.reset();
}

void Analyzer::pause_or_resume() {
  sink_.set_paused(in_outage());
  if (in_outage()) return;
  const TimeNs now = sched_.now();
  for (TimeNs& last : last_upload_) {
    if (last != kNoTime) last = std::max(last, now);
  }
  last_period_end_ = now;
}

void Analyzer::set_outage(bool outage) {
  if (outage_ == outage) return;
  outage_ = outage;
  obs::recorder().marker(outage ? "analyzer-outage-begin"
                                : "analyzer-outage-end");
  pause_or_resume();
}

const PeriodReport& Analyzer::analyze_now() {
  // Watchdog over the whole close: analyze -> digest -> checkpoint.
  prof::PeriodCloseScope close_scope;
  PodDigest digest;
  const bool pod = !local_hosts_.empty();
  // The close starts from the tables each batch was folded into on arrival,
  // then empties them with their capacity kept.
  const PeriodReport& rep =
      analyze_period(sched_.now(), pod ? &digest : nullptr);
  period_.reset();
  if (pod) send_digest(std::move(digest), rep);
  if (journal_ != nullptr) save_checkpoint();
  return rep;
}

void Analyzer::send_digest(PodDigest&& d, const PeriodReport& rep) {
  prof::StageScope prof_scope(prof::Stage::kDigestFlush);
  d.pod = pod_;
  d.seq = ++digest_seq_;
  d.period_start = rep.period_start;
  d.period_end = rep.period_end;
  d.records_processed = rep.records_processed;
  d.problems = rep.problems;
  d.chains = last_diagnosis()->chains;
  d.timeouts_host_down = rep.timeouts_host_down;
  d.timeouts_qpn_reset = rep.timeouts_qpn_reset;
  d.timeouts_agent_cpu = rep.timeouts_agent_cpu;
  d.timeouts_rnic = rep.timeouts_rnic;
  d.timeouts_switch = rep.timeouts_switch;

  const std::size_t bytes = pod_digest_wire_bytes(d);
  digest_bytes_sent_ += bytes;
  digests_total_.inc();
  digest_bytes_total_.inc(bytes);

  obs::FlightRecorder& fr = obs::recorder();
  if (fr.enabled()) {
    const std::uint64_t trace = digest_trace_id(pod_, d.seq);
    if (fr.begin_probe(trace, "pod-digest",
                       static_cast<std::uint64_t>(d.period_end))) {
      fr.record(trace, obs::ProbeEventKind::kDigestFlush, d.seq,
                d.problems.size());
    }
  }

  if (digest_channel_ != nullptr) {
    digest_channel_->send(std::any(std::move(d)), bytes);
  }
}

void Analyzer::attach_journal(StateJournal* journal, std::string role) {
  journal_ = journal;
  role_ = std::move(role);
}

void Analyzer::save_checkpoint() {
  AnalyzerCheckpoint cp;
  cp.last_period_end = last_period_end_;
  save_ids(cp);
  cp.last_upload = table_entries(last_upload_);
  cp.rnic_blamed_until = table_entries(rnic_blamed_until_);
  cp.host_noise_until = table_entries(host_noise_until_);
  cp.ingest = sink_.checkpoint();
  cp.digest_seq = digest_seq_;
  journal_->save_checkpoint(role_, cp);
}

void Analyzer::crash() {
  obs::recorder().marker("analyzer-crash");
  crashed_ = true;
  // Everything in process memory dies: the period's tables, dedup windows,
  // pipeline history. Rebuild the sink empty and hold it paused until
  // restore_from_journal().
  period_.reset();
  sink_ = IngestSink(topo_, sink_hooks());
  sink_.set_paused(true);
  std::fill(last_upload_.begin(), last_upload_.end(), kNoTime);
  std::fill(rnic_blamed_until_.begin(), rnic_blamed_until_.end(), kNoTime);
  std::fill(host_noise_until_.begin(), host_noise_until_.end(), kNoTime);
  forget();
  last_period_end_ = 0;
  digest_seq_ = 0;
}

bool Analyzer::restore_from_journal() {
  std::optional<AnalyzerCheckpoint> cp;
  if (journal_ != nullptr) cp = journal_->load_checkpoint(role_);
  if (cp.has_value()) {
    restore_ids(*cp);
    load_table(last_upload_, cp->last_upload);
    load_table(rnic_blamed_until_, cp->rnic_blamed_until);
    load_table(host_noise_until_, cp->host_noise_until);
    sink_.restore(cp->ingest);
    digest_seq_ = cp->digest_seq;
  }
  crashed_ = false;
  obs::recorder().marker("analyzer-restart");
  // Same contract as outage recovery: the downtime never reads as host
  // silence, and the next period spans from the resume, not the crash.
  // (This also supersedes the checkpoint's period boundary.)
  pause_or_resume();
  return cp.has_value();
}

}  // namespace rpm::core
