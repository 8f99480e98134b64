#include "core/federation.h"

#include <algorithm>
#include <any>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "obs/flight_recorder.h"
#include "prof/prof.h"
#include "telemetry/trace.h"

namespace rpm::core {

namespace {

// Digest flight traces live far above the probe id space (probes count up
// from 1; sketch reports use bit 62). The global tier reconstructs the same
// id from (pod, seq), so its kDigestMerge event lands on the timeline the
// pod opened at flush — one causal story per digest.
constexpr std::uint64_t kDigestTraceBase = 1ull << 61;

std::uint64_t digest_trace_id(std::uint32_t pod, std::uint64_t seq) {
  return kDigestTraceBase | (static_cast<std::uint64_t>(pod) << 32) |
         (seq & 0xFFFFFFFFull);
}

void add_threshold(obs::EvidenceChain& c, const char* name, double threshold,
                   double observed) {
  c.thresholds.push_back({name, threshold, observed, observed > threshold});
}

void add_probe(obs::EvidenceChain& c, std::uint64_t id) {
  ++c.total_probes;
  if (c.probe_ids.size() < obs::kEvidenceProbeIdCap) c.probe_ids.push_back(id);
}

}  // namespace

// ---------------------------------------------------------------------------
// PodAnalyzer
// ---------------------------------------------------------------------------

PodAnalyzer::PodAnalyzer(const topo::Topology& topo,
                         const Controller& controller,
                         sim::Scheduler& sched, AnalyzerConfig cfg,
                         std::uint32_t pod, std::vector<HostId> hosts)
    : pod_(pod),
      hosts_(std::move(hosts)),
      role_("pod" + std::to_string(pod)),
      analyzer_(topo, controller, sched, std::move(cfg)) {
  if (hosts_.empty()) {
    throw std::invalid_argument("PodAnalyzer: empty host set");
  }
  for (HostId h : hosts_) scratch_.local_hosts.insert(h.value);
  analyzer_.set_federation_scratch(&scratch_);
  analyzer_.set_period_hook(
      [this](const PeriodReport& rep, const obs::DiagnosisLog& dlog) {
        on_period(rep, dlog);
      });
  analyzer_.set_checkpoint_hook(
      [this](AnalyzerCheckpoint& cp) { cp.digest_seq = seq_; });
  // PodAnalyzers exist only in federated deployments (pods >= 2), so these
  // series never appear in a flat run's scrape.
  auto& reg = telemetry::registry();
  digests_total_ =
      reg.counter("rpm_pod_digests_total", "PodDigests flushed by this pod",
                  {{"pod", std::to_string(pod_)}});
  digest_bytes_total_ = reg.counter("rpm_pod_digest_bytes_total",
                                    "Declared wire bytes of flushed digests",
                                    {{"pod", std::to_string(pod_)}});
}

void PodAnalyzer::on_period(const PeriodReport& rep,
                            const obs::DiagnosisLog& dlog) {
  prof::StageScope prof_scope(prof::Stage::kDigestFlush);
  PodDigest d;
  d.pod = pod_;
  d.seq = ++seq_;
  d.period_start = rep.period_start;
  d.period_end = rep.period_end;
  d.records_processed = rep.records_processed;
  d.problems = rep.problems;
  d.chains = dlog.chains;
  d.timeouts_host_down = rep.timeouts_host_down;
  d.timeouts_qpn_reset = rep.timeouts_qpn_reset;
  d.timeouts_agent_cpu = rep.timeouts_agent_cpu;
  d.timeouts_rnic = rep.timeouts_rnic;
  d.timeouts_switch = rep.timeouts_switch;
  // The scratch outputs are rebuilt by the next analyze pass — move, don't
  // copy.
  d.down_hosts = std::move(scratch_.down_hosts);
  d.blamed_rnics = std::move(scratch_.blamed_rnics);
  d.cpu_noise_hosts = std::move(scratch_.cpu_noise_hosts);
  d.foreign = std::move(scratch_.foreign);
  d.cluster_sla = std::move(scratch_.cluster_sla);
  d.service_slas = std::move(scratch_.service_slas);
  d.service_nets = std::move(scratch_.service_nets);

  const std::size_t bytes = pod_digest_wire_bytes(d);
  bytes_sent_ += bytes;
  digests_total_.inc();
  digest_bytes_total_.inc(static_cast<double>(bytes));

  obs::FlightRecorder& fr = obs::recorder();
  if (fr.enabled()) {
    const std::uint64_t trace = digest_trace_id(pod_, d.seq);
    if (fr.begin_probe(trace, "pod-digest",
                       static_cast<std::uint64_t>(d.period_end))) {
      fr.record(trace, obs::ProbeEventKind::kDigestFlush, d.seq,
                d.problems.size());
    }
  }

  if (channel_ != nullptr) {
    channel_->send(std::any(std::move(d)), bytes);
  }
}

void PodAnalyzer::attach_journal(StateJournal* journal) {
  journal_ = journal;
  analyzer_.attach_journal(journal, role_);
}

void PodAnalyzer::crash() {
  analyzer_.crash();
  seq_ = 0;  // lost with the process; restart_from_journal reloads it
}

bool PodAnalyzer::restart_from_journal() {
  if (journal_ != nullptr) {
    if (const auto cp = journal_->load_checkpoint(role_)) {
      seq_ = cp->digest_seq;
    }
  }
  return analyzer_.restore_from_journal();
}

// ---------------------------------------------------------------------------
// GlobalAnalyzer
// ---------------------------------------------------------------------------

GlobalAnalyzer::GlobalAnalyzer(const topo::Topology& topo,
                               sim::Scheduler& sched, Config cfg)
    : topo_(topo), sched_(sched), cfg_(std::move(cfg)) {
  if (cfg_.analyzer.period <= 0) {
    throw std::invalid_argument("GlobalAnalyzer: period must be positive");
  }
  if (cfg_.digest_dedup_window == 0) {
    throw std::invalid_argument(
        "GlobalAnalyzer: digest_dedup_window must be positive");
  }
  // Federated deployments only — never present in a flat scrape.
  auto& reg = telemetry::registry();
  merges_total_ = reg.counter("rpm_global_merges_total",
                              "Global merge passes completed");
  digests_merged_total_ = reg.counter(
      "rpm_global_digests_merged_total",
      "PodDigests folded into global merges (first deliveries only)");
}

void GlobalAnalyzer::ingest_digest(PodDigest&& d) {
  if (outage_) return;  // a blacked-out merge tier hears nothing
  DedupState& st = digest_dedup_[d.pod];
  if (!dedup_accept(st, d.seq, cfg_.digest_dedup_window)) {
    ++duplicate_digests_;
    return;
  }
  pending_.push_back(std::move(d));
}

void GlobalAnalyzer::register_service(ServiceBinding binding) {
  services_.push_back(std::move(binding));
}

void GlobalAnalyzer::start() {
  if (merge_task_) return;
  merge_task_ = std::make_unique<sim::PeriodicTask>(
      sched_, cfg_.analyzer.period, [this] {
        if (!outage_) merge_now();
      });
  // Offset past the pods' period boundary so in-flight digests land first.
  merge_task_->start(cfg_.analyzer.period + cfg_.merge_offset);
}

void GlobalAnalyzer::stop() {
  if (merge_task_) merge_task_->cancel();
  merge_task_.reset();
}

void GlobalAnalyzer::set_outage(bool outage) {
  if (outage_ == outage) return;
  outage_ = outage;
  if (outage_) {
    pending_.clear();
    telemetry::tracer().instant("global-analyzer-outage-begin", "control");
    return;
  }
  telemetry::tracer().instant("global-analyzer-outage-end", "control");
  // The blackout never reads as a giant merge period.
  last_period_end_ = sched_.now();
}

void GlobalAnalyzer::attach_journal(StateJournal* journal) {
  journal_ = journal;
}

void GlobalAnalyzer::crash() {
  telemetry::tracer().instant("global-analyzer-crash", "control");
  outage_ = true;
  pending_.clear();
  digest_dedup_.clear();
  history_.clear();
  diagnosis_.clear();
  next_evidence_id_ = 1;
  next_problem_id_ = 1;
  last_period_end_ = 0;
}

bool GlobalAnalyzer::restart_from_journal() {
  std::optional<AnalyzerCheckpoint> cp;
  if (journal_ != nullptr) cp = journal_->load_checkpoint("global");
  if (cp.has_value()) {
    next_problem_id_ = cp->next_problem_id;
    next_evidence_id_ = cp->next_evidence_id;
    digest_dedup_ = restore_windows(cp->digest_dedup);
  }
  outage_ = false;
  // Fresh boundary either way — downtime is not a merge period.
  last_period_end_ = sched_.now();
  telemetry::tracer().instant("global-analyzer-restart", "control");
  return cp.has_value();
}

void GlobalAnalyzer::save_checkpoint() {
  if (journal_ == nullptr) return;
  AnalyzerCheckpoint cp;
  cp.last_period_end = last_period_end_;
  cp.next_problem_id = next_problem_id_;
  cp.next_evidence_id = next_evidence_id_;
  cp.digest_dedup = checkpoint_windows(digest_dedup_);
  journal_->save_checkpoint("global", cp);
}

void GlobalAnalyzer::vote_foreign(
    const std::vector<const ForeignTimeout*>& evidence, Problem& p,
    obs::EvidenceChain& c) const {
  // Algorithm 1 over the flattened fwd+rev paths the pods shipped — the
  // global counterpart of AnalysisCore::vote_paths, same winner/tie rules.
  std::unordered_map<std::uint32_t, std::size_t> link_votes;
  std::unordered_map<std::uint32_t, std::size_t> switch_votes;
  for (const ForeignTimeout* f : evidence) {
    if (!f->path_known) continue;
    for (std::uint32_t l : f->path_links) ++link_votes[l];
    for (std::uint32_t s : f->path_switches) ++switch_votes[s];
  }
  std::size_t best_link = 0;
  for (const auto& [_, v] : link_votes) best_link = std::max(best_link, v);
  for (const auto& [l, v] : link_votes) {
    if (v == best_link && best_link > 0) p.suspect_links.push_back(LinkId{l});
  }
  std::size_t best_switch = 0;
  for (const auto& [_, v] : switch_votes) {
    best_switch = std::max(best_switch, v);
  }
  for (const auto& [s, v] : switch_votes) {
    if (v == best_switch && best_switch > 0) {
      p.suspect_switches.push_back(SwitchId{s});
    }
  }
  std::sort(p.suspect_links.begin(), p.suspect_links.end());
  std::sort(p.suspect_switches.begin(), p.suspect_switches.end());
  std::vector<std::pair<LinkId, std::size_t>> all;
  all.reserve(link_votes.size());
  for (const auto& [l, v] : link_votes) all.emplace_back(LinkId{l}, v);
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (all.size() > 10) all.resize(10);
  p.top_link_votes = std::move(all);
  static constexpr std::size_t kTallyCap = 64;
  const auto fill =
      [](const std::unordered_map<std::uint32_t, std::size_t>& votes,
         std::vector<obs::VoteCount>& out) {
        out.reserve(std::min(votes.size(), kTallyCap));
        for (const auto& [id, v] : votes) out.push_back({id, v});
        std::sort(out.begin(), out.end(),
                  [](const obs::VoteCount& a, const obs::VoteCount& b) {
                    if (a.votes != b.votes) return a.votes > b.votes;
                    return a.id < b.id;
                  });
        if (out.size() > kTallyCap) out.resize(kTallyCap);
      };
  fill(link_votes, c.link_votes);
  fill(switch_votes, c.switch_votes);
}

const PeriodReport& GlobalAnalyzer::merge_now() {
  // A global merge is the federation tier's period close: same watchdog,
  // with the merge itself as a profiled stage inside it.
  prof::PeriodCloseScope close_scope;
  prof::StageScope merge_scope(prof::Stage::kGlobalMerge);
  const TimeNs now = sched_.now();
  std::vector<PodDigest> digests = std::move(pending_);
  pending_.clear();
  // Deterministic merge order regardless of transport interleaving.
  std::sort(digests.begin(), digests.end(),
            [](const PodDigest& a, const PodDigest& b) {
              if (a.pod != b.pod) return a.pod < b.pod;
              return a.seq < b.seq;
            });

  PeriodReport rep;
  rep.period_start = last_period_end_;
  rep.period_end = now;
  last_period_end_ = now;

  obs::DiagnosisLog dlog;
  dlog.period_start = rep.period_start;
  dlog.period_end = rep.period_end;

  ++merges_;
  merges_total_.inc();
  digests_merged_total_.inc(static_cast<double>(digests.size()));
  const std::uint64_t span =
      telemetry::tracer().begin_span("global.merge", "analyzer");

  obs::FlightRecorder& fr = obs::recorder();
  for (const PodDigest& d : digests) {
    rep.records_processed += d.records_processed;
    rep.timeouts_host_down += d.timeouts_host_down;
    rep.timeouts_qpn_reset += d.timeouts_qpn_reset;
    rep.timeouts_agent_cpu += d.timeouts_agent_cpu;
    rep.timeouts_rnic += d.timeouts_rnic;
    rep.timeouts_switch += d.timeouts_switch;
    if (fr.enabled()) {
      fr.record(digest_trace_id(d.pod, d.seq),
                obs::ProbeEventKind::kDigestMerge, d.pod, d.seq);
    }
  }

  // ---- union of pod liveness/blame state ----
  std::unordered_set<std::uint32_t> down;
  std::unordered_map<std::uint32_t, TimeNs> blamed;  // rnic -> max until
  std::unordered_set<std::uint32_t> cpu_noise;
  for (const PodDigest& d : digests) {
    for (std::uint32_t h : d.down_hosts) down.insert(h);
    for (const auto& [r, until] : d.blamed_rnics) {
      TimeNs& u = blamed[r];
      u = std::max(u, until);
    }
    for (std::uint32_t h : d.cpu_noise_hosts) cpu_noise.insert(h);
  }

  // ---- triage of the deferred foreign timeouts ----
  // A pod could not tell whether a timeout to another pod's host was the
  // host dying, its RNIC, or the fabric; with every pod's down-host and
  // blame state unioned, the global tier re-runs the §4.3.1 branch.
  std::vector<const ForeignTimeout*> foreign_cluster;
  std::map<std::uint32_t, std::vector<const ForeignTimeout*>> foreign_service;
  std::size_t foreign_rnic_drops = 0;
  std::size_t foreign_switch_drops = 0;
  std::map<std::uint32_t, std::pair<std::size_t, std::size_t>>
      foreign_svc_drops;  // service -> {rnic, switch} drops
  std::vector<std::uint64_t> foreign_drop_ids;  // SLA evidence sample
  for (const PodDigest& d : digests) {
    for (const ForeignTimeout& f : d.foreign) {
      if (down.contains(f.target_host.value)) {
        // The owning pod's digest already carries the host-down Problem;
        // here the probe just stops polluting network attribution.
        ++rep.timeouts_host_down;
        continue;
      }
      if (cpu_noise.contains(f.target_host.value) ||
          cpu_noise.contains(f.prober_host.value)) {
        // The owning pod's Fig. 6 filter flagged the host: the service is
        // starving its Agent, so cross-pod probes to it time out without
        // any fabric fault. The pod's digest already carries the noise
        // verdict — here the probe just stays out of Algorithm-1 voting.
        ++rep.timeouts_agent_cpu;
        continue;
      }
      const auto bt = blamed.find(f.target.value);
      const auto bp = blamed.find(f.prober.value);
      const bool rnic_blamed =
          (bt != blamed.end() && bt->second >= rep.period_start) ||
          (bp != blamed.end() && bp->second >= rep.period_start);
      if (rnic_blamed) {
        ++rep.timeouts_rnic;
        ++foreign_rnic_drops;
        foreign_drop_ids.push_back(f.probe_id);
        if (f.kind == ProbeKind::kServiceTracing) {
          ++foreign_svc_drops[f.service.value].first;
        }
        continue;
      }
      ++rep.timeouts_switch;
      ++foreign_switch_drops;
      foreign_drop_ids.push_back(f.probe_id);
      if (f.kind == ProbeKind::kServiceTracing) {
        ++foreign_svc_drops[f.service.value].second;
        foreign_service[f.service.value].push_back(&f);
      } else {
        foreign_cluster.push_back(&f);
      }
    }
  }

  // ---- collect pod verdicts, re-id'd into the global evidence space ----
  struct PendingProblem {
    Problem p;               // evidence ref already remapped
    std::size_t chain_idx;   // its chain's index in dlog.chains
    bool merged = false;
  };
  std::vector<PendingProblem> pool;
  constexpr std::size_t kNoChain = static_cast<std::size_t>(-1);
  for (PodDigest& d : digests) {
    std::unordered_map<std::uint64_t, std::uint64_t> ev_map;
    std::unordered_map<std::uint64_t, std::size_t> chain_by_ev;
    for (obs::EvidenceChain& c : d.chains) {
      const std::uint64_t new_id = next_evidence_id_++;
      ev_map[c.id] = new_id;
      c.id = new_id;
      // Re-linked below for problems that survive the merge; pod-local SLA
      // and innocent verdicts stay as supporting evidence.
      c.problem_id = 0;
      chain_by_ev[new_id] = dlog.chains.size();
      dlog.chains.push_back(std::move(c));
    }
    for (Problem& p : d.problems) {
      PendingProblem pp;
      pp.p = std::move(p);
      pp.p.problem_id = 0;
      pp.chain_idx = kNoChain;
      if (pp.p.evidence.valid()) {
        const auto it = ev_map.find(pp.p.evidence.id);
        pp.p.evidence.id = it == ev_map.end() ? 0 : it->second;
        const auto cit = chain_by_ev.find(pp.p.evidence.id);
        if (cit != chain_by_ev.end()) pp.chain_idx = cit->second;
      }
      pool.push_back(std::move(pp));
    }
  }

  // ---- vote the foreign switch evidence (cross-pod Algorithm 1) ----
  const auto emit_foreign = [&](std::vector<const ForeignTimeout*>& ev,
                                bool from_service, ServiceId svc) {
    if (ev.size() < cfg_.analyzer.min_anomalies_for_problem) return;
    PendingProblem pp;
    Problem& p = pp.p;
    p.category = ProblemCategory::kSwitchNetworkProblem;
    p.anomalous_probes = ev.size();
    p.detected_by_service_tracing = from_service;
    p.service = svc;
    obs::EvidenceChain c;
    c.verdict = "switch-network-problem";
    c.triage_branch = "global: cross-pod foreign-timeout voting";
    c.service = svc.valid() ? svc.value : 0;
    add_threshold(c, "min_anomalies_for_problem",
                  static_cast<double>(cfg_.analyzer.min_anomalies_for_problem),
                  static_cast<double>(ev.size()));
    for (const ForeignTimeout* f : ev) add_probe(c, f->probe_id);
    vote_foreign(ev, p, c);
    std::ostringstream os;
    os << "switch network problem (" << ev.size()
       << " anomalous cross-pod probes"
       << (from_service ? ", service tracing" : ", cluster monitoring") << ")";
    if (!p.suspect_links.empty()) {
      os << ", top suspect link: " << topo_.link(p.suspect_links.front()).name;
    }
    p.summary = os.str();
    c.id = next_evidence_id_++;
    c.summary = p.summary;
    p.evidence.id = c.id;
    pp.chain_idx = dlog.chains.size();
    dlog.chains.push_back(std::move(c));
    pool.push_back(std::move(pp));
  };
  emit_foreign(foreign_cluster, false, ServiceId{});
  for (auto& [svc, ev] : foreign_service) {
    emit_foreign(ev, true, ServiceId{svc});
  }

  // ---- cross-pod merge of same-fault verdicts ----
  // Two pods looking at one broken spine link each vote it from their own
  // evidence; the operator wants ONE problem with the union tally. Grouping:
  // voted categories (switch problem / high RTT) merge by suspect-link
  // overlap (connected components) when cluster-scoped and by service when
  // service-traced; host-/RNIC-scoped categories merge by their location;
  // QPN-reset noise merges wholesale.
  const auto merge_group = [&](std::vector<std::size_t>& members) {
    PendingProblem& first = pool[members.front()];
    Problem m;
    m.category = first.p.category;
    m.rnic = first.p.rnic;
    m.host = first.p.host;
    m.service = first.p.service;
    m.detected_by_service_tracing = first.p.detected_by_service_tracing;
    m.priority = first.p.priority;
    obs::EvidenceChain c;
    c.verdict = dlog.chains[first.chain_idx].verdict;
    c.triage_branch = "global-merge: cross-pod vote union";
    c.service = m.service.valid() ? m.service.value : 0;
    std::map<std::uint32_t, std::size_t> link_votes;
    std::map<std::uint32_t, std::size_t> switch_votes;
    for (std::size_t idx : members) {
      PendingProblem& pp = pool[idx];
      pp.merged = true;
      m.anomalous_probes += pp.p.anomalous_probes;
      // Most severe wins (P0 < P1 < ... numerically); the impact pass below
      // re-derives it for non-noise problems anyway.
      m.priority = std::min(m.priority, pp.p.priority);
      if (pp.chain_idx == kNoChain) continue;
      const obs::EvidenceChain& mc = dlog.chains[pp.chain_idx];
      for (std::uint64_t id : mc.probe_ids) add_probe(c, id);
      c.total_probes += mc.total_probes - mc.probe_ids.size();
      for (const obs::VoteCount& v : mc.link_votes) link_votes[v.id] += v.votes;
      for (const obs::VoteCount& v : mc.switch_votes) {
        switch_votes[v.id] += v.votes;
      }
    }
    std::size_t best_link = 0;
    for (const auto& [_, v] : link_votes) best_link = std::max(best_link, v);
    for (const auto& [l, v] : link_votes) {
      if (v == best_link && best_link > 0) m.suspect_links.push_back(LinkId{l});
    }
    std::size_t best_switch = 0;
    for (const auto& [_, v] : switch_votes) {
      best_switch = std::max(best_switch, v);
    }
    for (const auto& [s, v] : switch_votes) {
      if (v == best_switch && best_switch > 0) {
        m.suspect_switches.push_back(SwitchId{s});
      }
    }
    std::vector<std::pair<LinkId, std::size_t>> all;
    all.reserve(link_votes.size());
    for (const auto& [l, v] : link_votes) all.emplace_back(LinkId{l}, v);
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    if (all.size() > 10) all.resize(10);
    m.top_link_votes = std::move(all);
    const auto fill = [](const std::map<std::uint32_t, std::size_t>& votes,
                         std::vector<obs::VoteCount>& out) {
      static constexpr std::size_t kTallyCap = 64;
      out.reserve(std::min(votes.size(), kTallyCap));
      for (const auto& [id, v] : votes) out.push_back({id, v});
      std::sort(out.begin(), out.end(),
                [](const obs::VoteCount& a, const obs::VoteCount& b) {
                  if (a.votes != b.votes) return a.votes > b.votes;
                  return a.id < b.id;
                });
      if (out.size() > kTallyCap) out.resize(kTallyCap);
    };
    fill(link_votes, c.link_votes);
    fill(switch_votes, c.switch_votes);
    std::ostringstream os;
    os << "global-merge: " << problem_category_name(m.category) << " across "
       << members.size() << " pod reports (" << m.anomalous_probes
       << " anomalous probes)";
    if (!m.suspect_links.empty()) {
      os << ", top suspect link: " << topo_.link(m.suspect_links.front()).name;
    }
    m.summary = os.str();
    add_threshold(c, "min_anomalies_for_problem",
                  static_cast<double>(cfg_.analyzer.min_anomalies_for_problem),
                  static_cast<double>(m.anomalous_probes));
    c.id = next_evidence_id_++;
    c.summary = m.summary;
    m.evidence.id = c.id;
    PendingProblem pp;
    pp.p = std::move(m);
    pp.chain_idx = dlog.chains.size();
    dlog.chains.push_back(std::move(c));
    return pp;
  };

  const auto links_overlap = [](const std::vector<LinkId>& a,
                                const std::vector<LinkId>& b) {
    for (LinkId x : a) {
      for (LinkId y : b) {
        if (x == y) return true;
      }
    }
    return false;
  };
  const auto same_scope_key = [](const Problem& a, const Problem& b) {
    if (a.category != b.category) return false;
    switch (a.category) {
      case ProblemCategory::kSwitchNetworkProblem:
      case ProblemCategory::kHighNetworkRtt:
        // Handled by the link-overlap pass below.
        return false;
      case ProblemCategory::kHostDown:
      case ProblemCategory::kHighProcessingDelay:
      case ProblemCategory::kAgentCpuNoise:
        return a.host == b.host;
      case ProblemCategory::kRnicProblem:
        return a.rnic == b.rnic;
      case ProblemCategory::kQpnResetNoise:
        return true;
    }
    return false;
  };

  std::vector<PendingProblem> merged_out;
  std::vector<bool> consumed(pool.size(), false);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (consumed[i]) continue;
    const Problem& pi = pool[i].p;
    std::vector<std::size_t> members{i};
    const bool voted_cat =
        pi.category == ProblemCategory::kSwitchNetworkProblem ||
        pi.category == ProblemCategory::kHighNetworkRtt;
    if (voted_cat && !pi.detected_by_service_tracing) {
      // Connected component by suspect-link overlap (transitive: a shared
      // link chains reports together even when the endpoints differ).
      std::vector<LinkId> component_links = pi.suspect_links;
      bool grew = true;
      while (grew) {
        grew = false;
        for (std::size_t j = i + 1; j < pool.size(); ++j) {
          if (consumed[j]) continue;
          const Problem& pj = pool[j].p;
          if (pj.category != pi.category || pj.detected_by_service_tracing) {
            continue;
          }
          if (std::find(members.begin(), members.end(), j) != members.end()) {
            continue;
          }
          if (!links_overlap(component_links, pj.suspect_links)) continue;
          members.push_back(j);
          for (LinkId l : pj.suspect_links) component_links.push_back(l);
          grew = true;
        }
      }
    } else if (voted_cat) {
      for (std::size_t j = i + 1; j < pool.size(); ++j) {
        if (consumed[j]) continue;
        const Problem& pj = pool[j].p;
        if (pj.category == pi.category && pj.detected_by_service_tracing &&
            pj.service == pi.service) {
          members.push_back(j);
        }
      }
    } else {
      for (std::size_t j = i + 1; j < pool.size(); ++j) {
        if (!consumed[j] && same_scope_key(pi, pool[j].p)) members.push_back(j);
      }
    }
    for (std::size_t m : members) consumed[m] = true;
    if (members.size() == 1) {
      merged_out.push_back(std::move(pool[i]));
    } else {
      merged_out.push_back(merge_group(members));
    }
  }

  for (PendingProblem& pp : merged_out) {
    pp.p.problem_id = next_problem_id_++;
    if (pp.chain_idx != kNoChain) {
      dlog.chains[pp.chain_idx].problem_id = pp.p.problem_id;
    }
    rep.problems.push_back(std::move(pp.p));
  }

  // ---- cluster / service SLA tables from the mergeable digests ----
  // Exact counts + DDSketch tails merge associatively, so the table is the
  // same no matter how the fleet is podded; the foreign timeouts the global
  // tier just attributed add their drop classification on top.
  SlaDigest cluster;
  for (const PodDigest& d : digests) cluster.merge(d.cluster_sla);
  cluster.rnic_drops += foreign_rnic_drops;
  cluster.switch_drops += foreign_switch_drops;
  rep.cluster_sla = cluster.to_report();
  std::map<std::uint32_t, SlaDigest> svc_slas;
  for (const PodDigest& d : digests) {
    for (const auto& [svc, sd] : d.service_slas) svc_slas[svc].merge(sd);
  }
  for (auto& [svc, drops] : foreign_svc_drops) {
    svc_slas[svc].rnic_drops += drops.first;
    svc_slas[svc].switch_drops += drops.second;
  }
  for (auto& [svc, sd] : svc_slas) {
    rep.service_slas.emplace_back(ServiceId{svc}, sd.to_report());
  }
  if (rep.cluster_sla.rnic_drop_rate > 0.0 ||
      rep.cluster_sla.switch_drop_rate > 0.0) {
    obs::EvidenceChain c;
    c.id = next_evidence_id_++;
    c.verdict = "sla-violation";
    c.triage_branch = "sla: network-attributed drop rate above target";
    add_threshold(c, "network_drop_rate_target", 0.0,
                  rep.cluster_sla.rnic_drop_rate +
                      rep.cluster_sla.switch_drop_rate);
    add_threshold(c, "high_rtt_threshold_ns",
                  static_cast<double>(cfg_.analyzer.high_rtt_threshold),
                  rep.cluster_sla.rtt_p99);
    c.total_probes = rep.cluster_sla.probes;
    for (std::uint64_t id : foreign_drop_ids) {
      if (c.probe_ids.size() >= obs::kEvidenceProbeIdCap) break;
      c.probe_ids.push_back(id);
    }
    std::ostringstream os;
    os << "cluster SLA violated: network-attributed drop rate "
       << (rep.cluster_sla.rnic_drop_rate + rep.cluster_sla.switch_drop_rate)
       << " over " << rep.cluster_sla.probes << " probes";
    c.summary = os.str();
    rep.cluster_sla.evidence.id = c.id;
    dlog.chains.push_back(std::move(c));
  }

  // ---- impact (§4.3.4) against the union service networks ----
  struct Net {
    std::set<std::uint32_t> links;
    std::set<std::uint32_t> rnics;
    std::set<std::uint32_t> hosts;
  };
  std::map<std::uint32_t, Net> nets;
  for (const PodDigest& d : digests) {
    for (const ServiceNetDigest& sn : d.service_nets) {
      Net& n = nets[sn.service];
      n.links.insert(sn.links.begin(), sn.links.end());
      n.rnics.insert(sn.rnics.begin(), sn.rnics.end());
      n.hosts.insert(sn.hosts.begin(), sn.hosts.end());
    }
  }
  for (Problem& p : rep.problems) {
    if (p.priority == Priority::kNoise) continue;
    ServiceId affected;
    if (p.detected_by_service_tracing) {
      affected = p.service;
    } else {
      for (const auto& [svc, net] : nets) {
        const bool rnic_hit = p.rnic.valid() && net.rnics.contains(p.rnic.value);
        const bool host_hit = !p.rnic.valid() && p.host.valid() &&
                              net.hosts.contains(p.host.value);
        bool link_hit = false;
        for (LinkId l : p.suspect_links) {
          if (net.links.contains(l.value)) {
            link_hit = true;
            break;
          }
        }
        if (rnic_hit || host_hit || link_hit) {
          affected = ServiceId{svc};
          break;
        }
      }
    }
    if (!affected.valid()) {
      p.priority = Priority::kP2;
      continue;
    }
    p.in_service_network = true;
    p.service = affected;
    double metric = 1.0;
    for (const ServiceBinding& b : services_) {
      if (b.id == affected) metric = b.metric();
    }
    p.priority = metric < cfg_.analyzer.degradation_threshold ? Priority::kP0
                                                              : Priority::kP1;
  }

  for (const ServiceBinding& b : services_) {
    bool guilty = false;
    for (const Problem& p : rep.problems) {
      if ((p.priority == Priority::kP0 || p.priority == Priority::kP1) &&
          p.service == b.id) {
        guilty = true;
        break;
      }
    }
    if (guilty) continue;
    obs::EvidenceChain c;
    c.id = next_evidence_id_++;
    c.verdict = "network-innocent";
    c.triage_branch = "impact: no P0/P1 problem inside the service network";
    c.service = b.id.value;
    add_threshold(c, "degradation_threshold",
                  cfg_.analyzer.degradation_threshold, b.metric());
    c.summary = "network innocent for service " + std::to_string(b.id.value) +
                " this period";
    dlog.chains.push_back(std::move(c));
  }

  telemetry::tracer().end_span(span);

  history_.push_back(std::move(rep));
  while (history_.size() > cfg_.analyzer.history_limit) history_.pop_front();
  diagnosis_.push_back(std::move(dlog));
  while (diagnosis_.size() > cfg_.analyzer.history_limit) {
    if (journal_ != nullptr) {
      journal_->archive("global", std::move(diagnosis_.front()));
    }
    diagnosis_.pop_front();
  }
  save_checkpoint();
  return history_.back();
}

bool GlobalAnalyzer::network_innocent(ServiceId service) const {
  const PeriodReport* rep = last_report();
  if (rep == nullptr) return true;
  for (const Problem& p : rep->problems) {
    if ((p.priority == Priority::kP0 || p.priority == Priority::kP1) &&
        p.service == service) {
      return false;
    }
  }
  return true;
}

std::string GlobalAnalyzer::explain(std::uint64_t problem_id) const {
  for (auto it = diagnosis_.rbegin(); it != diagnosis_.rend(); ++it) {
    if (const obs::EvidenceChain* c = it->find_problem(problem_id)) {
      return obs::to_json(*c);
    }
  }
  if (journal_ != nullptr) {
    if (const obs::EvidenceChain* c =
            journal_->find_problem("global", problem_id)) {
      return obs::to_json(*c);
    }
  }
  return {};
}

const obs::EvidenceChain* GlobalAnalyzer::evidence(EvidenceRef ref) const {
  if (!ref.valid()) return nullptr;
  for (auto it = diagnosis_.rbegin(); it != diagnosis_.rend(); ++it) {
    if (const obs::EvidenceChain* c = it->find(ref.id)) return c;
  }
  if (journal_ != nullptr) return journal_->find_evidence("global", ref.id);
  return nullptr;
}

}  // namespace rpm::core
