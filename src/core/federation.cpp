#include "core/federation.h"

#include <algorithm>
#include <any>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/flight_recorder.h"
#include "prof/prof.h"

namespace rpm::core {

namespace {

// Digest flight traces live far above the probe id space (probes count up
// from 1). The global tier reconstructs the same id from (pod, seq), so its
// kDigestMerge event lands on the timeline the pod opened at flush — one
// causal story per digest.
constexpr std::uint64_t kDigestTraceBase = 1ull << 61;

// Global merge ticks fire this far after the pods' period boundary, giving
// digests a control-plane flight's head start.
constexpr TimeNs kMergeOffset = msec(500);
// Per-pod digest seq dedup window at the global tier (retries/duplicates).
constexpr std::uint64_t kDigestDedupWindow = 64;

std::uint64_t digest_trace_id(std::uint32_t pod, std::uint64_t seq) {
  return kDigestTraceBase | (static_cast<std::uint64_t>(pod) << 32) |
         (seq & 0xFFFFFFFFull);
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
                               sim::Scheduler& sched, AnalyzerConfig cfg)
    : VerdictLog("global"), topo_(topo), sched_(sched), cfg_(std::move(cfg)) {
  if (cfg_.period <= 0) {
    throw std::invalid_argument("GlobalAnalyzer: period must be positive");
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
  if (!dedup_accept(st, d.seq, kDigestDedupWindow)) {
    ++duplicate_digests_;
    return;
  }
  pending_.push_back(std::move(d));
}

void GlobalAnalyzer::start() {
  if (merge_task_) return;
  merge_task_ = std::make_unique<sim::PeriodicTask>(
      sched_, cfg_.period, [this] {
        if (!outage_) merge_now();
      });
  // Offset past the pods' period boundary so in-flight digests land first.
  merge_task_->start(cfg_.period + kMergeOffset);
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
    obs::recorder().marker("global-analyzer-outage-begin");
    return;
  }
  obs::recorder().marker("global-analyzer-outage-end");
  // The blackout never reads as a giant merge period.
  last_period_end_ = sched_.now();
}

void GlobalAnalyzer::attach_journal(StateJournal* journal) {
  journal_ = journal;
}

void GlobalAnalyzer::crash() {
  obs::recorder().marker("global-analyzer-crash");
  outage_ = true;
  pending_.clear();
  digest_dedup_.clear();
  forget();
  last_period_end_ = 0;
}

bool GlobalAnalyzer::restart_from_journal() {
  std::optional<AnalyzerCheckpoint> cp;
  if (journal_ != nullptr) cp = journal_->load_checkpoint(role_);
  if (cp.has_value()) {
    restore_ids(*cp);
    digest_dedup_ = restore_windows(cp->digest_dedup);
  }
  outage_ = false;
  // Fresh boundary either way — downtime is not a merge period.
  last_period_end_ = sched_.now();
  obs::recorder().marker("global-analyzer-restart");
  return cp.has_value();
}

void GlobalAnalyzer::save_checkpoint() {
  if (journal_ == nullptr) return;
  AnalyzerCheckpoint cp;
  cp.last_period_end = last_period_end_;
  save_ids(cp);
  cp.digest_dedup = checkpoint_windows(digest_dedup_);
  journal_->save_checkpoint(role_, cp);
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
  digests_merged_total_.inc(digests.size());

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

  // ---- union of pod liveness/blame/noise state ----
  TriageSets triage;
  triage.period_start = rep.period_start;
  for (const PodDigest& d : digests) {
    triage.down_hosts.insert(d.down_hosts.begin(), d.down_hosts.end());
    for (const auto& [r, until] : d.blamed_rnics) {
      TimeNs& u = triage.blamed_rnics[r];
      u = std::max(u, until);
    }
    triage.cpu_noise_hosts.insert(d.cpu_noise_hosts.begin(),
                                  d.cpu_noise_hosts.end());
  }

  // ---- triage of the deferred foreign timeouts ----
  // A pod could not tell whether a timeout to another pod's host was the
  // host dying, its RNIC, or the fabric; with every pod's state unioned, the
  // global tier re-runs the §4.3.1 branch. The owning pod's digest already
  // carries any host-down or agent-CPU-noise verdict: here those probes
  // just stay out of Algorithm-1 voting.
  std::vector<const ForeignTimeout*> foreign_cluster;
  std::map<std::uint32_t, std::vector<const ForeignTimeout*>> foreign_service;
  // SLA state: the foreign drops attributed here, then the pods' digests.
  SlaDigest cluster;
  std::map<std::uint32_t, SlaDigest> svc_slas;
  std::vector<std::uint64_t> foreign_drop_ids;  // SLA evidence sample
  for (const PodDigest& d : digests) {
    for (const ForeignTimeout& f : d.foreign) {
      const bool traced = f.kind == ProbeKind::kServiceTracing;
      switch (triage.classify(f.target_host, f.prober_host, f.target,
                              f.prober)) {
        case AnomalyCause::kHostDown:
          ++rep.timeouts_host_down;
          break;
        case AnomalyCause::kAgentCpuNoise:
          ++rep.timeouts_agent_cpu;
          break;
        case AnomalyCause::kQpnReset:  // judged by the prober's pod
          break;
        case AnomalyCause::kRnicProblem:
          ++rep.timeouts_rnic;
          ++cluster.rnic_drops;
          foreign_drop_ids.push_back(f.probe_id);
          if (traced) ++svc_slas[f.service.value].rnic_drops;
          break;
        case AnomalyCause::kSwitchProblem:
          ++rep.timeouts_switch;
          ++cluster.switch_drops;
          foreign_drop_ids.push_back(f.probe_id);
          if (traced) {
            ++svc_slas[f.service.value].switch_drops;
            foreign_service[f.service.value].push_back(&f);
          } else {
            foreign_cluster.push_back(&f);
          }
          break;
      }
    }
  }

  // ---- collect pod verdicts, re-id'd into the global evidence space ----
  struct PendingProblem {
    Problem p;               // evidence ref already remapped
    std::size_t chain_idx;   // its chain's index in dlog.chains
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
    if (ev.size() < kMinAnomaliesForProblem) return;
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
                  static_cast<double>(kMinAnomaliesForProblem),
                  static_cast<double>(ev.size()));
    VoteTally tally;
    for (const ForeignTimeout* f : ev) {
      add_probe(c, f->probe_id);
      if (!f->path_known) continue;
      for (std::uint32_t l : f->path_links) tally.add_link(l);
      for (std::uint32_t s : f->path_switches) tally.add_switch(s);
    }
    tally.decide(p, &c);
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
    // The verdict of the first member with a chain; a digest problem may
    // arrive without one.
    const auto chained =
        std::find_if(members.begin(), members.end(), [&](std::size_t idx) {
          return pool[idx].chain_idx != kNoChain;
        });
    c.verdict = chained == members.end()
                    ? problem_category_name(m.category)
                    : dlog.chains[pool[*chained].chain_idx].verdict;
    c.triage_branch = "global-merge: cross-pod vote union";
    c.service = m.service.valid() ? m.service.value : 0;
    VoteTally tally;
    for (std::size_t idx : members) {
      const PendingProblem& pp = pool[idx];
      m.anomalous_probes += pp.p.anomalous_probes;
      // Most severe wins (P0 < P1 < ... numerically); the impact pass below
      // re-derives it for non-noise problems anyway.
      m.priority = std::min(m.priority, pp.p.priority);
      if (pp.chain_idx == kNoChain) continue;
      const obs::EvidenceChain& mc = dlog.chains[pp.chain_idx];
      for (std::uint64_t id : mc.probe_ids) add_probe(c, id);
      c.total_probes += mc.total_probes - mc.probe_ids.size();
      for (const obs::VoteCount& v : mc.link_votes) {
        tally.add_link(v.id, v.votes);
      }
      for (const obs::VoteCount& v : mc.switch_votes) {
        tally.add_switch(v.id, v.votes);
      }
    }
    tally.decide(m, &c);
    std::ostringstream os;
    os << "global-merge: " << problem_category_name(m.category) << " across "
       << members.size() << " pod reports (" << m.anomalous_probes
       << " anomalous probes)";
    if (!m.suspect_links.empty()) {
      os << ", top suspect link: " << topo_.link(m.suspect_links.front()).name;
    }
    m.summary = os.str();
    add_threshold(c, "min_anomalies_for_problem",
                  static_cast<double>(kMinAnomaliesForProblem),
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
  // tier attributed above add their drop classification on top.
  for (const PodDigest& d : digests) {
    cluster.merge(d.cluster_sla);
    for (const auto& [svc, sd] : d.service_slas) svc_slas[svc].merge(sd);
  }
  rep.cluster_sla = cluster.to_report();
  for (auto& [svc, sd] : svc_slas) {
    rep.service_slas.emplace_back(ServiceId{svc}, sd.to_report());
  }
  if (obs::EvidenceChain* c =
          sla_violation(rep.cluster_sla, cfg_, dlog)) {
    for (std::uint64_t id : foreign_drop_ids) sample_probe(*c, id);
  }

  // ---- impact (§4.3.4) against the union service networks ----
  // Every pod's slice of every service network, lowest service id first: a
  // problem touching several services lands in the lowest one it touches,
  // whichever pod saw it. Slices are re-sorted for impact's binary search.
  std::vector<ServiceNetDigest> nets;
  for (const PodDigest& d : digests) {
    nets.insert(nets.end(), d.service_nets.begin(), d.service_nets.end());
  }
  std::stable_sort(nets.begin(), nets.end(),
                   [](const ServiceNetDigest& a, const ServiceNetDigest& b) {
                     return a.service < b.service;
                   });
  for (ServiceNetDigest& n : nets) {
    std::sort(n.links.begin(), n.links.end());
    std::sort(n.rnics.begin(), n.rnics.end());
    std::sort(n.hosts.begin(), n.hosts.end());
  }
  assess_impact(rep.problems, nets);
  innocent_chains(rep.problems, dlog, nullptr);

  const PeriodReport& out =
      retain(std::move(rep), std::move(dlog), cfg_.history_limit);
  save_checkpoint();
  return out;
}

}  // namespace rpm::core
