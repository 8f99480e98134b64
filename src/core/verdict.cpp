#include "core/verdict.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace rpm::core {

namespace {

// A watched service whose metric sits below this is severely degraded: a
// problem inside its network is P0, not P1 (§4.3.4).
constexpr double kDegradationThreshold = 0.5;

// A P0/P1 problem inside the service's network: the network is not
// innocent of the service's woes (§4.3.4).
bool guilty(const std::vector<Problem>& problems, ServiceId service) {
  return std::any_of(problems.begin(), problems.end(), [&](const Problem& p) {
    return (p.priority == Priority::kP0 || p.priority == Priority::kP1) &&
           p.service == service;
  });
}

// Keeps `id` in `ids` when it is among the kEvidenceProbeIdCap smallest
// offered so far; `ids` stays ascending.
void keep_smallest(std::vector<std::uint64_t>& ids, std::uint64_t id) {
  if (ids.size() >= obs::kEvidenceProbeIdCap) {
    if (id >= ids.back()) return;
    ids.pop_back();
  }
  ids.insert(std::upper_bound(ids.begin(), ids.end(), id), id);
}

}  // namespace

void add_threshold(obs::EvidenceChain& c, const char* name, double threshold,
                   double observed) {
  c.thresholds.push_back({name, threshold, observed, observed > threshold});
}

void sample_probe(obs::EvidenceChain& c, std::uint64_t id) {
  keep_smallest(c.probe_ids, id);
}

void add_probe(obs::EvidenceChain& c, std::uint64_t id) {
  ++c.total_probes;
  sample_probe(c, id);
}

void ProbeSample::add(std::uint64_t id) {
  ++total;
  keep_smallest(ids, id);
}

void add_probes(obs::EvidenceChain& c, const ProbeSample& s) {
  // The cap smallest of (chain ids + s's ids) are the cap smallest of (chain
  // ids + every id offered to s): an id s dropped had cap smaller ones.
  c.total_probes += s.total;
  for (std::uint64_t id : s.ids) sample_probe(c, id);
}

AnomalyCause TriageSets::classify(HostId target_host, HostId prober_host,
                                  RnicId target, RnicId prober) const {
  if (down(target_host)) return AnomalyCause::kHostDown;
  // A starved Agent corrupts probes in BOTH directions: its responder never
  // ACKs (timeouts to it) and its prober thread observes ⑥ too late
  // (timeouts from it).
  if (noisy(target_host) || noisy(prober_host)) {
    return AnomalyCause::kAgentCpuNoise;
  }
  if (blamed(target) || blamed(prober)) return AnomalyCause::kRnicProblem;
  return AnomalyCause::kSwitchProblem;
}

void VoteTally::decide(Problem& p, obs::EvidenceChain* chain) const {
  // Every output is sorted by a total order, so the hash order of the
  // tallies never reaches a verdict.
  const auto ranked = [](const std::unordered_map<std::uint32_t,
                                                  std::size_t>& votes) {
    std::vector<obs::VoteCount> out;
    out.reserve(votes.size());
    for (const auto& [id, v] : votes) out.push_back({id, v});
    std::sort(out.begin(), out.end(),
              [](const obs::VoteCount& a, const obs::VoteCount& b) {
                if (a.votes != b.votes) return a.votes > b.votes;
                return a.id < b.id;
              });
    return out;
  };
  std::vector<obs::VoteCount> links = ranked(links_);
  std::vector<obs::VoteCount> switches = ranked(switches_);
  // Winners: the leading run of the ranking, already in ascending id order.
  for (const obs::VoteCount& v : links) {
    if (v.votes == 0 || v.votes != links.front().votes) break;
    p.suspect_links.push_back(LinkId{v.id});
  }
  for (const obs::VoteCount& v : switches) {
    if (v.votes == 0 || v.votes != switches.front().votes) break;
    p.suspect_switches.push_back(SwitchId{v.id});
  }
  p.top_link_votes.clear();
  for (std::size_t i = 0; i < links.size() && i < 10; ++i) {
    p.top_link_votes.emplace_back(LinkId{links[i].id}, links[i].votes);
  }
  if (chain != nullptr) {
    // Evidence: the tally, not just the winners — explain() must show how
    // close the runners-up were.
    static constexpr std::size_t kTallyCap = 64;
    if (links.size() > kTallyCap) links.resize(kTallyCap);
    if (switches.size() > kTallyCap) switches.resize(kTallyCap);
    chain->link_votes = std::move(links);
    chain->switch_votes = std::move(switches);
  }
}

void VerdictLog::assess_impact(
    std::vector<Problem>& problems,
    const std::vector<ServiceNetDigest>& nets) const {
  const auto has = [](const std::vector<std::uint32_t>& v, std::uint32_t x) {
    return std::binary_search(v.begin(), v.end(), x);
  };
  for (Problem& p : problems) {
    if (p.priority == Priority::kNoise) continue;
    // Find a service whose network this problem touches.
    ServiceId affected;
    if (p.detected_by_service_tracing) {
      affected = p.service;
    } else {
      for (const ServiceNetDigest& net : nets) {
        const bool rnic_hit = p.rnic.valid() && has(net.rnics, p.rnic.value);
        // Host overlap only applies to host-scoped problems (host down, CPU
        // bottleneck). An RNIC problem on a worker host whose OTHER RNIC
        // serves the job is still outside the service network (=> P2).
        const bool host_hit =
            !p.rnic.valid() && p.host.valid() && has(net.hosts, p.host.value);
        const bool link_hit = std::any_of(
            p.suspect_links.begin(), p.suspect_links.end(),
            [&](LinkId l) { return has(net.links, l.value); });
        if (rnic_hit || host_hit || link_hit) {
          affected = ServiceId{net.service};
          break;
        }
      }
    }
    if (!affected.valid()) {
      p.priority = Priority::kP2;  // outside every service network
      continue;
    }
    p.in_service_network = true;
    p.service = affected;
    // Severe metric degradation => P0; otherwise P1 (fix on benefit).
    double metric = 1.0;
    for (const ServiceBinding& b : services_) {
      if (b.id == affected) metric = b.metric();
    }
    p.priority =
        metric < kDegradationThreshold ? Priority::kP0 : Priority::kP1;
  }
}

void VerdictLog::register_service(ServiceBinding binding) {
  if (!binding.metric) {
    throw std::invalid_argument("register_service: metric required");
  }
  services_.push_back(std::move(binding));
}

bool VerdictLog::network_innocent(ServiceId service) const {
  const PeriodReport* rep = last_report();
  return rep == nullptr || !guilty(rep->problems, service);
}

std::string VerdictLog::explain(std::uint64_t problem_id) const {
  for (auto it = diagnosis_.rbegin(); it != diagnosis_.rend(); ++it) {
    if (const obs::EvidenceChain* c = it->find_problem(problem_id)) {
      return obs::to_json(*c);
    }
  }
  // Post-mortem fallback: the period may have aged past kHistoryLimit into
  // the journal archive.
  if (journal_ != nullptr) {
    if (const obs::EvidenceChain* c = journal_->find_problem(role_,
                                                             problem_id)) {
      return obs::to_json(*c);
    }
  }
  return {};
}

const obs::EvidenceChain* VerdictLog::evidence(EvidenceRef ref) const {
  if (!ref.valid()) return nullptr;
  for (auto it = diagnosis_.rbegin(); it != diagnosis_.rend(); ++it) {
    if (const obs::EvidenceChain* c = it->find(ref.id)) return c;
  }
  if (journal_ != nullptr) return journal_->find_evidence(role_, ref.id);
  return nullptr;
}

void VerdictLog::attach_evidence(Problem& p, obs::EvidenceChain& c) {
  p.problem_id = next_problem_id_++;
  c.id = next_evidence_id_++;
  p.evidence.id = c.id;
  c.problem_id = p.problem_id;
  c.summary = p.summary;
}

obs::EvidenceChain* VerdictLog::sla_violation(SlaReport& sla,
                                              const AnalyzerConfig& cfg,
                                              obs::DiagnosisLog& dlog) {
  if (!(sla.rnic_drop_rate > 0.0 || sla.switch_drop_rate > 0.0)) {
    return nullptr;
  }
  // Network-attributed drops are never in budget. The caller samples the
  // offending probe ids so explain() leads straight to flight timelines.
  const double drop_rate = sla.rnic_drop_rate + sla.switch_drop_rate;
  obs::EvidenceChain c;
  c.id = next_evidence_id_++;
  c.verdict = "sla-violation";
  c.triage_branch = "sla: network-attributed drop rate above target";
  add_threshold(c, "network_drop_rate_target", 0.0, drop_rate);
  add_threshold(c, "high_rtt_threshold_ns",
                static_cast<double>(cfg.high_rtt_threshold), sla.rtt_p99);
  c.total_probes = sla.probes;
  std::ostringstream os;
  os << "cluster SLA violated: network-attributed drop rate " << drop_rate
     << " over " << sla.probes << " probes";
  c.summary = os.str();
  sla.evidence.id = c.id;
  dlog.chains.push_back(std::move(c));
  return &dlog.chains.back();
}

void VerdictLog::innocent_chains(const std::vector<Problem>& problems,
                                 obs::DiagnosisLog& dlog,
                                 const ServiceProbes* probes) {
  // Exoneration gets receipts too (§4.3.4).
  for (const ServiceBinding& b : services_) {
    if (guilty(problems, b.id)) continue;
    obs::EvidenceChain c;
    c.id = next_evidence_id_++;
    c.verdict = "network-innocent";
    c.triage_branch = "impact: no P0/P1 problem inside the service network";
    c.service = b.id.value;
    add_threshold(c, "degradation_threshold", kDegradationThreshold,
                  b.metric());
    if (probes != nullptr) {
      if (const auto it = probes->find(b.id.value); it != probes->end()) {
        add_probes(c, it->second);
      }
    }
    c.summary = "network innocent for service " + std::to_string(b.id.value) +
                " this period";
    dlog.chains.push_back(std::move(c));
  }
}

const PeriodReport& VerdictLog::retain(PeriodReport&& rep,
                                       obs::DiagnosisLog&& dlog) {
  history_.push_back(std::move(rep));
  while (history_.size() > kHistoryLimit) history_.pop_front();
  diagnosis_.push_back(std::move(dlog));
  while (diagnosis_.size() > kHistoryLimit) {
    // Evidence retention (ROADMAP): aged-out DiagnosisLogs spill into the
    // journal archive instead of vanishing; explain() falls back to it.
    if (journal_ != nullptr) {
      journal_->archive(role_, std::move(diagnosis_.front()));
    }
    diagnosis_.pop_front();
  }
  return history_.back();
}

void VerdictLog::forget() {
  history_.clear();
  diagnosis_.clear();
  next_problem_id_ = 1;
  next_evidence_id_ = 1;
}

}  // namespace rpm::core
