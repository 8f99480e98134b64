// The Analyzer's period pipeline (§4.3): the fold that takes each accepted
// batch into the period's tables as it arrives, and the close that turns
// those tables into timeout triage, anomalous-RNIC detection, Algorithm-1
// localization, bottleneck scans, SLA tables and impact. The verdict steps
// it shares with the GlobalAnalyzer are in core/verdict.h.
//
// The fold is the period's only walk over its records. It fills every table
// the close reads: vectors indexed by topology id (RNIC, host, link), and
// ordered maps keyed by service or by the few ids that carry evidence. It
// keeps timeouts and hot-RTT records as copies, and of every other record
// only counts, sketches and probe-id samples. The close walks no records but
// the kept timeouts.
//
// The report is a function of the period's record multiset, not of the
// order in which records arrived or of how they were batched: every table
// is a sum, a sketch or a kept copy, every tie is broken by a total order,
// every emission loop walks ascending ids, and every evidence sample keeps
// the smallest probe ids (sample_probe).
#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

#include "core/analyzer.h"
#include "fabric/fabric.h"
#include "obs/flight_recorder.h"
#include "prof/prof.h"

namespace rpm::core {

namespace {

// §5 analysis constants only this pipeline reads (the shared ones are in
// core/verdict.h).
constexpr double kRnicTimeoutThreshold = 0.10;  // §5: >10% ToR-mesh timeouts
constexpr TimeNs kRnicBlameWindow = sec(60);    // §5: blame RNIC for 1 min
constexpr TimeNs kStarveDelayThreshold = msec(100);  // Fig. 6 responder delay
// Once the Fig. 6 filter flags a host, keep filtering its timeouts as
// agent-CPU noise for this long: a starved prober drains its observation
// backlog for several periods after the service releases the CPU, and
// those straggler records must not reach Algorithm-1 voting. Mirrors the
// §5 kRnicBlameWindow hangover on the noise side.
constexpr TimeNs kCpuNoiseWindow = sec(60);

// A kept timeout record, the SLA digest it counts in, and the cause the
// pipeline attributes it to (none yet, or none at all for a pod's foreign
// timeout).
struct Timeout {
  const ProbeRecord* r;
  HostId target_host;
  SlaDigest* sla;
  std::optional<AnomalyCause> cause;
};

// Evidence lists point into the period's kept records.
std::vector<const ProbeRecord*> pointers(const std::vector<ProbeRecord>& v) {
  std::vector<const ProbeRecord*> out;
  out.reserve(v.size());
  for (const ProbeRecord& r : v) out.push_back(&r);
  return out;
}

// The ids set in `flags`, ascending.
std::vector<std::uint32_t> set_ids(const std::vector<bool>& flags) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < flags.size(); ++i) {
    if (flags[i]) ids.push_back(i);
  }
  return ids;
}

// Whether `flags` holds `id`; an id outside the table is not set.
bool flagged(const std::vector<bool>& flags, std::uint32_t id) {
  return id < flags.size() && flags[id];
}

}  // namespace

void Analyzer::PeriodTables::reset() {
  records = 0;
  cluster_sla = SlaDigest{};
  services.clear();
  std::fill(ok_delay.begin(), ok_delay.end(), sketch::QuantileSketch{});
  for (ProbeSample& s : host_ok_probes) s.clear();
  mesh.clear();
  tormesh_ok.clear();
  timeouts.clear();
  hot_cluster.clear();
  hot_service.clear();
}

void Analyzer::fold(const std::vector<ProbeRecord>& records,
                    const sketch::HostSummary* summary) {
  PeriodTables& t = period_;
  if (summary != nullptr) {
    // A merge is bucket-wise addition, so merging each batch's summary here
    // gives the bytes merging the period's summary at close would.
    t.cluster_sla.rtt.merge(summary->rtt);
    for (const auto& [rid, sk] : summary->ok_delay_by_target) {
      t.ok_delay[rid].merge(sk);
      t.cluster_sla.proc.merge(sk);
    }
    t.cluster_sla.probes += summary->folded_records;
    for (const auto& [pair, cnt] : summary->tormesh_ok) {
      t.tormesh_ok[pair] += cnt;
    }
  }
  t.records += records.size();
  for (const ProbeRecord& r : records) {
    const HostId target_host = topo_.rnic(r.target).host;
    ServiceTally* svc = nullptr;
    if (r.kind == ProbeKind::kServiceTracing) {
      svc = &t.services.try_emplace(r.service.value, topo_).first->second;
      svc->probes.add(r.id);
      svc->hosts[topo_.rnic(r.prober).host.value] = true;
      svc->hosts[target_host.value] = true;
      svc->rnics[r.prober.value] = true;
      svc->rnics[r.target.value] = true;
      if (r.path_known) {
        for (const routing::Path* p : {&r.fwd_path, &r.rev_path}) {
          for (LinkId l : p->links) svc->links.at(l.value) = true;
        }
      }
    }
    SlaDigest& sla = svc != nullptr ? svc->sla : t.cluster_sla;
    ++sla.probes;
    if (r.status == ProbeStatus::kTimeout) {
      // Step 1 reads host liveness and the QPN directory at close.
      ++sla.timeouts;
      t.timeouts.push_back(r);
      continue;
    }
    sla.rtt.add(static_cast<double>(r.network_rtt));
    // One logarithm for both tables the responder delay feeds.
    const auto delay = sketch::QuantileSketch::bucket_of(
        static_cast<double>(r.responder_delay));
    sla.proc.add(delay);
    t.ok_delay[r.target.value].add(delay);
    t.host_ok_probes[target_host.value].add(r.id);
    if (r.network_rtt > cfg_.high_rtt_threshold) {
      if (svc != nullptr) {
        t.hot_service[r.service.value].push_back(r);
      } else {
        t.hot_cluster.push_back(r);
      }
    }
    if (r.kind == ProbeKind::kTorMesh) {
      t.mesh.push_back({r.prober.value, r.target.value, false});
    }
  }
}

const PeriodReport& Analyzer::analyze_period(TimeNs now, PodDigest* digest) {
  PeriodReport rep;
  rep.period_start = last_period_end_;
  rep.period_end = now;
  last_period_end_ = now;

  rep.records_processed = period_.records;

  // Diagnosis explainability (src/obs): every verdict this period gets an
  // EvidenceChain — input probe ids, thresholds compared, Algorithm 1 vote
  // tally, triage branch — collected into one DiagnosisLog.
  obs::DiagnosisLog dlog;
  dlog.period_start = rep.period_start;
  dlog.period_end = rep.period_end;
  const auto cite_records = [](obs::EvidenceChain& c,
                               const std::vector<const ProbeRecord*>& ev) {
    for (const ProbeRecord* r : ev) add_probe(c, r->id);
  };
  // Algorithm 1 over the evidence probes' forward and ACK paths.
  const auto vote = [this](const std::vector<const ProbeRecord*>& ev,
                           Problem& p, obs::EvidenceChain& c) {
    VoteTally tally;
    for (const ProbeRecord* r : ev) {
      if (!r->path_known) continue;
      for (const routing::Path* path : {&r->fwd_path, &r->rev_path}) {
        for (LinkId l : path->links) tally.add_hop(topo_, l);
      }
    }
    tally.decide(p, &c);
  };

  metrics_.periods.inc();
  // The profiled pipeline stage running now: emplace() closes the previous
  // stage's sample and opens the next; reset() closes out. Steps 1-3 are
  // all drain.triage.
  std::optional<prof::StageScope> stage;
  stage.emplace(prof::Stage::kDrainTriage);

  const auto num_hosts = static_cast<std::uint32_t>(topo_.num_hosts());
  const auto num_rnics = static_cast<std::uint32_t>(topo_.num_rnics());
  TriageSets triage(topo_, rep.period_start);
  for (std::uint32_t h = 0; h < num_hosts; ++h) {
    const TimeNs last = last_upload_[h];
    if (last != kNoTime && now - last > kHostSilenceThreshold) {
      triage.down_hosts[h] = true;
    }
  }

  // ---- step 1 over the kept timeouts (§4.3.1) ----
  // Host-down and QPN-reset noise need the liveness clocks and the
  // Controller's directory as they stand at close. A ToR-mesh timeout with
  // no step-1 cause joins the greedy loop's rows.
  std::vector<Timeout> timeouts;
  timeouts.reserve(period_.timeouts.size());
  for (const ProbeRecord& r : period_.timeouts) {
    const HostId target_host = topo_.rnic(r.target).host;
    SlaDigest& sla = r.kind == ProbeKind::kServiceTracing
                         ? period_.services.at(r.service.value).sla
                         : period_.cluster_sla;
    std::optional<AnomalyCause> cause;
    if (triage.down(target_host)) {
      cause = AnomalyCause::kHostDown;
    } else if (const auto info = directory_->comm_info(r.target);
               !info || info->qpn != r.target_qpn) {
      // QPN-reset noise: the probe addressed a QPN older than the freshest
      // registration the Controller holds — or a QPN the Controller has no
      // registration for at all (it restarted and lost its registry, and
      // the target has not re-registered yet). Both are control-plane
      // staleness, not network loss.
      cause = AnomalyCause::kQpnReset;
    }
    timeouts.push_back({&r, target_host, &sla, cause});
    if (r.kind == ProbeKind::kTorMesh && !cause.has_value()) {
      period_.mesh.push_back({r.prober.value, r.target.value, true});
    }
  }

  // ---- step 2: anomalous-RNIC detection from ToR-mesh data (§4.3.2) ----

  struct RnicStat {
    std::size_t total = 0;
    std::size_t timeouts = 0;
  };
  // Greedy attribution: a dead RNIC's *outgoing* probes also time out and
  // would inflate its innocent peers' timeout ratios. Repeatedly blame the
  // RNIC with the worst ratio, discount every probe involving it, and
  // re-evaluate — peers polluted only by the culprit come out clean.
  std::vector<bool> blamed(num_rnics);
  // Blamed RNIC -> its observed timeout ratio when blamed (evidence).
  std::map<std::uint32_t, double> anomalous_rnics;
  std::vector<RnicStat> per_rnic(num_rnics);
  for (;;) {
    std::fill(per_rnic.begin(), per_rnic.end(), RnicStat{});
    for (const MeshRow& row : period_.mesh) {
      if (flagged(blamed, row.prober) || blamed[row.target]) continue;
      RnicStat& st = per_rnic[row.target];
      ++st.total;
      if (row.timed_out) ++st.timeouts;
    }
    // Folded ToR-mesh OK counts (sketch mode) dilute timeout ratios exactly
    // as their raw records would; pairs touching an already-blamed RNIC are
    // discounted the same way the rows above are.
    for (const auto& [pair, cnt] : period_.tormesh_ok) {
      if (flagged(blamed, pair.first) || flagged(blamed, pair.second)) {
        continue;
      }
      per_rnic.at(pair.second).total += cnt;
    }
    // The worst RNIC above the threshold, by a strict total order: higher
    // timeout ratio, then more timeouts (more evidence at an equal ratio),
    // then the lower id — the ascending walk keeps the first of equals.
    std::optional<std::uint32_t> worst;
    double worst_frac = 0.0;
    for (std::uint32_t rnic = 0; rnic < num_rnics; ++rnic) {
      const RnicStat& st = per_rnic[rnic];
      if (st.total < 3) continue;
      const double frac =
          static_cast<double>(st.timeouts) / static_cast<double>(st.total);
      if (frac <= kRnicTimeoutThreshold) continue;
      if (!worst || frac > worst_frac ||
          (frac == worst_frac && st.timeouts > per_rnic[*worst].timeouts)) {
        worst = rnic;
        worst_frac = frac;
      }
    }
    if (!worst) break;
    blamed[*worst] = true;
    anomalous_rnics.emplace(*worst, worst_frac);
  }

  // A host's delay table merges its RNICs' sketches; a merge is bucket-wise
  // addition, so that equals adding each record. The step-4 bottleneck scan
  // reads the same table.
  const std::vector<sketch::QuantileSketch>& ok_delay = period_.ok_delay;
  std::vector<sketch::QuantileSketch> host_ok_delay(num_hosts);
  for (std::uint32_t rnic = 0; rnic < num_rnics; ++rnic) {
    host_ok_delay[topo_.rnic(RnicId{rnic}).host.value].merge(ok_delay[rnic]);
  }

  // Figure 6 false-positive filters: the service occupying the Agent's CPU
  // makes probes to *all* of a host's RNICs time out at once, and/or shows
  // up as huge responder delays on the probes that did complete.
  std::vector<bool> cpu_noise_hosts(num_hosts);
  if (cfg_.enable_cpu_noise_filters) {
    std::map<std::uint32_t, std::size_t> anomalous_per_host;
    for (const auto& [r, frac] : anomalous_rnics) {
      ++anomalous_per_host[topo_.rnic(RnicId{r}).host.value];
    }
    for (auto it = anomalous_rnics.begin(); it != anomalous_rnics.end();) {
      const HostId h = topo_.rnic(RnicId{it->first}).host;
      const bool multi_rnic_simultaneous =
          anomalous_per_host[h.value] >= 2;
      const sketch::QuantileSketch& rnic_delay = ok_delay[it->first];
      const bool starved_responder =
          rnic_delay.count() > 0 &&
          rnic_delay.quantile(0.9) >
              static_cast<double>(kStarveDelayThreshold);
      // Third Fig. 6 signal: responder processing delay (④-③) is purely
      // host-side — a switch or link fault times probes out but leaves the
      // delay of the probes that DID complete at the µs scale. An anomalous
      // RNIC on a host whose completed probes show bottleneck-scale delays
      // is therefore the service starving the Agent, even when only one of
      // the host's RNICs crossed the timeout threshold and the per-RNIC p90
      // sits below the starve bar.
      const sketch::QuantileSketch& host_delay = host_ok_delay[h.value];
      const bool starved_host =
          host_delay.count() >= 3 &&
          host_delay.quantile(0.9) >
              static_cast<double>(kHighProcDelayThreshold);
      if (multi_rnic_simultaneous || starved_responder || starved_host) {
        cpu_noise_hosts[h.value] = true;
        // Noise hangover: a host the Fig. 6 filter flagged keeps filtering
        // for kCpuNoiseWindow. The starved prober's observation backlog
        // produces straggler timeout records for several periods after the
        // service lets go of the CPU; without the hangover those stragglers
        // reach Algorithm-1 voting and fabricate a switch problem.
        host_noise_until_[h.value] = now + kCpuNoiseWindow;
        it = anomalous_rnics.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Blame window: anomalous now and for the next minute (§5).
  for (const auto& [r, frac] : anomalous_rnics) {
    rnic_blamed_until_[r] = now + kRnicBlameWindow;
  }
  // Attribution-only starvation evidence: a host whose completed probes
  // show bottleneck-scale responder delay is the prime suspect for its own
  // timeouts even when no single RNIC crossed the timeout-ratio threshold
  // (e.g. the fault landed mid-period and the ratio sits at the bar). Its
  // timeouts stay out of fabric attribution, but verdict emission is
  // untouched: a merely-overloaded host still gets its end-host-bottleneck
  // problem, not a noise verdict. P99, not P90: after an Analyzer restart
  // the period folds in a healthy backlog that buries the starvation tail
  // below the 90th percentile (a healthy host's P99 sits at the µs scale,
  // three orders of magnitude under the threshold, so P99 stays specific).
  if (cfg_.enable_cpu_noise_filters) {
    for (std::uint32_t h = 0; h < num_hosts; ++h) {
      const sketch::QuantileSketch& st = host_ok_delay[h];
      if (st.count() >= 3 &&
          st.quantile(0.99) > static_cast<double>(kHighProcDelayThreshold)) {
        triage.cpu_noise_hosts[h] = true;
      }
    }
  }
  // The rest of the triage sets: every host whose noise hangover reaches
  // into this period (the Fig. 6 hosts flagged just now included), and every
  // RNIC blamed into this period. A pod ships exactly these sets, so the
  // global tier triages foreign timeouts against the union of every pod's
  // state, stragglers included.
  for (std::uint32_t h = 0; h < num_hosts; ++h) {
    if (host_noise_until_[h] >= rep.period_start) {
      triage.cpu_noise_hosts[h] = true;
    }
  }
  for (std::uint32_t r = 0; r < num_rnics; ++r) {
    if (rnic_blamed_until_[r] >= rep.period_start) {
      triage.blamed_rnics[r] = rnic_blamed_until_[r];
    }
  }
  const std::vector<std::uint32_t> down_hosts = set_ids(triage.down_hosts);
  if (digest != nullptr) {
    digest->down_hosts = down_hosts;
    for (std::uint32_t r = 0; r < num_rnics; ++r) {
      if (triage.blamed(RnicId{r})) {
        digest->blamed_rnics.emplace_back(r, triage.blamed_rnics[r]);
      }
    }
    digest->cpu_noise_hosts = set_ids(triage.cpu_noise_hosts);
  }

  // ---- step 3: attribute the remaining timeouts ----

  for (Timeout& t : timeouts) {
    if (t.cause.has_value()) continue;
    const ProbeRecord& r = *t.r;
    const AnomalyCause c =
        triage.classify(t.target_host, r.prober_host, r.target, r.prober);
    if (c == AnomalyCause::kSwitchProblem && digest != nullptr &&
        !flagged(local_hosts_, t.target_host.value)) {
      // Federation: the target lives in another pod, so "host down" and
      // "target RNIC blamed" are unknowable here. Voting this path locally
      // would turn every foreign host failure into a fake switch suspect —
      // defer the record to the global tier, which holds the union of every
      // pod's down-host and blamed-RNIC sets. The timeout still counts in
      // this pod's SLA (status-based), just not in cause attribution.
      ForeignTimeout f;
      f.probe_id = r.id;
      f.kind = r.kind;
      f.prober = r.prober;
      f.target = r.target;
      f.prober_host = r.prober_host;
      f.target_host = t.target_host;
      f.service = r.service;
      f.path_known = r.path_known;
      if (r.path_known) {
        for (const routing::Path* p : {&r.fwd_path, &r.rev_path}) {
          for (LinkId l : p->links) f.path_links.push_back(l.value);
        }
      }
      digest->foreign.push_back(std::move(f));
    } else {
      t.cause = c;
    }
  }
  if (digest != nullptr) {
    // A PodDigest is a function of its pod's records, not of their order.
    std::sort(digest->foreign.begin(), digest->foreign.end(),
              [](const ForeignTimeout& a, const ForeignTimeout& b) {
                return a.probe_id < b.probe_id;
              });
  }

  // Tallies, the SLA drop split, and per-cause evidence sets.
  std::vector<const ProbeRecord*> switch_cluster_evidence;
  std::map<std::uint32_t, std::vector<const ProbeRecord*>>
      switch_service_evidence;  // by service id
  std::map<std::uint32_t, std::vector<const ProbeRecord*>>
      rnic_evidence;  // by rnic id
  std::map<std::uint32_t, std::vector<std::uint64_t>> host_down_ids;
  std::vector<std::uint64_t> qpn_reset_ids;
  std::map<std::uint32_t, std::vector<std::uint64_t>> cpu_noise_ids;
  const bool flight_on = obs::recorder().enabled();
  // Recorder-driven auto-triage: aggregate WHERE the evidence probes died
  // from their sampled flight timelines, so an evidence chain cites the
  // fabric's own drop sites next to the vote tally. A kFabricDrop event
  // names the reason and link; a closed timeline without one means the probe
  // timed out with no drop observed (lost to path-incompleteness, or the
  // response leg). std::map keeps the aggregation order deterministic.
  const auto fill_drop_sites = [&](obs::EvidenceChain& c,
                                   const std::vector<const ProbeRecord*>&
                                       ev) {
    if (!flight_on) return;
    std::map<std::string, std::uint64_t> sites;
    for (const ProbeRecord* r : ev) {
      if (!r->flight_sampled) continue;
      const obs::ProbeTimeline* tl = obs::recorder().timeline(r->id);
      if (tl == nullptr) continue;
      if (const obs::TimelineEvent* e =
              tl->find(obs::ProbeEventKind::kFabricDrop)) {
        sites["fabric-drop:" +
              std::string(fabric::drop_reason_name(
                  static_cast<fabric::DropReason>(e->a))) +
              "@link" + std::to_string(e->b)] += 1;
      } else if (tl->closed()) {
        sites["timed-out:no-fabric-drop-observed"] += 1;
      }
    }
    for (auto& [site, cnt] : sites) c.drop_sites.emplace_back(site, cnt);
  };
  for (const Timeout& t : timeouts) {
    if (!t.cause.has_value()) continue;
    const ProbeRecord& r = *t.r;
    if (flight_on && r.flight_sampled) {
      // Close the loop on the probe's timeline: which cause the Analyzer
      // attributed its timeout to.
      obs::recorder().record(r.id, obs::ProbeEventKind::kVerdict,
                             static_cast<std::uint64_t>(*t.cause));
    }
    switch (*t.cause) {
      case AnomalyCause::kHostDown:
        ++rep.timeouts_host_down;
        host_down_ids[t.target_host.value].push_back(r.id);
        break;
      case AnomalyCause::kQpnReset:
        ++rep.timeouts_qpn_reset;
        qpn_reset_ids.push_back(r.id);
        break;
      case AnomalyCause::kAgentCpuNoise:
        ++rep.timeouts_agent_cpu;
        cpu_noise_ids[triage.noisy(t.target_host) ? t.target_host.value
                                                   : r.prober_host.value]
            .push_back(r.id);
        break;
      case AnomalyCause::kRnicProblem:
        ++rep.timeouts_rnic;
        ++t.sla->rnic_drops;
        rnic_evidence[triage.blamed(r.target) ? r.target.value
                                              : r.prober.value]
            .push_back(&r);
        break;
      case AnomalyCause::kSwitchProblem:
        ++rep.timeouts_switch;
        ++t.sla->switch_drops;
        if (r.kind == ProbeKind::kServiceTracing) {
          switch_service_evidence[r.service.value].push_back(&r);
        } else {
          switch_cluster_evidence.push_back(&r);
        }
        break;
    }
  }

  // ---- emit problems ----
  stage.emplace(prof::Stage::kDrainVote);

  for (std::uint32_t h : down_hosts) {
    Problem p;
    p.category = ProblemCategory::kHostDown;
    p.host = HostId{h};
    p.summary = "host " + topo_.host(HostId{h}).name +
                " stopped uploading (host down)";
    obs::EvidenceChain c;
    c.verdict = "host-down";
    c.triage_branch = "timeout-triage: target host silent past threshold";
    add_threshold(c, "host_silence_threshold_ns",
                  static_cast<double>(kHostSilenceThreshold),
                  static_cast<double>(now - last_upload_[h]));
    for (std::uint64_t id : host_down_ids[h]) add_probe(c, id);
    attach_evidence(p, c);
    dlog.chains.push_back(std::move(c));
    rep.problems.push_back(std::move(p));
  }

  for (const auto& [r, frac] : anomalous_rnics) {
    const std::vector<const ProbeRecord*>& ev = rnic_evidence[r];
    Problem p;
    p.category = ProblemCategory::kRnicProblem;
    p.rnic = RnicId{r};
    p.host = topo_.rnic(RnicId{r}).host;
    p.anomalous_probes = ev.size();
    p.summary = "RNIC " + topo_.rnic(RnicId{r}).name +
                " anomalous (ToR-mesh timeout ratio exceeded)";
    obs::EvidenceChain c;
    c.verdict = "anomalous-rnic";
    c.triage_branch =
        "timeout-triage: ToR-mesh timeout ratio, greedy attribution";
    add_threshold(c, "rnic_timeout_threshold", kRnicTimeoutThreshold, frac);
    add_threshold(c, "min_anomalies_for_problem",
                  static_cast<double>(kMinAnomaliesForProblem),
                  static_cast<double>(ev.size()));
    cite_records(c, ev);
    fill_drop_sites(c, ev);
    attach_evidence(p, c);
    dlog.chains.push_back(std::move(c));
    rep.problems.push_back(std::move(p));
  }

  for (std::uint32_t h = 0; h < num_hosts; ++h) {
    if (!cpu_noise_hosts[h]) continue;
    Problem p;
    p.category = ProblemCategory::kAgentCpuNoise;
    p.priority = Priority::kNoise;
    p.host = HostId{h};
    p.summary = "probe noise on " + topo_.host(HostId{h}).name +
                " (service occupies Agent CPU)";
    obs::EvidenceChain c;
    c.verdict = "agent-cpu-noise";
    c.triage_branch =
        "timeout-triage: Fig. 6 filter (multi-RNIC simultaneous timeouts, "
        "starved responder delays, or host-level processing-delay tail)";
    double worst_p90 = 0.0;
    for (RnicId rnic : topo_.host(HostId{h}).rnics) {
      const sketch::QuantileSketch& st = ok_delay[rnic.value];
      if (st.count() > 0) worst_p90 = std::max(worst_p90, st.quantile(0.9));
    }
    add_threshold(c, "starve_delay_threshold_ns",
                  static_cast<double>(kStarveDelayThreshold),
                  worst_p90);
    if (host_ok_delay[h].count() > 0) {
      add_threshold(c, "high_proc_delay_threshold_ns",
                    static_cast<double>(kHighProcDelayThreshold),
                    host_ok_delay[h].quantile(0.9));
    }
    for (std::uint64_t id : cpu_noise_ids[h]) add_probe(c, id);
    attach_evidence(p, c);
    dlog.chains.push_back(std::move(c));
    rep.problems.push_back(std::move(p));
  }

  const auto emit_switch_problem = [&](std::vector<const ProbeRecord*>& ev,
                                       bool from_service, ServiceId svc) {
    if (ev.size() < kMinAnomaliesForProblem) return;
    Problem p;
    p.category = ProblemCategory::kSwitchNetworkProblem;
    p.anomalous_probes = ev.size();
    p.detected_by_service_tracing = from_service;
    p.service = svc;
    obs::EvidenceChain c;
    c.verdict = "switch-network-problem";
    c.triage_branch = from_service
                          ? "timeout-triage: network-attributed "
                            "(service tracing evidence)"
                          : "timeout-triage: network-attributed "
                            "(cluster monitoring evidence)";
    c.service = svc.valid() ? svc.value : 0;
    add_threshold(c, "min_anomalies_for_problem",
                  static_cast<double>(kMinAnomaliesForProblem),
                  static_cast<double>(ev.size()));
    cite_records(c, ev);
    fill_drop_sites(c, ev);
    vote(ev, p, c);
    std::ostringstream os;
    os << "switch network problem (" << ev.size() << " anomalous probes"
       << (from_service ? ", service tracing" : ", cluster monitoring")
       << ")";
    if (!p.suspect_links.empty()) {
      os << ", top suspect link: " << topo_.link(p.suspect_links.front()).name;
    }
    p.summary = os.str();
    attach_evidence(p, c);
    dlog.chains.push_back(std::move(c));
    rep.problems.push_back(std::move(p));
  };
  emit_switch_problem(switch_cluster_evidence, false, ServiceId{});
  for (auto& [svc, ev] : switch_service_evidence) {
    emit_switch_problem(ev, true, ServiceId{svc});
  }

  // ---- step 4: bottlenecks (high RTT / high processing delay) ----
  stage.emplace(prof::Stage::kDrainBottleneck);

  const auto emit_hot = [&](std::vector<const ProbeRecord*>& ev,
                            bool from_service, ServiceId svc) {
    if (ev.size() < kMinAnomaliesForProblem) return;
    Problem p;
    p.category = ProblemCategory::kHighNetworkRtt;
    p.anomalous_probes = ev.size();
    p.detected_by_service_tracing = from_service;
    p.service = svc;
    obs::EvidenceChain c;
    c.verdict = "high-network-rtt";
    c.triage_branch = "bottleneck scan: completed probes above RTT threshold";
    c.service = svc.valid() ? svc.value : 0;
    double worst_rtt = 0.0;
    for (const ProbeRecord* r : ev) {
      worst_rtt = std::max(worst_rtt, static_cast<double>(r->network_rtt));
    }
    add_threshold(c, "high_rtt_threshold_ns",
                  static_cast<double>(cfg_.high_rtt_threshold), worst_rtt);
    add_threshold(c, "min_anomalies_for_problem",
                  static_cast<double>(kMinAnomaliesForProblem),
                  static_cast<double>(ev.size()));
    cite_records(c, ev);
    vote(ev, p, c);
    std::ostringstream os;
    os << "network congestion: " << ev.size() << " probes above RTT threshold"
       << (from_service ? " (service tracing)" : " (cluster monitoring)");
    if (!p.suspect_links.empty()) {
      os << ", hottest link: " << topo_.link(p.suspect_links.front()).name;
    }
    p.summary = os.str();
    attach_evidence(p, c);
    dlog.chains.push_back(std::move(c));
    rep.problems.push_back(std::move(p));
  };
  std::vector<const ProbeRecord*> hot_cluster = pointers(period_.hot_cluster);
  emit_hot(hot_cluster, false, ServiceId{});
  for (const auto& [svc, kept] : period_.hot_service) {
    std::vector<const ProbeRecord*> ev = pointers(kept);
    emit_hot(ev, true, ServiceId{svc});
  }

  // Tail-based: an overloaded host shows in its P90 even when healthy probes
  // to its other RNICs dilute the median. Hosts already reported as noise
  // are skipped.
  for (std::uint32_t h = 0; h < num_hosts; ++h) {
    const sketch::QuantileSketch& st = host_ok_delay[h];
    if (cpu_noise_hosts[h] || st.count() < kMinAnomaliesForProblem ||
        st.quantile(0.9) <= static_cast<double>(kHighProcDelayThreshold)) {
      continue;
    }
    Problem p;
    p.category = ProblemCategory::kHighProcessingDelay;
    p.host = HostId{h};
    p.anomalous_probes = st.count();
    std::ostringstream os;
    os << "end-host bottleneck on " << topo_.host(HostId{h}).name
       << ": p90 processing delay " << st.quantile(0.9) / 1e6 << " ms";
    p.summary = os.str();
    obs::EvidenceChain c;
    c.verdict = "high-processing-delay";
    c.triage_branch = "bottleneck scan: responder processing delay P90";
    add_threshold(c, "high_proc_delay_threshold_ns",
                  static_cast<double>(kHighProcDelayThreshold),
                  st.quantile(0.9));
    // Evidence: the raw probes whose delay entered the host's table (folded
    // records have no ids: this is a capped evidence sample, not a tally).
    add_probes(c, period_.host_ok_probes[h]);
    attach_evidence(p, c);
    dlog.chains.push_back(std::move(c));
    rep.problems.push_back(std::move(p));
  }

  // QPN-reset noise visibility (not a problem, but operators see it).
  if (rep.timeouts_qpn_reset > 0) {
    Problem p;
    p.category = ProblemCategory::kQpnResetNoise;
    p.priority = Priority::kNoise;
    p.anomalous_probes = rep.timeouts_qpn_reset;
    p.summary = "QPN-reset probe noise (stale pinglists after Agent restart)";
    obs::EvidenceChain c;
    c.verdict = "qpn-reset-noise";
    c.triage_branch =
        "timeout-triage: probe addressed a QPN older than the Controller's "
        "freshest registration (or one the Controller lost across a "
        "restart)";
    for (std::uint64_t id : qpn_reset_ids) add_probe(c, id);
    attach_evidence(p, c);
    dlog.chains.push_back(std::move(c));
    rep.problems.push_back(std::move(p));
  }

  // ---- step 5: SLA tracking ----
  stage.emplace(prof::Stage::kDrainSla);

  rep.cluster_sla = period_.cluster_sla.to_report();
  for (auto& [svc, tally] : period_.services) {
    rep.service_slas.emplace_back(ServiceId{svc}, tally.sla.to_report());
    if (digest != nullptr) {
      digest->service_slas.emplace_back(svc, std::move(tally.sla));
    }
  }
  if (digest != nullptr) digest->cluster_sla = std::move(period_.cluster_sla);
  if (obs::EvidenceChain* c = sla_violation(rep.cluster_sla, cfg_, dlog)) {
    for (const Timeout& t : timeouts) {
      if (t.r->kind != ProbeKind::kServiceTracing &&
          (t.cause == AnomalyCause::kRnicProblem ||
           t.cause == AnomalyCause::kSwitchProblem)) {
        sample_probe(*c, t.r->id);
      }
    }
  }

  // ---- step 6: impact (needs the service networks from this period) ----
  stage.emplace(prof::Stage::kDrainImpact);

  // Lowest service id first, as in the global tier: a problem touching
  // several service networks lands in the lowest service it touches.
  std::vector<ServiceNetDigest> net_list;
  net_list.reserve(period_.services.size());
  ServiceProbes service_probes;
  for (auto& [svc, tally] : period_.services) {
    ServiceNetDigest& d = net_list.emplace_back();
    d.service = svc;
    d.links = set_ids(tally.links);
    d.rnics = set_ids(tally.rnics);
    d.hosts = set_ids(tally.hosts);
    service_probes.emplace(svc, std::move(tally.probes));
  }
  if (digest != nullptr) digest->service_nets = net_list;
  assess_impact(rep.problems, net_list);
  innocent_chains(rep.problems, dlog, &service_probes);

  stage.reset();

  // Period-end bookkeeping (metric tallies, history/diagnosis retention,
  // journal spill) is its own profiled stage. Its scope is declared after
  // the pipeline's locals, so their teardown at return is not counted in it.
  prof::StageScope diaglog_scope(prof::Stage::kDrainDiaglog);
  metrics_.timeouts_by_cause[static_cast<int>(AnomalyCause::kHostDown)].inc(
      rep.timeouts_host_down);
  metrics_.timeouts_by_cause[static_cast<int>(AnomalyCause::kQpnReset)].inc(
      rep.timeouts_qpn_reset);
  metrics_.timeouts_by_cause[static_cast<int>(AnomalyCause::kAgentCpuNoise)]
      .inc(rep.timeouts_agent_cpu);
  metrics_.timeouts_by_cause[static_cast<int>(AnomalyCause::kRnicProblem)]
      .inc(rep.timeouts_rnic);
  metrics_.timeouts_by_cause[static_cast<int>(AnomalyCause::kSwitchProblem)]
      .inc(rep.timeouts_switch);
  for (const Problem& p : rep.problems) {
    metrics_.problems_by_category[static_cast<int>(p.category)].inc();
    metrics_.problems_by_priority[static_cast<int>(p.priority)].inc();
  }

  return retain(std::move(rep), std::move(dlog), cfg_.history_limit);
}

}  // namespace rpm::core
