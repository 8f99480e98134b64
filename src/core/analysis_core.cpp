// The Analyzer's period pipeline (§4.3) over one period's drained probe
// records: timeout triage, anomalous-RNIC detection, Algorithm-1
// localization, bottleneck scans, SLA tables and impact. The verdict steps
// it shares with the GlobalAnalyzer are in core/verdict.h.
//
// The report is a function of the period's record multiset, not of the
// order in which records arrived: every tie is broken by a total order,
// every emission loop walks ascending keys, and every evidence sample keeps
// the smallest probe ids (sample_probe).
#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <type_traits>

#include "common/stats.h"
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

// Sketch-mode adapter: a per-key delay statistic backed either by the exact
// PercentileWindow (sketch_mode == kOff — byte-identical to the historical
// path, the sketch member stays empty) or by a mergeable QuantileSketch
// seeded from the Agents' folded summaries plus this period's raw outlier
// records (kOn).
struct DelayStat {
  PercentileWindow win;
  sketch::QuantileSketch sk;
  bool use_sketch = false;

  void add(double v) {
    if (use_sketch) {
      sk.add(v);
    } else {
      win.add(v);
    }
  }
  // Non-const: PercentileWindow::percentile sorts its window lazily.
  [[nodiscard]] std::size_t count() const {
    return use_sketch ? static_cast<std::size_t>(sk.count()) : win.count();
  }
  [[nodiscard]] double percentile(double q) {
    return use_sketch ? sk.quantile(q) : win.percentile(q);
  }
};

// Exact SLA table over raw records (sketch_mode == kOff).
SlaReport make_sla(const std::vector<const ProbeRecord*>& records,
                   const std::unordered_set<std::uint64_t>& rnic_timeouts,
                   const std::unordered_set<std::uint64_t>& switch_timeouts) {
  SlaReport sla;
  PercentileWindow rtt;
  PercentileWindow proc;
  for (const ProbeRecord* r : records) {
    ++sla.probes;
    if (r->status == ProbeStatus::kTimeout) {
      ++sla.timeouts;
      if (rnic_timeouts.contains(r->id)) sla.rnic_drop_rate += 1.0;
      if (switch_timeouts.contains(r->id)) sla.switch_drop_rate += 1.0;
    } else {
      rtt.add(static_cast<double>(r->network_rtt));
      proc.add(static_cast<double>(r->responder_delay));
    }
  }
  if (sla.probes > 0) {
    sla.rnic_drop_rate /= static_cast<double>(sla.probes);
    sla.switch_drop_rate /= static_cast<double>(sla.probes);
  }
  sla.rtt_mean = rtt.mean();
  sla.rtt_p50 = rtt.percentile(0.50);
  sla.rtt_p90 = rtt.percentile(0.90);
  sla.rtt_p99 = rtt.percentile(0.99);
  sla.rtt_p999 = rtt.percentile(0.999);
  sla.proc_p50 = proc.percentile(0.50);
  sla.proc_p90 = proc.percentile(0.90);
  sla.proc_p99 = proc.percentile(0.99);
  sla.proc_p999 = proc.percentile(0.999);
  return sla;
}

// Mergeable SLA state of `records`: exact counts, sketched distributions,
// seeded with the Agents' folded healthy probes when `summary` is given.
// Timeouts in neither id set count as probes and timeouts but carry no drop
// attribution (a pod's foreign timeouts: the global tier attributes them).
SlaDigest sla_digest(const std::vector<const ProbeRecord*>& records,
                     const sketch::HostSummary* summary,
                     const std::unordered_set<std::uint64_t>& rnic_timeouts,
                     const std::unordered_set<std::uint64_t>& switch_timeouts) {
  SlaDigest d;
  if (summary != nullptr) {
    d.rtt.merge(summary->rtt);
    for (const auto& [rid, sk] : summary->ok_delay_by_target) d.proc.merge(sk);
    d.probes += summary->folded_records;
  }
  for (const ProbeRecord* r : records) {
    ++d.probes;
    if (r->status == ProbeStatus::kTimeout) {
      ++d.timeouts;
      if (rnic_timeouts.contains(r->id)) ++d.rnic_drops;
      if (switch_timeouts.contains(r->id)) ++d.switch_drops;
    } else {
      d.rtt.add(static_cast<double>(r->network_rtt));
      d.proc.add(static_cast<double>(r->responder_delay));
    }
  }
  return d;
}

// The ids of an unordered set, or the keys of an unordered map, ascending.
// Emission loops walk these, so no verdict depends on hash order.
template <typename Container>
std::vector<std::uint32_t> sorted_keys(const Container& c) {
  std::vector<std::uint32_t> keys;
  keys.reserve(c.size());
  for (const auto& e : c) {
    if constexpr (std::is_same_v<std::decay_t<decltype(e)>, std::uint32_t>) {
      keys.push_back(e);
    } else {
      keys.push_back(e.first);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

const PeriodReport& Analyzer::analyze_period(
    const std::vector<ProbeRecord>& records,
    const sketch::HostSummary& summary, TimeNs now) {
  FederationScratch* const fed = fed_;
  PeriodReport rep;
  rep.period_start = last_period_end_;
  rep.period_end = now;
  last_period_end_ = now;

  rep.records_processed = records.size();

  if (fed != nullptr) {
    // The other outputs are assigned whole below.
    fed->foreign.clear();
    fed->service_slas.clear();
  }

  // Sketch mode (ROADMAP "Switch-side sketch summaries"): the Agents' folded
  // healthy-probe summaries and the switches' per-link sketches feed the
  // statistics below. Both drains are empty no-ops in kOff.
  const bool sk_on = cfg_.sketch_mode == SketchMode::kOn;
  std::map<std::uint32_t, sketch::LinkSketch> link_sketches;
  if (sk_on) link_sketches = sketch_store_.drain_period();

  // Diagnosis explainability (src/obs): every verdict this period gets an
  // EvidenceChain — input probe ids, thresholds compared, Algorithm 1 vote
  // tally, triage branch — collected into one DiagnosisLog.
  obs::DiagnosisLog dlog;
  dlog.period_start = rep.period_start;
  dlog.period_end = rep.period_end;
  const auto add_probes = [](obs::EvidenceChain& c,
                             const std::vector<const ProbeRecord*>& ev) {
    for (const ProbeRecord* r : ev) add_probe(c, r->id);
  };
  // Algorithm 1 over the evidence probes' forward and ACK paths.
  const auto vote = [](const std::vector<const ProbeRecord*>& ev, Problem& p,
                       obs::EvidenceChain& c) {
    VoteTally tally;
    for (const ProbeRecord* r : ev) {
      if (!r->path_known) continue;
      for (const routing::Path* path : {&r->fwd_path, &r->rev_path}) {
        for (LinkId l : path->links) tally.add_link(l.value);
        for (SwitchId s : path->switches) tally.add_switch(s.value);
      }
    }
    tally.decide(p, &c);
  };

  metrics_.periods.inc();
  // The profiled pipeline stage running now: emplace() closes the previous
  // stage's sample and opens the next; reset() closes out. Steps 1-3 are
  // all drain.triage.
  std::optional<prof::StageScope> stage;

  // ---- step 1: non-network timeouts and probe noise (§4.3.1) ----
  stage.emplace(prof::Stage::kDrainTriage);

  TriageSets triage;
  triage.period_start = rep.period_start;
  for (std::uint32_t h : known_hosts_) {
    const auto it = last_upload_.find(h);
    if (it == last_upload_.end() ||
        now - it->second > kHostSilenceThreshold) {
      triage.down_hosts.insert(h);
    }
  }

  std::vector<std::optional<AnomalyCause>> cause(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ProbeRecord& r = records[i];
    if (r.status != ProbeStatus::kTimeout) continue;
    const HostId target_host = topo_.rnic(r.target).host;
    if (triage.down_hosts.contains(target_host.value)) {
      cause[i] = AnomalyCause::kHostDown;
      continue;
    }
    // QPN-reset noise: the probe addressed a QPN older than the freshest
    // registration the Controller holds — or a QPN the Controller has no
    // registration for at all (it restarted and lost its registry, and the
    // target has not re-registered yet). Both are control-plane staleness,
    // not network loss.
    if (const auto info = directory_->comm_info(r.target);
        !info || info->qpn != r.target_qpn) {
      cause[i] = AnomalyCause::kQpnReset;
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
  std::set<std::uint32_t> anomalous_rnics;
  // Observed timeout ratio at the moment each RNIC was blamed (evidence).
  std::unordered_map<std::uint32_t, double> blamed_frac;
  std::unordered_map<std::uint32_t, RnicStat> per_rnic;
  for (;;) {
    per_rnic.clear();
    for (std::size_t i = 0; i < records.size(); ++i) {
      const ProbeRecord& r = records[i];
      if (r.kind != ProbeKind::kTorMesh || cause[i].has_value()) continue;
      if (anomalous_rnics.contains(r.prober.value) ||
          anomalous_rnics.contains(r.target.value)) {
        continue;
      }
      RnicStat& st = per_rnic[r.target.value];
      ++st.total;
      if (r.status == ProbeStatus::kTimeout) ++st.timeouts;
    }
    if (sk_on) {
      // Folded ToR-mesh OK counts dilute timeout ratios exactly as their raw
      // records would; pairs touching an already-blamed RNIC are discounted
      // the same way the raw loop above discounts them.
      for (const auto& [pair, cnt] : summary.tormesh_ok) {
        if (anomalous_rnics.contains(pair.first) ||
            anomalous_rnics.contains(pair.second)) {
          continue;
        }
        per_rnic[pair.second].total += cnt;
      }
    }
    // The worst RNIC above the threshold, by a strict total order so that
    // no tie falls to the map's iteration order: higher timeout ratio, then
    // more timeouts (more evidence at an equal ratio), then the lower id.
    struct Candidate {
      std::uint32_t rnic;
      double frac;
      std::size_t timeouts;
    };
    std::optional<Candidate> worst;
    for (const auto& [rnic, st] : per_rnic) {
      if (st.total < 3) continue;
      const Candidate c{rnic,
                        static_cast<double>(st.timeouts) /
                            static_cast<double>(st.total),
                        st.timeouts};
      if (c.frac <= kRnicTimeoutThreshold) continue;
      if (!worst || c.frac > worst->frac ||
          (c.frac == worst->frac &&
           (c.timeouts > worst->timeouts ||
            (c.timeouts == worst->timeouts && c.rnic < worst->rnic)))) {
        worst = c;
      }
    }
    if (!worst) break;
    anomalous_rnics.insert(worst->rnic);
    blamed_frac[worst->rnic] = worst->frac;
  }

  // Responder-delay evidence per RNIC over ALL completed probes (the greedy
  // loop above excludes blamed RNICs from its stats, but the Fig. 6 filter
  // below needs their delays). In sketch mode the stat is seeded from the
  // Agents' folded per-target delay sketches, then raw outlier records merge
  // in on top.
  std::unordered_map<std::uint32_t, DelayStat> ok_delay_by_rnic;
  std::unordered_map<std::uint32_t, DelayStat> host_ok_delay;
  if (sk_on) {
    for (const auto& [rid, sk] : summary.ok_delay_by_target) {
      DelayStat& st = ok_delay_by_rnic[rid];
      st.use_sketch = true;
      st.sk.merge(sk);
      DelayStat& hs = host_ok_delay[topo_.rnic(RnicId{rid}).host.value];
      hs.use_sketch = true;
      hs.sk.merge(sk);
    }
  }
  for (const ProbeRecord& r : records) {
    if (r.status == ProbeStatus::kOk) {
      auto [sit, inserted] = ok_delay_by_rnic.try_emplace(r.target.value);
      if (inserted) sit->second.use_sketch = sk_on;
      sit->second.add(static_cast<double>(r.responder_delay));
      auto [hit, hinserted] =
          host_ok_delay.try_emplace(topo_.rnic(r.target).host.value);
      if (hinserted) hit->second.use_sketch = sk_on;
      hit->second.add(static_cast<double>(r.responder_delay));
    }
  }

  // Figure 6 false-positive filters: the service occupying the Agent's CPU
  // makes probes to *all* of a host's RNICs time out at once, and/or shows
  // up as huge responder delays on the probes that did complete.
  std::set<std::uint32_t> cpu_noise_hosts;
  if (cfg_.enable_cpu_noise_filters) {
    std::unordered_map<std::uint32_t, std::size_t> anomalous_per_host;
    for (std::uint32_t r : anomalous_rnics) {
      ++anomalous_per_host[topo_.rnic(RnicId{r}).host.value];
    }
    for (auto it = anomalous_rnics.begin(); it != anomalous_rnics.end();) {
      const HostId h = topo_.rnic(RnicId{*it}).host;
      const bool multi_rnic_simultaneous =
          anomalous_per_host[h.value] >= 2;
      bool starved_responder = false;
      if (auto sit = ok_delay_by_rnic.find(*it);
          sit != ok_delay_by_rnic.end()) {
        auto& st = sit->second;
        starved_responder =
            st.count() > 0 &&
            st.percentile(0.9) >
                static_cast<double>(kStarveDelayThreshold);
      }
      // Third Fig. 6 signal: responder processing delay (④-③) is purely
      // host-side — a switch or link fault times probes out but leaves the
      // delay of the probes that DID complete at the µs scale. An anomalous
      // RNIC on a host whose completed probes show bottleneck-scale delays
      // is therefore the service starving the Agent, even when only one of
      // the host's RNICs crossed the timeout threshold and the per-RNIC p90
      // sits below the starve bar.
      bool starved_host = false;
      if (auto hit = host_ok_delay.find(h.value);
          hit != host_ok_delay.end()) {
        auto& st = hit->second;
        starved_host =
            st.count() >= 3 &&
            st.percentile(0.9) >
                static_cast<double>(kHighProcDelayThreshold);
      }
      if (multi_rnic_simultaneous || starved_responder || starved_host) {
        cpu_noise_hosts.insert(h.value);
        it = anomalous_rnics.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Blame window: anomalous now and for the next minute (§5).
  for (std::uint32_t r : anomalous_rnics) {
    rnic_blamed_until_[r] = now + kRnicBlameWindow;
  }
  // Noise hangover: a host the Fig. 6 filter flagged keeps filtering for
  // kCpuNoiseWindow. The starved prober's observation backlog produces
  // straggler timeout records for several periods after the service lets
  // go of the CPU; without the hangover those stragglers reach Algorithm-1
  // voting and fabricate a switch problem.
  for (std::uint32_t h : cpu_noise_hosts) {
    host_noise_until_[h] = now + kCpuNoiseWindow;
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
    for (auto& [h, st] : host_ok_delay) {
      if (st.count() >= 3 &&
          st.percentile(0.99) >
              static_cast<double>(kHighProcDelayThreshold)) {
        triage.cpu_noise_hosts.insert(h);
      }
    }
  }
  // The rest of the triage sets: every host whose noise hangover reaches
  // into this period (the Fig. 6 hosts flagged just now included), and every
  // RNIC blamed into this period. A pod ships exactly these sets, so the
  // global tier triages foreign timeouts against the union of every pod's
  // state, stragglers included.
  for (const auto& [h, until] : host_noise_until_) {
    if (until >= rep.period_start) triage.cpu_noise_hosts.insert(h);
  }
  for (const auto& [r, until] : rnic_blamed_until_) {
    if (until >= rep.period_start) triage.blamed_rnics.emplace(r, until);
  }
  const std::vector<std::uint32_t> down_hosts = sorted_keys(triage.down_hosts);
  if (fed != nullptr) {
    fed->down_hosts = down_hosts;
    fed->blamed_rnics.assign(triage.blamed_rnics.begin(),
                             triage.blamed_rnics.end());
    std::sort(fed->blamed_rnics.begin(), fed->blamed_rnics.end());
    fed->cpu_noise_hosts = sorted_keys(triage.cpu_noise_hosts);
  }

  // ---- step 3: attribute the remaining timeouts ----

  for (std::size_t i = 0; i < records.size(); ++i) {
    const ProbeRecord& r = records[i];
    if (r.status != ProbeStatus::kTimeout || cause[i].has_value()) continue;
    const HostId target_host = topo_.rnic(r.target).host;
    const AnomalyCause c =
        triage.classify(target_host, r.prober_host, r.target, r.prober);
    if (c == AnomalyCause::kSwitchProblem && fed != nullptr &&
        !fed->local_hosts.contains(target_host.value)) {
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
      f.target_host = target_host;
      f.service = r.service;
      f.path_known = r.path_known;
      if (r.path_known) {
        for (const routing::Path* p : {&r.fwd_path, &r.rev_path}) {
          for (LinkId l : p->links) f.path_links.push_back(l.value);
          for (SwitchId s : p->switches) f.path_switches.push_back(s.value);
        }
      }
      fed->foreign.push_back(std::move(f));
    } else {
      cause[i] = c;
    }
  }
  if (fed != nullptr) {
    // A PodDigest is a function of its pod's records, not of their order.
    std::sort(fed->foreign.begin(), fed->foreign.end(),
              [](const ForeignTimeout& a, const ForeignTimeout& b) {
                return a.probe_id < b.probe_id;
              });
  }

  // Tallies + per-cause evidence sets.
  std::unordered_set<std::uint64_t> rnic_timeout_ids;
  std::unordered_set<std::uint64_t> switch_timeout_ids;
  std::vector<const ProbeRecord*> switch_cluster_evidence;
  std::map<std::uint32_t, std::vector<const ProbeRecord*>>
      switch_service_evidence;  // by service id
  std::unordered_map<std::uint32_t, std::vector<const ProbeRecord*>>
      rnic_evidence;  // by rnic id
  std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> host_down_ids;
  std::vector<std::uint64_t> qpn_reset_ids;
  std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> cpu_noise_ids;
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
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!cause[i].has_value()) continue;
    const ProbeRecord& r = records[i];
    if (flight_on && r.flight_sampled) {
      // Close the loop on the probe's timeline: which cause the Analyzer
      // attributed its timeout to.
      obs::recorder().record(r.id, obs::ProbeEventKind::kVerdict,
                             static_cast<std::uint64_t>(*cause[i]));
    }
    switch (*cause[i]) {
      case AnomalyCause::kHostDown:
        ++rep.timeouts_host_down;
        host_down_ids[topo_.rnic(r.target).host.value].push_back(r.id);
        break;
      case AnomalyCause::kQpnReset:
        ++rep.timeouts_qpn_reset;
        qpn_reset_ids.push_back(r.id);
        break;
      case AnomalyCause::kAgentCpuNoise: {
        ++rep.timeouts_agent_cpu;
        const std::uint32_t th = topo_.rnic(r.target).host.value;
        cpu_noise_ids[triage.noisy(HostId{th}) ? th : r.prober_host.value]
            .push_back(r.id);
        break;
      }
      case AnomalyCause::kRnicProblem:
        ++rep.timeouts_rnic;
        rnic_timeout_ids.insert(r.id);
        rnic_evidence[triage.blamed(r.target) ? r.target.value
                                              : r.prober.value]
            .push_back(&r);
        break;
      case AnomalyCause::kSwitchProblem:
        ++rep.timeouts_switch;
        switch_timeout_ids.insert(r.id);
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
    const auto lit = last_upload_.find(h);
    add_threshold(c, "host_silence_threshold_ns",
                  static_cast<double>(kHostSilenceThreshold),
                  static_cast<double>(lit == last_upload_.end()
                                          ? now
                                          : now - lit->second));
    if (const auto idit = host_down_ids.find(h);
        idit != host_down_ids.end()) {
      for (std::uint64_t id : idit->second) add_probe(c, id);
    }
    attach_evidence(p, c);
    dlog.chains.push_back(std::move(c));
    rep.problems.push_back(std::move(p));
  }

  for (std::uint32_t r : anomalous_rnics) {
    Problem p;
    p.category = ProblemCategory::kRnicProblem;
    p.rnic = RnicId{r};
    p.host = topo_.rnic(RnicId{r}).host;
    p.anomalous_probes = rnic_evidence[r].size();
    p.summary = "RNIC " + topo_.rnic(RnicId{r}).name +
                " anomalous (ToR-mesh timeout ratio exceeded)";
    obs::EvidenceChain c;
    c.verdict = "anomalous-rnic";
    c.triage_branch =
        "timeout-triage: ToR-mesh timeout ratio, greedy attribution";
    const auto fit = blamed_frac.find(r);
    add_threshold(c, "rnic_timeout_threshold", kRnicTimeoutThreshold,
                  fit == blamed_frac.end() ? 0.0 : fit->second);
    add_threshold(c, "min_anomalies_for_problem",
                  static_cast<double>(kMinAnomaliesForProblem),
                  static_cast<double>(rnic_evidence[r].size()));
    add_probes(c, rnic_evidence[r]);
    fill_drop_sites(c, rnic_evidence[r]);
    attach_evidence(p, c);
    dlog.chains.push_back(std::move(c));
    rep.problems.push_back(std::move(p));
  }

  for (std::uint32_t h : cpu_noise_hosts) {
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
    for (auto& [rid, st] : ok_delay_by_rnic) {
      if (topo_.rnic(RnicId{rid}).host.value == h && st.count() > 0) {
        worst_p90 = std::max(worst_p90, st.percentile(0.9));
      }
    }
    add_threshold(c, "starve_delay_threshold_ns",
                  static_cast<double>(kStarveDelayThreshold),
                  worst_p90);
    if (auto hit = host_ok_delay.find(h); hit != host_ok_delay.end() &&
                                          hit->second.count() > 0) {
      add_threshold(c, "high_proc_delay_threshold_ns",
                    static_cast<double>(kHighProcDelayThreshold),
                    hit->second.percentile(0.9));
    }
    if (const auto idit = cpu_noise_ids.find(h);
        idit != cpu_noise_ids.end()) {
      for (std::uint64_t id : idit->second) add_probe(c, id);
    }
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
    add_probes(c, ev);
    fill_drop_sites(c, ev);
    vote(ev, p, c);
    if (sk_on && !p.suspect_links.empty()) {
      // Corroborate the vote winner with the switch-side sketch: how many
      // datagrams the fabric itself counted dropped on that link this
      // period. Zero with votes present usually means the drops predate the
      // period boundary (sketches flush on the 5 s cadence).
      const auto lsit = link_sketches.find(p.suspect_links.front().value);
      add_threshold(c, "sketch_link_drops", 0.0,
                    lsit == link_sketches.end()
                        ? 0.0
                        : static_cast<double>(lsit->second.total_drops()));
    }
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

  std::vector<const ProbeRecord*> hot_cluster;
  std::map<std::uint32_t, std::vector<const ProbeRecord*>> hot_service;
  std::unordered_map<std::uint32_t, DelayStat> host_proc_delay;
  std::unordered_map<std::uint32_t, std::vector<std::uint64_t>>
      proc_probe_ids;  // every probe whose delay entered the host's window
  if (sk_on) {
    // Folded healthy delays roll up to the target's host so the CPU-overload
    // tail scan sees the same population it would with raw records (the ids
    // list stays raw-only — it is a capped evidence sample, not a tally).
    for (const auto& [rid, sk] : summary.ok_delay_by_target) {
      DelayStat& st = host_proc_delay[topo_.rnic(RnicId{rid}).host.value];
      st.use_sketch = true;
      st.sk.merge(sk);
    }
  }
  for (const ProbeRecord& r : records) {
    if (r.status != ProbeStatus::kOk) continue;
    if (r.network_rtt > cfg_.high_rtt_threshold) {
      if (r.kind == ProbeKind::kServiceTracing) {
        hot_service[r.service.value].push_back(&r);
      } else {
        hot_cluster.push_back(&r);
      }
    }
    const std::uint32_t th = topo_.rnic(r.target).host.value;
    auto [pit, inserted] = host_proc_delay.try_emplace(th);
    if (inserted) pit->second.use_sketch = sk_on;
    pit->second.add(static_cast<double>(r.responder_delay));
    proc_probe_ids[th].push_back(r.id);
  }
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
    add_probes(c, ev);
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
  emit_hot(hot_cluster, false, ServiceId{});
  for (auto& [svc, ev] : hot_service) emit_hot(ev, true, ServiceId{svc});

  for (std::uint32_t h : sorted_keys(host_proc_delay)) {
    if (cpu_noise_hosts.contains(h)) continue;  // already reported as noise
    DelayStat& st = host_proc_delay.at(h);
    // Tail-based: an overloaded host shows in its P90 even when healthy
    // probes to its other RNICs dilute the median.
    if (st.count() >= kMinAnomaliesForProblem &&
        st.percentile(0.9) >
            static_cast<double>(kHighProcDelayThreshold)) {
      Problem p;
      p.category = ProblemCategory::kHighProcessingDelay;
      p.host = HostId{h};
      p.anomalous_probes = st.count();
      std::ostringstream os;
      os << "end-host bottleneck on " << topo_.host(HostId{h}).name
         << ": p90 processing delay "
         << st.percentile(0.9) / 1e6 << " ms";
      p.summary = os.str();
      obs::EvidenceChain c;
      c.verdict = "high-processing-delay";
      c.triage_branch = "bottleneck scan: responder processing delay P90";
      add_threshold(c, "high_proc_delay_threshold_ns",
                    static_cast<double>(kHighProcDelayThreshold),
                    st.percentile(0.9));
      if (const auto idit = proc_probe_ids.find(h);
          idit != proc_probe_ids.end()) {
        for (std::uint64_t id : idit->second) add_probe(c, id);
      }
      attach_evidence(p, c);
      dlog.chains.push_back(std::move(c));
      rep.problems.push_back(std::move(p));
    }
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

  std::vector<const ProbeRecord*> cluster_records;
  std::unordered_map<std::uint32_t, std::vector<const ProbeRecord*>>
      service_records;
  for (const ProbeRecord& r : records) {
    if (r.kind == ProbeKind::kServiceTracing) {
      service_records[r.service.value].push_back(&r);
    } else {
      cluster_records.push_back(&r);
    }
  }
  // Folded records never carry a service id, so service SLAs stay exact;
  // the cluster SLA is its mergeable digest's table when sketch mode is on.
  // A pod also ships the digests (exact counts + DDSketch tails), so the
  // global cluster table is identical no matter how pods are grouped.
  SlaDigest cluster_digest;
  if (sk_on || fed != nullptr) {
    cluster_digest = sla_digest(cluster_records, sk_on ? &summary : nullptr,
                                rnic_timeout_ids, switch_timeout_ids);
  }
  rep.cluster_sla = sk_on ? cluster_digest.to_report()
                          : make_sla(cluster_records, rnic_timeout_ids,
                                     switch_timeout_ids);
  const std::vector<std::uint32_t> svc_ids = sorted_keys(service_records);
  for (std::uint32_t svc : svc_ids) {
    rep.service_slas.emplace_back(
        ServiceId{svc}, make_sla(service_records.at(svc), rnic_timeout_ids,
                                 switch_timeout_ids));
  }
  if (fed != nullptr) {
    fed->cluster_sla = std::move(cluster_digest);
    for (std::uint32_t svc : svc_ids) {
      fed->service_slas.emplace_back(
          svc, sla_digest(service_records.at(svc), nullptr, rnic_timeout_ids,
                          switch_timeout_ids));
    }
  }
  if (obs::EvidenceChain* c = sla_violation(rep.cluster_sla, cfg_, dlog)) {
    for (const ProbeRecord* r : cluster_records) {
      if (rnic_timeout_ids.contains(r->id) ||
          switch_timeout_ids.contains(r->id)) {
        sample_probe(*c, r->id);
      }
    }
  }

  // ---- step 6: impact (needs the service networks from this period) ----
  stage.emplace(prof::Stage::kDrainImpact);

  // Service network = every link/rnic/host the service's tracing probes
  // touched this period.
  struct ServiceNet {
    std::unordered_set<std::uint32_t> links;
    std::unordered_set<std::uint32_t> rnics;
    std::unordered_set<std::uint32_t> hosts;
  };
  std::unordered_map<std::uint32_t, ServiceNet> nets;
  for (const ProbeRecord& r : records) {
    if (r.kind != ProbeKind::kServiceTracing) continue;
    ServiceNet& n = nets[r.service.value];
    n.rnics.insert(r.prober.value);
    n.rnics.insert(r.target.value);
    n.hosts.insert(topo_.rnic(r.prober).host.value);
    n.hosts.insert(topo_.rnic(r.target).host.value);
    if (r.path_known) {
      for (const routing::Path* p : {&r.fwd_path, &r.rev_path}) {
        for (LinkId l : p->links) n.links.insert(l.value);
      }
    }
  }
  // Lowest service id first, as in the global tier: a problem touching
  // several service networks lands in the lowest service it touches.
  std::vector<ServiceNetDigest> net_list;
  net_list.reserve(nets.size());
  for (const auto& [svc, net] : nets) {
    ServiceNetDigest& d = net_list.emplace_back();
    d.service = svc;
    d.links.assign(net.links.begin(), net.links.end());
    d.rnics.assign(net.rnics.begin(), net.rnics.end());
    d.hosts.assign(net.hosts.begin(), net.hosts.end());
    std::sort(d.links.begin(), d.links.end());
    std::sort(d.rnics.begin(), d.rnics.end());
    std::sort(d.hosts.begin(), d.hosts.end());
  }
  std::sort(net_list.begin(), net_list.end(),
            [](const ServiceNetDigest& a, const ServiceNetDigest& b) {
              return a.service < b.service;
            });
  if (fed != nullptr) fed->service_nets = net_list;
  assess_impact(rep.problems, net_list);
  innocent_chains(rep.problems, dlog, &service_records);

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
  if (sk_on) {
    // Links whose sketches show drops this period are the ones whose raw
    // records the pipeline still wants verbatim (upload thinning keeps every
    // timeout raw, so the fallback set is already satisfied — this counts
    // how often it was needed).
    std::uint64_t flagged = 0;
    for (const auto& [lid, ls] : link_sketches) {
      if (ls.total_drops() > 0) ++flagged;
    }
    metrics_.raw_fallback_links.inc(flagged);
  }

  return retain(std::move(rep), std::move(dlog), cfg_.history_limit);
}

}  // namespace rpm::core
