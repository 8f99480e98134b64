// analyzer_replay: the analysis layer alone, with no simulator.
//
// A seeded generator replays ~200k probe records per 20 s period for a
// 1024-host Clos (two RNICs per host): ToR-mesh and inter-ToR records from
// the Controller's own pinglists, plus service-tracing records for two
// watched services, every record carrying EcmpRouter-traced forward and
// reverse paths. Two faults shape the timeouts: one dead RNIC (every probe
// to or from it times out) and one corrupting directed fabric link on a
// service flow's path (half the probes whose forward path crosses it time
// out). Records enter as sequenced UploadBatches through
// Analyzer::sink().submit(); every Analyzer::analyze_now() is timed, and each
// period's verdicts must name exactly those two faults.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "calib.h"
#include "common/rng.h"
#include "core/analyzer.h"
#include "core/controller.h"
#include "prof/prof.h"
#include "routing/ecmp.h"
#include "sim/scheduler.h"
#include "telemetry/metrics.h"
#include "topo/topology.h"

namespace rpm::perf {
namespace {

constexpr TimeNs kPeriod = sec(20);
constexpr std::size_t kBatchesPerHostPeriod = 4;  // 5 s uploads, 20 s period
constexpr std::uint32_t kTorMeshPerPeriod = 2;
constexpr std::uint32_t kInterTorPerPeriod = 8;
constexpr std::uint32_t kServicePerPeriod = 8;
constexpr std::uint32_t kServiceRanks = 32;

int periods_per_pass(const Options& opt) { return opt.smoke ? 3 : 20; }

topo::ClosConfig replay_clos() {
  topo::ClosConfig c;
  c.num_pods = 8;
  c.tors_per_pod = 8;
  c.aggs_per_pod = 4;
  c.spines_per_plane = 4;
  c.hosts_per_tor = 16;
  c.rnics_per_host = 2;
  return c;
}

Qpn qpn_of(RnicId r) { return Qpn{1000 + r.value}; }

void register_all(core::Controller& ctrl, const topo::Topology& topo) {
  for (const topo::HostInfo& h : topo.hosts()) {
    std::vector<core::RnicCommInfo> infos;
    for (RnicId r : h.rnics) {
      infos.push_back({r, topo.rnic(r).ip, Gid{r.value + 1ull}, qpn_of(r)});
    }
    ctrl.register_agent(h.id, infos);
  }
}

/// One probe source replayed every period.
struct Source {
  core::ProbeRecord proto;
  std::uint32_t per_period = 1;
  bool dead = false;     // prober or target is the dead RNIC
  bool crosses = false;  // forward path crosses the faulted link
};

/// The generated workload: sources grouped by prober host, and the faults.
struct Inputs {
  std::vector<std::vector<Source>> by_host;
  RnicId dead_rnic;
  LinkId bad_link;
  std::size_t records_per_period = 0;
};

core::ProbeRecord make_proto(const routing::EcmpRouter& router,
                             const topo::Topology& topo, RnicId prober,
                             const core::PinglistEntry& e) {
  core::ProbeRecord r;
  r.kind = e.kind;
  r.prober = prober;
  r.prober_host = topo.rnic(prober).host;
  r.target = e.target;
  r.tuple = e.tuple;
  r.target_qpn = e.target_qpn;
  r.service = e.service;
  FiveTuple rev = e.tuple;
  std::swap(rev.src_ip, rev.dst_ip);
  r.fwd_path = router.resolve(prober, e.target, e.tuple);
  r.rev_path = router.resolve(e.target, prober, rev);
  r.path_known = true;
  return r;
}

/// Builds the sources from the Controller's pinglists and two services'
/// flows, then picks the faults from the seed.
std::unique_ptr<Inputs> generate_inputs(std::uint64_t seed) {
  const topo::Topology topo = topo::build_clos(replay_clos());
  const routing::EcmpRouter router(topo);
  core::Controller ctrl(topo, router);
  register_all(ctrl, topo);
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);

  auto in = std::make_unique<Inputs>();
  in->by_host.resize(topo.num_hosts());
  std::vector<Source> all;
  for (const topo::RnicInfo& ri : topo.rnics()) {
    for (const core::PinglistEntry& e : ctrl.tormesh_pinglist(ri.id).entries) {
      all.push_back({make_proto(router, topo, ri.id, e), kTorMeshPerPeriod});
    }
    for (const core::PinglistEntry& e : ctrl.intertor_pinglist(ri.id).entries) {
      all.push_back({make_proto(router, topo, ri.id, e), kInterTorPerPeriod});
    }
  }
  // Two services, kServiceRanks ranks each on random RNICs, ring traffic.
  std::vector<std::size_t> service_sources;
  for (std::uint32_t svc = 1; svc <= 2; ++svc) {
    std::vector<RnicId> ranks;
    for (std::uint32_t i = 0; i < kServiceRanks; ++i) {
      ranks.push_back(
          RnicId{static_cast<std::uint32_t>(rng.index(topo.num_rnics()))});
    }
    for (std::uint32_t i = 0; i < kServiceRanks; ++i) {
      const RnicId src = ranks[i];
      const RnicId dst = ranks[(i + 1) % kServiceRanks];
      if (src == dst) continue;
      core::PinglistEntry e;
      e.target = dst;
      e.target_qpn = qpn_of(dst);
      e.tuple.src_ip = topo.rnic(src).ip;
      e.tuple.dst_ip = topo.rnic(dst).ip;
      e.tuple.src_port = static_cast<std::uint16_t>(40000 + svc * 100 + i);
      e.kind = core::ProbeKind::kServiceTracing;
      e.service = ServiceId{svc};
      service_sources.push_back(all.size());
      all.push_back({make_proto(router, topo, src, e), kServicePerPeriod});
    }
  }

  // Faults: the agg -> spine hop of a random cross-pod service flow, and a
  // random dead RNIC.
  for (;;) {
    const Source& s = all[service_sources[rng.index(service_sources.size())]];
    const std::vector<LinkId>& links = s.proto.fwd_path.links;
    if (links.size() < 5) continue;  // intra-pod: no spine hop
    in->bad_link = links[2];
    break;
  }
  in->dead_rnic =
      RnicId{static_cast<std::uint32_t>(rng.index(topo.num_rnics()))};

  for (Source& s : all) {
    s.dead = s.proto.prober == in->dead_rnic || s.proto.target == in->dead_rnic;
    const std::vector<LinkId>& fl = s.proto.fwd_path.links;
    s.crosses = std::find(fl.begin(), fl.end(), in->bad_link) != fl.end();
    in->records_per_period += s.per_period;
    in->by_host[s.proto.prober_host.value].push_back(std::move(s));
  }
  return in;
}

const Inputs& inputs(std::uint64_t seed) {
  static std::uint64_t cached_seed = 0;
  static std::unique_ptr<Inputs> cached;
  if (!cached || cached_seed != seed) {
    cached = generate_inputs(seed);
    cached_seed = seed;
  }
  return *cached;
}

/// One period's batches, in submission order.
std::vector<core::UploadBatch> make_period(const Inputs& in,
                                           std::uint64_t seed, int period,
                                           std::vector<std::uint64_t>& seqs,
                                           std::uint64_t& next_id) {
  Rng rng(seed ^ (0x51ed270b27ull * static_cast<std::uint64_t>(period + 1)));
  const TimeNs start = kPeriod * period;
  std::vector<core::UploadBatch> out;
  out.reserve(in.by_host.size() * kBatchesPerHostPeriod);
  for (std::size_t h = 0; h < in.by_host.size(); ++h) {
    const std::vector<Source>& sources = in.by_host[h];
    std::vector<core::ProbeRecord> recs;
    for (const Source& s : sources) {
      for (std::uint32_t k = 0; k < s.per_period; ++k) {
        core::ProbeRecord r = s.proto;
        r.id = next_id++;
        r.sent_at = start + rng.uniform_int(0, kPeriod - 1);
        const bool timeout = s.dead || (s.crosses && rng.chance(0.5));
        r.status = timeout ? core::ProbeStatus::kTimeout
                           : core::ProbeStatus::kOk;
        if (!timeout) {
          r.network_rtt = usec(4) + rng.uniform_int(0, usec(20));
          r.responder_delay = usec(2) + rng.uniform_int(0, usec(6));
          r.prober_delay = usec(3) + rng.uniform_int(0, usec(6));
        }
        recs.push_back(std::move(r));
      }
    }
    std::sort(recs.begin(), recs.end(),
              [](const core::ProbeRecord& a, const core::ProbeRecord& b) {
                return a.sent_at < b.sent_at;
              });
    // kBatchesPerHostPeriod uploads, each the records of its 5 s window.
    const std::size_t n = recs.size();
    for (std::size_t b = 0; b < kBatchesPerHostPeriod; ++b) {
      core::UploadBatch batch;
      batch.host = HostId{static_cast<std::uint32_t>(h)};
      batch.seq = ++seqs[h];
      const std::size_t lo = n * b / kBatchesPerHostPeriod;
      const std::size_t hi = n * (b + 1) / kBatchesPerHostPeriod;
      batch.records.assign(std::make_move_iterator(recs.begin() + lo),
                           std::make_move_iterator(recs.begin() + hi));
      out.push_back(std::move(batch));
    }
  }
  return out;
}

/// Empty when `rep` names exactly the generator's faults; else why not.
std::string check_period(const core::PeriodReport& rep, const Inputs& in,
                         const topo::Topology& topo) {
  const LinkId peer = topo.link(in.bad_link).peer;
  bool rnic_found = false;
  bool cluster_switch_found = false;
  for (const core::Problem& p : rep.problems) {
    using Cat = core::ProblemCategory;
    if (p.category == Cat::kRnicProblem && p.rnic == in.dead_rnic &&
        !rnic_found) {
      rnic_found = true;
      continue;
    }
    if (p.category == Cat::kSwitchNetworkProblem) {
      const bool names_link =
          std::find_if(p.suspect_links.begin(), p.suspect_links.end(),
                       [&](LinkId l) {
                         return l == in.bad_link || l == peer;
                       }) != p.suspect_links.end();
      if (!names_link) return "switch verdict misses the faulted link";
      if (!p.in_service_network || p.priority == core::Priority::kP2) {
        return "switch verdict not tied to the service it hits";
      }
      cluster_switch_found |= !p.detected_by_service_tracing;
      continue;
    }
    return std::string("unexpected verdict: ") + p.summary;
  }
  if (!rnic_found) return "dead RNIC not reported";
  if (!cluster_switch_found) return "faulted link not reported";
  return {};
}

/// Deterministic digest of one period's verdicts and SLA.
std::string digest(const core::PeriodReport& rep) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "p%lld r%zu t%zu/%zu/%zu sla%.17g/%.17g|",
                static_cast<long long>(rep.period_end / sec(1)),
                rep.records_processed, rep.timeouts_rnic, rep.timeouts_switch,
                rep.timeouts_qpn_reset, rep.cluster_sla.rtt_p99,
                rep.cluster_sla.switch_drop_rate);
  out += buf;
  for (const core::Problem& p : rep.problems) {
    std::snprintf(buf, sizeof(buf), "%s:%s:%u:",
                  core::problem_category_name(p.category),
                  core::priority_name(p.priority), p.rnic.value);
    out += buf;
    for (LinkId l : p.suspect_links) out += std::to_string(l.value) + ',';
    out += ';';
  }
  return out + '\n';
}

}  // namespace

Params analyzer_replay_params(const Options& opt) {
  const topo::ClosConfig c = replay_clos();
  Params p;
  p["hosts"] = std::to_string(c.num_pods * c.tors_per_pod * c.hosts_per_tor);
  p["rnics_per_host"] = std::to_string(c.rnics_per_host);
  p["clos"] = std::to_string(c.num_pods) + " pods x " +
              std::to_string(c.tors_per_pod) + " ToRs x " +
              std::to_string(c.hosts_per_tor) + " hosts";
  p["periods_per_pass"] = std::to_string(periods_per_pass(opt));
  p["analysis_period_s"] = std::to_string(kPeriod / sec(1));
  p["records_per_period"] =
      std::to_string(inputs(opt.seed).records_per_period);
  p["batches_per_host_period"] = std::to_string(kBatchesPerHostPeriod);
  p["faults"] = "rnic " + std::to_string(inputs(opt.seed).dead_rnic.value) +
                " dead; link " +
                std::to_string(inputs(opt.seed).bad_link.value) +
                " drops half the probes crossing it";
  p["generator_seed"] = std::to_string(opt.seed);
  return p;
}

Pass analyzer_replay_pass(const Options& opt, PassMode mode) {
  const bool traced = mode == PassMode::kTraced;
  const Inputs& in = inputs(opt.seed);
  Pass out;

  // ---- set-up ----
  sim::InlineScheduler sched;
  PacedClock setup_clock;
  setup_clock.start();
  const Clock::time_point t0 = Clock::now();
  const topo::Topology topo = topo::build_clos(replay_clos());
  const Clock::time_point t1 = Clock::now();
  const routing::EcmpRouter router(topo);
  core::Controller ctrl(topo, router);
  const Clock::time_point t2 = Clock::now();
  core::Analyzer analyzer(topo, ctrl, sched);
  analyzer.register_service({ServiceId{1}, [] { return 0.3; }});
  analyzer.register_service({ServiceId{2}, [] { return 0.9; }});
  const Clock::time_point t3 = Clock::now();
  register_all(ctrl, topo);
  const Clock::time_point t4 = Clock::now();
  setup_clock.stop();
  out.raw_setup_s = setup_clock.raw_s();
  out.setup_s = setup_clock.scaled_s();
  if (mode == PassMode::kSetupOnly) return out;

  // ---- measured phase: submit + close, period by period ----
  prof::Profiler& prof = prof::profiler();
  telemetry::Snapshot before;
  if (traced) {
    prof::ProfilerConfig pcfg;
    pcfg.max_trace_events = 0;
    before = telemetry::registry().snapshot();
    prof.enable(pcfg);
  }
  std::vector<std::uint64_t> seqs(topo.num_hosts(), 0);
  std::uint64_t next_id = 1;
  double submit_ms = 0.0;
  for (int p = 0; p < periods_per_pass(opt); ++p) {
    std::vector<core::UploadBatch> batches =
        make_period(in, opt.seed, p, seqs, next_id);
    sched.run_until(kPeriod * (p + 1));
    // Each period is its own calibration slice; input generation and the
    // checks fall outside every slice.
    PacedClock clock;
    clock.start();
    const Clock::time_point s0 = Clock::now();
    for (core::UploadBatch& b : batches) analyzer.sink().submit(std::move(b));
    const Clock::time_point s1 = Clock::now();
    const core::PeriodReport& rep = analyzer.analyze_now();
    const Clock::time_point s2 = Clock::now();
    clock.stop();
    submit_ms += ms_between(s0, s1);
    out.close_ms.push_back(ms_between(s1, s2) * clock.last_factor());
    out.raw_wall_s += clock.raw_s();
    out.wall_s += clock.scaled_s();

    ++out.ops;
    const std::string why = check_period(rep, in, topo);
    if (!why.empty()) {
      ++out.failures;
      if (out.error.empty()) {
        out.error = "period " + std::to_string(p) + ": " + why;
      }
    }
    out.report += digest(rep);
  }
  if (!traced) return out;

  prof.disable();
  const prof::ProfileReport prep = prof.report();
  const telemetry::Snapshot after = telemetry::registry().snapshot();
  const auto delta = [&](const std::string& name) {
    return after.sum(name) - before.sum(name);
  };
  std::map<std::string, double>& m = out.layers;
  m["ingest.batches"] = delta("rpm_analyzer_batches_total");
  m["ingest.records"] = delta("rpm_analyzer_records_total");
  m["ingest.submit_ms"] = submit_ms;
  m["analyzer.drain_triage_ms"] = stage_ms(prep, prof::Stage::kDrainTriage);
  m["analyzer.drain_vote_ms"] = stage_ms(prep, prof::Stage::kDrainVote);
  m["analyzer.drain_bottleneck_ms"] =
      stage_ms(prep, prof::Stage::kDrainBottleneck);
  m["analyzer.drain_sla_ms"] = stage_ms(prep, prof::Stage::kDrainSla);
  m["analyzer.drain_impact_ms"] = stage_ms(prep, prof::Stage::kDrainImpact);
  m["analyzer.drain_diaglog_ms"] = stage_ms(prep, prof::Stage::kDrainDiaglog);
  m["analyzer.period_close_ms"] = stage_ms(prep, prof::Stage::kPeriodClose);
  m["setup.topology_ms"] = ms_between(t0, t1);
  m["setup.cluster_ms"] = ms_between(t1, t2);
  m["setup.deploy_ms"] = ms_between(t2, t3);
  m["setup.start_ms"] = ms_between(t3, t4);
  return out;
}

}  // namespace rpm::perf
