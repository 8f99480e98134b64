// The simulated workloads: a deployed R-Pingmesh on a simulated Clos cluster
// runs a scripted ChaosPlan, and the ChaosReport scores every verdict
// against the injected faults.
//
//   dml_alltoall      an All2All DML job under DCQCN: fluid plane + CC, flat
//                     Analyzer, raw uploads, the P0/P1 impact path.
//   fed_sketch_chaos  the probing path at 128 hosts on the fold/sketch +
//                     federation write path, with an RNIC and a link fault
//                     and controller and pod-analyzer crashes.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "calib.h"
#include "cc/cc.h"
#include "chaos/chaos.h"
#include "core/rpingmesh.h"
#include "faults/catalog.h"
#include "faults/faults.h"
#include "host/cluster.h"
#include "prof/prof.h"
#include "telemetry/metrics.h"
#include "topo/topology.h"
#include "traffic/dml.h"

namespace rpm::perf {
namespace {

enum class Kind : std::uint8_t { kDml, kFedSketch };

/// Simulated time between RPingmesh::start() and the DML job's start.
constexpr TimeNs kRegistrationSettle = msec(200);

/// Events per calibration slice in untraced passes (~0.1 s of wall time,
/// against ~4 ms per kernel run).
constexpr std::uint64_t kEventsPerSlice = 25000;

/// Forwards every call to the wrapped controller and times update(), the
/// per-flow per-fluid-step CC call.
class TimedRateController final : public fabric::RateController {
 public:
  explicit TimedRateController(fabric::RateController& inner)
      : inner_(inner) {}

  double reset(std::uint32_t flow_slot, double demand_Bps,
               double line_rate_Bps) override {
    return inner_.reset(flow_slot, demand_Bps, line_rate_Bps);
  }
  double update(std::uint32_t flow_slot, const fabric::CcFeedback& fb,
                double current_rate_Bps) override {
    const Clock::time_point t0 = Clock::now();
    const double r = inner_.update(flow_slot, fb, current_rate_Bps);
    total_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    ++updates_;
    return r;
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] std::uint64_t updates() const { return updates_; }
  [[nodiscard]] std::uint64_t total_ns() const { return total_ns_; }

 private:
  fabric::RateController& inner_;
  std::uint64_t updates_ = 0;
  std::uint64_t total_ns_ = 0;
};

struct Shape {
  topo::ClosConfig clos;
  core::RPingmeshConfig rpm;
  TimeNs duration = 0;
};

topo::ClosConfig clos(std::uint32_t pods, std::uint32_t tors_per_pod,
                      std::uint32_t hosts_per_tor) {
  topo::ClosConfig c;
  c.num_pods = pods;
  c.tors_per_pod = tors_per_pod;
  c.aggs_per_pod = 2;
  c.spines_per_plane = 2;
  c.hosts_per_tor = hosts_per_tor;
  c.rnics_per_host = 2;
  c.host_link.capacity_gbps = 100.0;
  c.fabric_link.capacity_gbps = 100.0;
  return c;
}

Shape shape(Kind kind) {
  Shape s;
  switch (kind) {
    case Kind::kFedSketch:
      s.clos = clos(4, 4, 8);  // 128 hosts, 256 RNICs
      s.duration = sec(100);
      s.rpm.federation.pods = 4;
      s.rpm.federation.standby_controller = true;
      s.rpm.analyzer.sketch_mode = core::SketchMode::kOn;
      break;
    case Kind::kDml:
      s.clos = clos(2, 2, 4);  // 16 hosts, 32 RNICs
      s.duration = sec(60);
      break;
  }
  return s;
}

traffic::DmlConfig dml_config(fabric::RateController* cc) {
  traffic::DmlConfig d;
  d.service = ServiceId{42};
  // One rank on every other host: two ranks under each of the four ToRs.
  for (std::uint32_t r = 0; r < 32; r += 4) d.workers.push_back(RnicId{r});
  d.pattern = traffic::CommPattern::kAllToAll;
  d.per_flow_gbps = 10.0;
  d.compute_time = msec(300);
  d.comm_bytes = 100'000'000;
  d.rc_retransmit_timeout = msec(50);  // ride out the lossy episode
  d.controller = cc;
  return d;
}

LinkId first_fabric_link(const topo::Topology& topo) {
  for (const topo::Link& l : topo.links()) {
    if (l.from.is_switch() && l.to.is_switch()) return l.id;
  }
  return LinkId{};
}

/// The first switch-to-switch hop of one job flow.
LinkId job_fabric_link(host::Cluster& cluster, const traffic::DmlService& job) {
  const topo::Topology& topo = cluster.topology();
  const routing::Path& path =
      cluster.fabric().flow_path(job.connections().at(3).flow);
  for (LinkId l : path.links) {
    const topo::Link& link = topo.link(l);
    if (link.from.is_switch() && link.to.is_switch()) return l;
  }
  return LinkId{};
}

chaos::ChaosPlan make_plan(Kind kind, std::uint64_t seed, TimeNs duration,
                           LinkId link) {
  chaos::ChaosPlan plan;
  plan.seed = seed;
  plan.duration = duration;
  if (kind == Kind::kDml) {
    plan.inject(sec(15), "job-link-corruption",
                faults::FaultSpec::corruption(link, 0.15))
        .clear(sec(30), "job-link-corruption");
    return plan;
  }
  plan.inject(sec(25), "rnic5-down", faults::FaultSpec::rnic_down(RnicId{5}))
      .clear(sec(50), "rnic5-down")
      .inject(sec(50), "fabric-corruption",
              faults::FaultSpec::corruption(link, 0.5))
      .controller_crash(sec(30))
      .controller_restart(sec(40))
      .pod_analyzer_crash(sec(65), 1)
      .pod_analyzer_restart(sec(72), 1);
  return plan;
}

/// Start (us since the profiler was enabled) and duration (ms) of every
/// "period.close" event in the profiler's chrome://tracing buffer.
std::vector<std::pair<double, double>> period_closes(
    const std::string& events) {
  std::vector<std::pair<double, double>> out;
  const std::string key = "\"name\":\"period.close\"";
  for (std::size_t at = events.find(key); at != std::string::npos;
       at = events.find(key, at + key.size())) {
    const std::size_t ts = events.find("\"ts\":", at);
    const std::size_t dur = events.find("\"dur\":", at);
    if (ts == std::string::npos || dur == std::string::npos) break;
    out.emplace_back(std::stod(events.substr(ts + 5, 24)),
                     std::stod(events.substr(dur + 6, 24)) / 1e3);
  }
  return out;
}

/// Counter deltas between two registry snapshots.
struct Counts {
  telemetry::Snapshot before;
  telemetry::Snapshot after;

  [[nodiscard]] double get(const std::string& name,
                           const telemetry::Labels& subset = {}) const {
    return after.sum(name, subset) - before.sum(name, subset);
  }
};

/// Median of `k` isolated calls of `fn`, in nanoseconds.
template <typename Fn>
double median_call_ns(int k, Fn&& fn) {
  std::vector<double> ns;
  ns.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ns.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count()));
  }
  return percentile(std::move(ns), 0.5);
}

Pass run_sim(Kind kind, const Options& opt, PassMode mode) {
  const bool traced = mode == PassMode::kTraced;
  Shape s = shape(kind);
  host::ClusterConfig ccfg;
  ccfg.seed = opt.seed;

  cc::Dcqcn dcqcn;
  TimedRateController timed_cc(dcqcn);
  fabric::RateController* cc =
      traced ? static_cast<fabric::RateController*>(&timed_cc) : &dcqcn;

  Pass out;
  // ---- set-up ----
  PacedClock setup_clock;
  setup_clock.start();
  const Clock::time_point t0 = Clock::now();
  topo::Topology topology = topo::build_clos(s.clos);
  const Clock::time_point t1 = Clock::now();
  host::Cluster cluster(std::move(topology), ccfg);
  const Clock::time_point t2 = Clock::now();
  core::RPingmesh rpm(cluster, s.rpm);
  faults::FaultInjector injector(cluster);
  chaos::ChaosRunner runner(cluster, rpm, injector);
  const Clock::time_point t3 = Clock::now();
  rpm.start();
  std::unique_ptr<traffic::DmlService> job;
  if (kind == Kind::kDml) {
    // Agents resolve a service connection's peer from the registry at
    // connect time, so let the registrations land before the job starts.
    cluster.run_for(kRegistrationSettle);
    job = std::make_unique<traffic::DmlService>(cluster, dml_config(cc));
    traffic::DmlService* j = job.get();
    rpm.watch_service(
        {j->id(), [j] { return j->relative_throughput(); }});
    job->start();
  }
  const Clock::time_point t4 = Clock::now();
  setup_clock.stop();
  out.raw_setup_s = setup_clock.raw_s();
  out.setup_s = setup_clock.scaled_s();
  if (mode == PassMode::kSetupOnly) return out;

  const LinkId link = kind == Kind::kDml ? job_fabric_link(cluster, *job)
                                         : first_fabric_link(
                                               cluster.topology());
  const chaos::ChaosPlan plan = make_plan(kind, opt.seed, s.duration, link);

  // ---- measured phase ----
  // Untraced passes keep the profiler's stage scopes on (a handful of
  // samples per period, no per-event hook) so each period close is timed,
  // and cut the run into slices of kEventsPerSlice events for the host-speed
  // calibration; traced passes instead add the per-event dispatch hook.
  prof::Profiler& prof = prof::profiler();
  prof::ProfilerConfig pcfg;
  pcfg.max_trace_events = traced ? 0 : (1u << 20);
  sim::Scheduler& sched = cluster.scheduler();
  std::vector<std::uint32_t> dispatch_ns;
  Counts counts;
  PacedClock clock;
  std::uint64_t in_slice = 0;
  if (traced) {
    dispatch_ns.reserve(1u << 23);
    counts.before = telemetry::registry().snapshot();
    sched.set_dispatch_observer(
        [&prof, &dispatch_ns](std::uint32_t, std::uint64_t ns) {
          prof.record(prof::Stage::kSimDispatch, ns);
          dispatch_ns.push_back(static_cast<std::uint32_t>(
              std::min<std::uint64_t>(ns, 0xffffffffu)));
        });
  } else {
    sched.set_dispatch_observer([&clock, &in_slice](std::uint32_t,
                                                    std::uint64_t) {
      if (++in_slice < kEventsPerSlice) return;
      in_slice = 0;
      clock.cut();
    });
  }
  prof.enable(pcfg);
  const Clock::time_point prof_epoch = Clock::now();
  const std::uint64_t events0 = sched.executed_events();
  const Clock::time_point m0 = Clock::now();
  if (!traced) clock.start();
  const chaos::ChaosReport rep = runner.run(plan);
  if (!traced) clock.stop();
  const Clock::time_point m1 = Clock::now();
  out.sim_events = sched.executed_events() - events0;
  prof.disable();
  sched.set_dispatch_observer(nullptr);
  const prof::ProfileReport prep = prof.report();
  if (traced) {
    out.raw_wall_s = out.wall_s =
        std::chrono::duration<double>(m1 - m0).count();
  } else {
    out.raw_wall_s = clock.raw_s();
    out.wall_s = clock.scaled_s();
    for (const auto& [ts_us, dur_ms] : period_closes(prof.chrome_events())) {
      const auto at = prof_epoch + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double, std::micro>(
                                           ts_us));
      out.close_ms.push_back(dur_ms * clock.factor_at(at));
    }
  }

  // ---- correctness ----
  out.report = rep.to_json();
  std::size_t scored = 0;
  std::size_t missed = 0;
  for (const chaos::ChaosReport::GroundTruthScore& g : rep.ground_truths) {
    if (!g.scored) continue;
    ++scored;
    if (!g.matched) ++missed;
  }
  const std::size_t claims =
      rep.true_positives + rep.mislocalized + rep.false_positives;
  out.ops = claims + scored;
  out.failures = rep.false_positives + rep.mislocalized + missed;
  if (rep.precision != 1.0 || rep.recall != 1.0 || out.failures != 0 ||
      scored == 0) {
    out.error = "ChaosReport below precision = recall = 1.0: " + out.report;
  } else if (kind == Kind::kDml) {
    // The impact path must have run: the corrupted link sits in the job's
    // service network, so its verdict is P0 or P1 for the job.
    bool impact = false;
    std::string seen;
    for (const core::PeriodReport& p : rpm.scored_history()) {
      for (const core::Problem& pr : p.problems) {
        impact |= pr.category == core::ProblemCategory::kSwitchNetworkProblem &&
                  pr.service == job->id() &&
                  (pr.priority == core::Priority::kP0 ||
                   pr.priority == core::Priority::kP1);
        seen += std::string("\n  [") + core::priority_name(pr.priority) +
                " service " + std::to_string(pr.service.value) + "] " +
                pr.summary;
      }
    }
    if (!impact) out.error = "no P0/P1 verdict for the DML job:" + seen;
  }
  if (!traced) return out;

  // ---- per-layer metrics (traced pass) ----
  counts.after = telemetry::registry().snapshot();
  std::map<std::string, double>& m = out.layers;
  std::vector<double> dns(dispatch_ns.begin(), dispatch_ns.end());
  double dispatch_total_ns = 0.0;
  for (double v : dns) dispatch_total_ns += v;
  m["sim.events"] = static_cast<double>(out.sim_events);
  m["sim.dispatch_ns_p50"] = percentile(dns, 0.50);
  m["sim.dispatch_ns_p99"] = percentile(std::move(dns), 0.99);
  const double nested_ns =
      static_cast<double>(prep.stage(prof::Stage::kPeriodClose).total_ns +
                          prep.stage(prof::Stage::kTransportDeliver).total_ns +
                          prep.stage(prof::Stage::kSketchFlush).total_ns +
                          timed_cc.total_ns());
  m["sim.other_s"] = (dispatch_total_ns - nested_ns) / 1e9;
  m["fabric.fluid_steps"] = counts.get("rpm_fabric_fluid_steps_total");
  m["fabric.sends"] = counts.get("rpm_fabric_sends_total");
  m["fabric.delivered"] = counts.get("rpm_fabric_delivered_total");
  m["fabric.drops"] = counts.get("rpm_fabric_drops_total");
  m["cc.updates"] = static_cast<double>(timed_cc.updates());
  m["cc.update_ns"] = timed_cc.updates() == 0
                          ? 0.0
                          : static_cast<double>(timed_cc.total_ns()) /
                                static_cast<double>(timed_cc.updates());
  m["agent.probes_sent"] = counts.get("rpm_agent_probes_sent_total");
  m["agent.probes_completed"] = counts.get("rpm_agent_probes_completed_total");
  m["agent.probe_timeouts"] = counts.get("rpm_agent_probe_timeouts_total");
  m["agent.uploads"] = counts.get("rpm_agent_uploads_total");
  m["agent.upload_records"] = counts.get("rpm_agent_upload_records_total");
  m["agent.upload_folded"] = counts.get("rpm_agent_upload_folded_total");
  m["sketch.reports"] =
      counts.get("rpm_sketch_reports_total", {{"result", "flushed"}});
  m["sketch.flush_ms"] = stage_ms(prep, prof::Stage::kSketchFlush);
  m["federation.digests"] = counts.get("rpm_pod_digests_total");
  m["federation.digest_flush_ms"] = stage_ms(prep, prof::Stage::kDigestFlush);
  m["federation.global_merge_ms"] = stage_ms(prep, prof::Stage::kGlobalMerge);
  m["controller.failovers"] = counts.get("rpm_controller_failovers_total");
  m["transport.msgs"] =
      counts.get("rpm_transport_msgs_total", {{"result", "delivered"}});
  m["transport.deliver_ms"] = stage_ms(prep, prof::Stage::kTransportDeliver);
  m["ingest.batches"] = counts.get("rpm_analyzer_batches_total");
  m["ingest.records"] = counts.get("rpm_analyzer_records_total");
  m["ingest.submit_ms"] = stage_ms(prep, prof::Stage::kIngestSubmit);
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
  double agent_bytes = 0.0;
  for (std::size_t h = 0; h < rpm.num_agents(); ++h) {
    agent_bytes += static_cast<double>(
        rpm.agent(HostId{static_cast<std::uint32_t>(h)})
            .approx_memory_bytes());
  }
  m["agent.memory_bytes"] = agent_bytes;

  // Isolated per-call costs on the final state, outside the measured phase.
  fabric::Fabric& fab = cluster.fabric();
  m["fabric.fluid_step_us"] =
      median_call_ns(2000, [&fab] { fab.step_once(); }) / 1e3;
  const topo::Topology& topo = cluster.topology();
  fabric::Datagram dg;
  dg.src = RnicId{0};
  dg.dst = RnicId{static_cast<std::uint32_t>(topo.num_rnics() - 1)};
  dg.tuple.src_ip = topo.rnic(dg.src).ip;
  dg.tuple.dst_ip = topo.rnic(dg.dst).ip;
  std::uint16_t port = 1;
  m["fabric.send_ns"] = median_call_ns(20000, [&] {
    dg.tuple.src_port = port++;
    (void)fab.send(dg);
  });
  return out;
}

Params sim_params(Kind kind, const Options& opt) {
  const Shape s = shape(kind);
  Params p;
  p["hosts"] = std::to_string(s.clos.num_pods * s.clos.tors_per_pod *
                              s.clos.hosts_per_tor);
  p["rnics_per_host"] = std::to_string(s.clos.rnics_per_host);
  p["clos"] = std::to_string(s.clos.num_pods) + " pods x " +
              std::to_string(s.clos.tors_per_pod) + " ToRs x " +
              std::to_string(s.clos.hosts_per_tor) + " hosts";
  p["simulated_s"] = std::to_string(s.duration / sec(1));
  p["analysis_period_s"] = std::to_string(s.rpm.analyzer.period / sec(1));
  p["federation_pods"] = std::to_string(s.rpm.federation.pods);
  p["standby_controller"] = s.rpm.federation.standby_controller ? "1" : "0";
  p["sketch_mode"] =
      s.rpm.analyzer.sketch_mode == core::SketchMode::kOn ? "on" : "off";
  p["cluster_seed"] = std::to_string(opt.seed);
  if (kind == Kind::kDml) {
    p["dml"] = "8-rank all2all, dcqcn, service 42 watched";
    p["faults"] = "corruption 0.15 on a job link 15-30 s";
  } else {
    p["faults"] = "rnic 5 down 25-50 s; corruption 0.5 on a fabric link "
                  "from 50 s";
    p["control_plane"] = "controller crash 30 s, restart 40 s; pod 1 "
                         "analyzer crash 65 s, restart 72 s";
  }
  return p;
}

}  // namespace

Params dml_alltoall_params(const Options& opt) {
  return sim_params(Kind::kDml, opt);
}
Pass dml_alltoall_pass(const Options& opt, PassMode mode) {
  return run_sim(Kind::kDml, opt, mode);
}
Params fed_sketch_chaos_params(const Options& opt) {
  return sim_params(Kind::kFedSketch, opt);
}
Pass fed_sketch_chaos_pass(const Options& opt, PassMode mode) {
  return run_sim(Kind::kFedSketch, opt, mode);
}

}  // namespace rpm::perf
