// End-to-end tests of the deployed R-Pingmesh system: Agents probing over
// the simulated fabric, Analyzer classifying and localizing injected faults.
#include <deque>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/rpingmesh.h"
#include "faults/faults.h"
#include "obs/diagnosis.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "traffic/dml.h"

namespace rpm::core {
namespace {

topo::ClosConfig clos_cfg() {
  topo::ClosConfig cfg;
  cfg.num_pods = 2;
  cfg.tors_per_pod = 2;
  cfg.aggs_per_pod = 2;
  cfg.spines_per_plane = 2;
  cfg.hosts_per_tor = 2;
  cfg.rnics_per_host = 2;
  cfg.host_link.capacity_gbps = 100.0;
  cfg.fabric_link.capacity_gbps = 100.0;
  return cfg;
}

struct Deployment {
  explicit Deployment(host::ClusterConfig cfg = {}, RPingmeshConfig rcfg = {})
      : cluster(topo::build_clos(clos_cfg()), cfg), rpm(cluster, rcfg) {
    rpm.start();
  }
  host::Cluster cluster;
  RPingmesh rpm;
};

bool has_problem(const PeriodReport& rep, ProblemCategory cat) {
  for (const Problem& p : rep.problems) {
    if (p.category == cat) return true;
  }
  return false;
}

const Problem* find_problem(const PeriodReport& rep, ProblemCategory cat) {
  for (const Problem& p : rep.problems) {
    if (p.category == cat) return &p;
  }
  return nullptr;
}

TEST(RPingmeshE2E, HealthyClusterHasCleanSla) {
  Deployment d;
  d.cluster.run_for(sec(45));
  const PeriodReport* rep = d.rpm.analyzer().last_report();
  ASSERT_NE(rep, nullptr);
  EXPECT_GT(rep->records_processed, 500u);
  EXPECT_EQ(rep->cluster_sla.timeouts, 0u);
  EXPECT_DOUBLE_EQ(rep->cluster_sla.rnic_drop_rate, 0.0);
  EXPECT_DOUBLE_EQ(rep->cluster_sla.switch_drop_rate, 0.0);
  // Idle RoCE RTT: a few microseconds, far below a software RTT.
  EXPECT_GT(rep->cluster_sla.rtt_p50, 1000.0);      // > 1 us
  EXPECT_LT(rep->cluster_sla.rtt_p99, 100'000.0);   // < 100 us
  // No problems on a healthy cluster.
  for (const Problem& p : rep->problems) {
    EXPECT_EQ(p.priority, Priority::kNoise) << p.summary;
  }
}

TEST(RPingmeshE2E, SameSeedRunsMatchEndToEnd) {
  // Full-system determinism: two fixed-seed deployments must produce
  // identical period reports and diagnosis JSON (the transport hand-off,
  // dedup of retried batches, and period bucketing all included); the
  // chaos suite checks the same property on ChaosReport bytes.
  const auto digest = [] {
    host::ClusterConfig ccfg;
    ccfg.seed = 42;
    Deployment d(ccfg);
    d.cluster.run_for(sec(45));
    const PeriodReport* rep = d.rpm.analyzer().last_report();
    EXPECT_NE(rep, nullptr);
    if (rep == nullptr) return std::string{};
    std::ostringstream os;
    os << rep->records_processed << '|' << rep->cluster_sla.probes << '|'
       << rep->cluster_sla.timeouts << '|' << rep->cluster_sla.rtt_p50 << '|'
       << rep->cluster_sla.rtt_p99 << '|' << rep->cluster_sla.proc_p99 << '|'
       << rep->problems.size() << '\n';
    os << obs::to_json(*d.rpm.analyzer().last_diagnosis());
    return os.str();
  };
  const std::string first = digest();
  ASSERT_FALSE(first.empty());
  EXPECT_GT(first.find('|'), 0u);
  EXPECT_EQ(digest(), first);
}

TEST(RPingmeshE2E, MeasuredRttMatchesGroundTruthDespiteClockChaos) {
  // The decisive test of §4.2.1: every clock has up to ±1 s offset, yet the
  // reported network RTT must be microsecond-accurate.
  Deployment d;
  d.cluster.run_for(sec(25));
  const PeriodReport* rep = d.rpm.analyzer().last_report();
  ASSERT_NE(rep, nullptr);
  // Ground truth on an idle fabric: propagation (500ns/hop) * hops * 2 +
  // small serialization; ToR-mesh ~2 hops, cross-pod ~6 hops. So P50 within
  // [2us, 10us].
  EXPECT_GT(rep->cluster_sla.rtt_p50, 1500.0);
  EXPECT_LT(rep->cluster_sla.rtt_p50, 10'000.0);
  // And processing delay is measured separately: microseconds on idle hosts.
  EXPECT_LT(rep->cluster_sla.proc_p50, 100'000.0);
  EXPECT_GT(rep->cluster_sla.proc_p50, 0.0);
}

TEST(RPingmeshE2E, RnicDownDetectedAsRnicProblem) {
  Deployment d;
  d.cluster.run_for(sec(25));
  faults::FaultInjector inj(d.cluster);
  inj.inject(faults::FaultSpec::rnic_down(RnicId{5}));
  d.cluster.run_for(sec(21));
  const PeriodReport* rep = d.rpm.analyzer().last_report();
  ASSERT_NE(rep, nullptr);
  const Problem* p = find_problem(*rep, ProblemCategory::kRnicProblem);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->rnic, RnicId{5});
  EXPECT_GT(rep->timeouts_rnic, 0u);
  // Crucially, NO switch problem is reported: ToR-mesh filtering keeps the
  // RNIC's timeouts out of switch localization (§4.3.2).
  EXPECT_FALSE(has_problem(*rep, ProblemCategory::kSwitchNetworkProblem));
}

TEST(RPingmeshE2E, HostDownClassifiedAsNonNetwork) {
  Deployment d;
  d.cluster.run_for(sec(25));
  faults::FaultInjector inj(d.cluster);
  inj.inject(faults::FaultSpec::host_down(HostId{3}));
  d.cluster.run_for(sec(45));  // > silence threshold + a full period
  const PeriodReport* rep = d.rpm.analyzer().last_report();
  ASSERT_NE(rep, nullptr);
  const Problem* p = find_problem(*rep, ProblemCategory::kHostDown);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->host, HostId{3});
  EXPECT_GT(rep->timeouts_host_down, 0u);
  // Host-down timeouts must NOT be blamed on switches.
  EXPECT_FALSE(has_problem(*rep, ProblemCategory::kSwitchNetworkProblem));
}

TEST(RPingmeshE2E, QpnResetFilteredAsNoise) {
  Deployment d;
  d.cluster.run_for(sec(25));
  // Restart the Agent on host 1: its RNICs get fresh QPNs; peers' pinglists
  // are stale until the next 5-minute refresh.
  d.rpm.agent(HostId{1}).restart();
  d.cluster.run_for(sec(21));
  const PeriodReport* rep = d.rpm.analyzer().last_report();
  ASSERT_NE(rep, nullptr);
  EXPECT_GT(rep->timeouts_qpn_reset, 0u);
  // The noise is not misattributed to RNIC or switch problems.
  EXPECT_FALSE(has_problem(*rep, ProblemCategory::kRnicProblem));
  EXPECT_FALSE(has_problem(*rep, ProblemCategory::kSwitchNetworkProblem));
  EXPECT_TRUE(has_problem(*rep, ProblemCategory::kQpnResetNoise));
}

TEST(RPingmeshE2E, QpnResetWithControllerRestartStaysNoise) {
  // The §4.3.1 worst case: an Agent restarts WHILE the Controller is down,
  // so the fresh QPNs cannot be registered anywhere and every peer keeps
  // probing QPNs that no longer exist — straight through the Controller's
  // own restart, which wiped the registry. The resulting timeout burst must
  // be triaged as probe noise (network-innocent), never pinned on a switch
  // or an RNIC, and the whole mesh must re-register once the Controller is
  // back.
  Deployment d;
  d.cluster.run_for(sec(25));
  const TimeNs crash_at = d.cluster.scheduler().now();
  d.rpm.crash_controller();
  ASSERT_TRUE(d.rpm.controller_down());
  d.cluster.run_for(sec(2));
  d.rpm.agent(HostId{1}).restart();  // restarts into a dead Controller
  d.cluster.run_for(sec(23));
  d.rpm.restart_controller();
  ASSERT_FALSE(d.rpm.controller_down());
  // Leases expired during the blackout; capped backoff re-registers every
  // Agent and the post-registration pinglist refresh spreads the new QPNs.
  d.cluster.run_for(sec(25));

  std::size_t qpn_noise_timeouts = 0;
  const Problem* noise = nullptr;
  for (const PeriodReport& rep : d.rpm.analyzer().history()) {
    if (rep.period_end <= crash_at) continue;
    qpn_noise_timeouts += rep.timeouts_qpn_reset;
    // The control-plane event must not masquerade as a network fault.
    EXPECT_FALSE(has_problem(rep, ProblemCategory::kSwitchNetworkProblem));
    EXPECT_FALSE(has_problem(rep, ProblemCategory::kRnicProblem));
    if (const Problem* p = find_problem(rep, ProblemCategory::kQpnResetNoise)) {
      noise = p;
    }
  }
  EXPECT_GT(qpn_noise_timeouts, 0u);
  ASSERT_NE(noise, nullptr) << "stale-QPN burst was never triaged as noise";

  // The receipt names the QPN-reset triage branch, including the registry
  // wipe across the Controller restart.
  const std::string receipt = d.rpm.analyzer().explain(noise->problem_id);
  EXPECT_NE(receipt.find("QPN"), std::string::npos) << receipt;
  EXPECT_NE(receipt.find("restart"), std::string::npos) << receipt;

  // Lease-driven recovery: every host re-registered with the new epoch.
  EXPECT_EQ(d.rpm.controller().num_registered_agents(),
            d.cluster.num_hosts());
  EXPECT_GT(d.rpm.agent(HostId{0}).lease_expiries(), 0u);
  EXPECT_GT(d.rpm.agent(HostId{0}).reregistrations(), 0u);
}

TEST(RPingmeshE2E, SwitchPortFlappingLocalizedByVoting) {
  Deployment d;
  d.cluster.run_for(sec(25));
  // Flap a ToR uplink: tor-0/0 -> agg-0/0 direction.
  const auto& topo = d.cluster.topology();
  LinkId victim;
  for (const topo::Link& l : topo.links()) {
    if (l.from.is_switch() && l.to.is_switch() &&
        topo.switch_info(l.from.as_switch()).tier == topo::SwitchTier::kTor) {
      victim = l.id;
      break;
    }
  }
  ASSERT_TRUE(victim.valid());
  faults::FaultInjector inj(d.cluster);
  inj.inject(
      faults::FaultSpec::switch_port_flapping(victim, msec(300), msec(300)));
  d.cluster.run_for(sec(41));
  const PeriodReport* rep = d.rpm.analyzer().last_report();
  ASSERT_NE(rep, nullptr);
  const Problem* p = find_problem(*rep, ProblemCategory::kSwitchNetworkProblem);
  ASSERT_NE(p, nullptr);
  EXPECT_GT(rep->timeouts_switch, 0u);
  // Algorithm 1 fingered the flapping cable (either direction).
  const LinkId peer = topo.link(victim).peer;
  bool hit = false;
  for (LinkId l : p->suspect_links) {
    if (l == victim || l == peer) hit = true;
  }
  EXPECT_TRUE(hit) << "voting missed the flapping link";
  // And no RNIC was wrongly blamed.
  EXPECT_FALSE(has_problem(*rep, ProblemCategory::kRnicProblem));

  // Every verdict this period carries a resolvable evidence chain, and
  // explain() renders non-empty receipts (probe ids, thresholds) for it.
  for (const Problem& pr : rep->problems) {
    ASSERT_NE(pr.problem_id, 0u) << pr.summary;
    ASSERT_TRUE(pr.evidence.valid()) << pr.summary;
    ASSERT_NE(d.rpm.analyzer().evidence(pr.evidence), nullptr) << pr.summary;
    const std::string j = d.rpm.analyzer().explain(pr.problem_id);
    ASSERT_FALSE(j.empty()) << pr.summary;
    EXPECT_NE(j.find("\"probe_ids\":["), std::string::npos) << pr.summary;
    EXPECT_NE(j.find("\"thresholds\":[{"), std::string::npos) << pr.summary;
  }
  // The switch verdict's chain holds the Algorithm 1 tally behind the
  // suspect list plus the probes that voted.
  const obs::EvidenceChain* chain = d.rpm.analyzer().evidence(p->evidence);
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->verdict, "switch-network-problem");
  EXPECT_FALSE(chain->probe_ids.empty());
  EXPECT_GT(chain->total_probes, 0u);
  EXPECT_FALSE(chain->link_votes.empty());
  EXPECT_FALSE(chain->thresholds.empty());
}

TEST(RPingmeshE2E, AgentCpuOccupationFilteredAsNoise) {
  // Figure 6 (right): service pegs every core of a 2-RNIC host; probes to
  // BOTH RNICs "drop" simultaneously. The multi-RNIC filter must call it
  // noise instead of reporting RNIC problems.
  Deployment d;
  d.cluster.run_for(sec(25));
  faults::FaultInjector inj(d.cluster);
  inj.inject(faults::FaultSpec::agent_cpu_occupation(HostId{2}));
  d.cluster.run_for(sec(41));  // include one fully-starved analysis period
  const PeriodReport* rep = d.rpm.analyzer().last_report();
  ASSERT_NE(rep, nullptr);
  const Problem* noise = find_problem(*rep, ProblemCategory::kAgentCpuNoise);
  ASSERT_NE(noise, nullptr);
  EXPECT_EQ(noise->host, HostId{2});
  EXPECT_EQ(noise->priority, Priority::kNoise);
  EXPECT_FALSE(has_problem(*rep, ProblemCategory::kRnicProblem));
}

TEST(RPingmeshE2E, CpuOverloadSurfacesAsProcessingDelayBottleneck) {
  Deployment d;
  d.cluster.run_for(sec(25));
  faults::FaultInjector inj(d.cluster);
  inj.inject(faults::FaultSpec::cpu_overload(HostId{1}, 0.97));
  d.cluster.run_for(sec(41));  // include one fully-overloaded period
  const PeriodReport* rep = d.rpm.analyzer().last_report();
  ASSERT_NE(rep, nullptr);
  const Problem* p =
      find_problem(*rep, ProblemCategory::kHighProcessingDelay);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->host, HostId{1});
}

TEST(RPingmeshE2E, ServiceTracingFollowsConnectionsLifecycle) {
  Deployment d;
  d.cluster.run_for(sec(5));
  traffic::DmlConfig dml;
  dml.service = ServiceId{7};
  dml.workers = {RnicId{0}, RnicId{4}, RnicId{8}, RnicId{12}};
  dml.compute_time = msec(200);
  dml.comm_bytes = 50'000'000;
  traffic::DmlService svc(d.cluster, dml);
  svc.start();
  // The Agent on each worker host picked up the 5-tuples via tracepoints.
  std::size_t entries = 0;
  for (const RnicId w : dml.workers) {
    entries += d.rpm.agent(d.cluster.topology().rnic(w).host)
                   .service_entries();
  }
  EXPECT_GE(entries, 8u);  // 4 ring connections, both endpoints trace
  d.cluster.run_for(sec(21));
  const PeriodReport* rep = d.rpm.analyzer().last_report();
  ASSERT_NE(rep, nullptr);
  bool saw_service_sla = false;
  for (const auto& [svc_id, sla] : rep->service_slas) {
    if (svc_id == ServiceId{7}) {
      saw_service_sla = true;
      EXPECT_GT(sla.probes, 100u);
    }
  }
  EXPECT_TRUE(saw_service_sla);
  svc.stop();
  d.cluster.run_for(sec(1));
  for (const RnicId w : dml.workers) {
    EXPECT_EQ(
        d.rpm.agent(d.cluster.topology().rnic(w).host).service_entries(), 0u);
  }
}

TEST(RPingmeshE2E, ImpactAssessmentAssignsPriorities) {
  Deployment d;
  d.cluster.run_for(sec(5));
  traffic::DmlConfig dml;
  dml.service = ServiceId{7};
  dml.workers = {RnicId{0}, RnicId{4}, RnicId{8}, RnicId{12}};
  dml.compute_time = msec(200);
  dml.comm_bytes = 50'000'000;
  traffic::DmlService svc(d.cluster, dml);
  d.rpm.watch_service(
      {ServiceId{7}, [&svc] { return svc.relative_throughput(); }});
  svc.start();
  d.cluster.run_for(sec(25));

  // A problem on a worker RNIC is in the service network: P0 or P1.
  faults::FaultInjector inj(d.cluster);
  const int h = inj.inject(faults::FaultSpec::rnic_down(RnicId{4}));
  // Coalesced uploads traverse the control plane: a batch flushed at a
  // period boundary lands in the NEXT period, so cover one extra period.
  d.cluster.run_for(sec(41));
  const PeriodReport* rep = d.rpm.analyzer().last_report();
  ASSERT_NE(rep, nullptr);
  const Problem* p = find_problem(*rep, ProblemCategory::kRnicProblem);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->in_service_network);
  EXPECT_TRUE(p->priority == Priority::kP0 || p->priority == Priority::kP1)
      << priority_name(p->priority);
  EXPECT_FALSE(d.rpm.analyzer().network_innocent(ServiceId{7}));
  inj.clear(h);

  // A problem far from the service (different pod, unused RNIC) is P2.
  inj.inject(faults::FaultSpec::rnic_down(RnicId{15}));
  // Long enough that the last analyzed period holds no late-delivered
  // timeouts of the (cleared) RNIC-4 fault, only RNIC 15's.
  d.cluster.run_for(sec(61));
  rep = d.rpm.analyzer().last_report();
  const Problem* p2 = find_problem(*rep, ProblemCategory::kRnicProblem);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p2->rnic, RnicId{15});
  EXPECT_EQ(p2->priority, Priority::kP2);
}

TEST(RPingmeshE2E, ControlPlaneLossKeepsReportsCorrect) {
  // Degrade the monitoring plane itself: uploads and RPCs get slow and
  // lossy. Measurements must survive unharmed — batches retry, duplicates
  // are suppressed, and the Analyzer neither loses data nor double counts.
  telemetry::registry().reset();  // safe: no Deployment alive yet
  Deployment d;
  d.cluster.run_for(sec(5));
  faults::FaultInjector inj(d.cluster);
  inj.inject(faults::FaultSpec::control_plane_degradation(msec(2), 0.25));
  d.cluster.run_for(sec(46));  // analyses at t = 20 s and t = 40 s

  const telemetry::Snapshot snap = telemetry::registry().snapshot();
  // The degradation actually bit: transmissions were lost and retried.
  EXPECT_GT(snap.sum("rpm_transport_msgs_total", {{"result", "lost"}}), 0.0);
  EXPECT_GT(snap.sum("rpm_transport_msgs_total", {{"result", "retry"}}), 0.0);
  EXPECT_GT(snap.sum("rpm_transport_msgs_total", {{"result", "duplicate"}}),
            0.0);
  // No double counting: the Analyzer processed at most what Agents uploaded.
  EXPECT_LE(snap.sum("rpm_analyzer_records_total"),
            snap.sum("rpm_agent_upload_records_total"));

  // And the reports themselves stay clean: a healthy fabric with a sick
  // control plane must not show fabric problems.
  const PeriodReport* rep = d.rpm.analyzer().last_report();
  ASSERT_NE(rep, nullptr);
  EXPECT_GT(rep->records_processed, 100u);
  EXPECT_EQ(rep->cluster_sla.timeouts, 0u);
  EXPECT_FALSE(has_problem(*rep, ProblemCategory::kRnicProblem));
  EXPECT_FALSE(has_problem(*rep, ProblemCategory::kSwitchNetworkProblem));
  EXPECT_FALSE(has_problem(*rep, ProblemCategory::kHostDown));
}

TEST(RPingmeshE2E, LongAnalyzerOutageLosesNoUploads) {
  // A 60 s Analyzer outage, many times the ~3 s that six transmissions on
  // the capped backoff span. Upload channels retry until acked and hold 64
  // batches each (640 s of coalesced history), so once the Analyzer is back
  // it has accepted every batch the Agents uploaded, and no upload channel
  // dropped one.
  Deployment d;
  const telemetry::Snapshot before = telemetry::registry().snapshot();
  d.cluster.run_for(sec(20));
  d.rpm.begin_analyzer_outage();
  d.cluster.run_for(sec(60));
  d.rpm.end_analyzer_outage();
  d.cluster.run_for(sec(21));  // ends off the 5 s upload grid

  const telemetry::Snapshot snap = telemetry::registry().snapshot();
  const auto delta = [&](const char* name, const telemetry::Labels& l) {
    return snap.sum(name, l) - before.sum(name, l);
  };
  const double uploads = delta("rpm_agent_uploads_total", {});
  EXPECT_GT(uploads, 0.0);
  EXPECT_EQ(delta("rpm_analyzer_batches_total", {{"result", "accepted"}}),
            uploads);
  for (std::size_t h = 0; h < d.cluster.num_hosts(); ++h) {
    const std::string channel = "upload/h" + std::to_string(h);
    EXPECT_EQ(delta("rpm_transport_msgs_total",
                    {{"channel", channel}, {"result", "dropped"}}),
              0.0)
        << channel;
    EXPECT_EQ(d.rpm.agent(HostId{static_cast<std::uint32_t>(h)})
                  .uploads_in_flight(),
              0u)
        << channel;
  }
}

std::string serialize_history(const std::deque<PeriodReport>& hist) {
  std::ostringstream os;
  os << std::hexfloat;  // doubles must match bit for bit
  for (const PeriodReport& r : hist) {
    os << r.period_start << '|' << r.period_end << '|' << r.records_processed
       << '|' << r.timeouts_host_down << '|' << r.timeouts_qpn_reset << '|'
       << r.timeouts_agent_cpu << '|' << r.timeouts_rnic << '|'
       << r.timeouts_switch << '\n';
    const auto sla = [&os](const SlaReport& s) {
      os << s.probes << ' ' << s.timeouts << ' ' << s.rnic_drop_rate << ' '
         << s.switch_drop_rate << ' ' << s.rtt_mean << ' ' << s.rtt_p50 << ' '
         << s.rtt_p90 << ' ' << s.rtt_p99 << ' ' << s.rtt_p999 << ' '
         << s.proc_p50 << ' ' << s.proc_p90 << ' ' << s.proc_p99 << ' '
         << s.proc_p999 << '\n';
    };
    sla(r.cluster_sla);
    for (const auto& [svc, s] : r.service_slas) {
      os << "svc " << svc.value << ' ';
      sla(s);
    }
    for (const Problem& p : r.problems) {
      os << static_cast<int>(p.category) << ' ' << static_cast<int>(p.priority)
         << ' ' << p.rnic.value << ' ' << p.host.value << ' '
         << p.anomalous_probes << ' ' << p.in_service_network << ' '
         << p.summary << '\n';
      for (LinkId l : p.suspect_links) os << 'L' << l.value << ' ';
      for (SwitchId s : p.suspect_switches) os << 'S' << s.value << ' ';
      os << '\n';
    }
  }
  return os.str();
}

TEST(RPingmeshE2E, LossyControlPlaneRunsAreDeterministic) {
  // Two runs with the same seed and a lossy transport must produce
  // byte-identical report histories: every loss draw, retry timer, and
  // duplicate delivery rides the one deterministic scheduler.
  const auto run_once = [] {
    host::Cluster cluster(topo::build_clos(clos_cfg()));
    cluster.control_plane().set_degradation(0, 0.3);
    RPingmesh rpm(cluster);
    rpm.start();
    cluster.run_for(sec(45));
    return serialize_history(rpm.analyzer().history());
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(RPingmeshE2E, GidMissingMakesRnicUnreachable) {
  Deployment d;
  d.cluster.run_for(sec(25));
  faults::FaultInjector inj(d.cluster);
  inj.inject(faults::FaultSpec::gid_index_missing(RnicId{6}));
  d.cluster.run_for(sec(21));
  const PeriodReport* rep = d.rpm.analyzer().last_report();
  const Problem* p = find_problem(*rep, ProblemCategory::kRnicProblem);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->rnic, RnicId{6});
}

TEST(RPingmeshE2E, FullRunExportsNonZeroTelemetry) {
  // Reset the process-wide registry so counts are attributable to this run.
  // Safe here: no Deployment (and thus no cached metric handle) is alive.
  telemetry::registry().reset();
  Deployment d;
  d.cluster.run_for(sec(25));
  faults::FaultInjector inj(d.cluster);
  inj.inject(faults::FaultSpec::rnic_down(RnicId{5}));
  d.cluster.run_for(sec(21));

  const telemetry::Snapshot snap = telemetry::registry().snapshot();
  // Agent probing activity across all hosts and probe kinds.
  EXPECT_GT(snap.sum("rpm_agent_probes_sent_total"), 0.0);
  EXPECT_GT(snap.sum("rpm_agent_probes_completed_total"), 0.0);
  EXPECT_GT(snap.sum("rpm_agent_probe_timeouts_total"), 0.0);
  EXPECT_GT(snap.sum("rpm_agent_upload_records_total"), 0.0);
  // Analyzer ran periods and attributed the injected fault to a problem.
  EXPECT_GT(snap.sum("rpm_analyzer_periods_total"), 0.0);
  EXPECT_GT(snap.sum("rpm_analyzer_records_total"), 0.0);
  EXPECT_GT(snap.sum("rpm_analyzer_problems_total"), 0.0);
  EXPECT_GT(
      snap.sum("rpm_analyzer_timeouts_total", {{"cause", "rnic-problem"}}),
      0.0);
  // The control-plane transport carried those uploads and registrations...
  EXPECT_GT(snap.sum("rpm_transport_msgs_total", {{"result", "sent"}}), 0.0);
  EXPECT_GT(snap.sum("rpm_transport_msgs_total", {{"result", "delivered"}}),
            0.0);
  // ...batched: several records (and periods) per upload message.
  EXPECT_LT(snap.sum("rpm_agent_uploads_total") * 10.0,
            snap.sum("rpm_agent_upload_records_total"));
  // Ingestion accepted each batch exactly once.
  EXPECT_GT(snap.sum("rpm_analyzer_batches_total", {{"result", "accepted"}}),
            0.0);
  EXPECT_DOUBLE_EQ(
      snap.sum("rpm_analyzer_batches_total", {{"result", "duplicate"}}), 0.0);
  // Controller served pinglists; fabric moved packets; faults were recorded.
  EXPECT_GT(snap.sum("rpm_controller_pinglist_requests_total"), 0.0);
  EXPECT_GT(snap.sum("rpm_fabric_delivered_total"), 0.0);
  EXPECT_GT(snap.sum("rpm_faults_injected_total",
                     {{"kind", "rnic-down"}}),
            0.0);
  // And the rendered exposition carries the headline families.
  const std::string text = telemetry::to_prometheus(snap);
  EXPECT_NE(text.find("rpm_agent_network_rtt_ns"), std::string::npos);
  EXPECT_NE(text.find("rpm_sim_executed_events"), std::string::npos);
  EXPECT_NE(text.find("rpm_transport_delivery_latency_ns"), std::string::npos);
  EXPECT_NE(text.find("rpm_transport_queue_depth"), std::string::npos);
}

TEST(RPingmeshE2E, AgentOverheadScalesWithProbeRate) {
  Deployment d;
  d.cluster.run_for(sec(30));
  const Agent& a = d.rpm.agent(HostId{0});
  EXPECT_GT(a.probes_sent(), 100u);
  // Figure 7 scale: Agent state is tens of KB per host in this small
  // cluster; far below 18.5 MB even with production fan-out.
  EXPECT_LT(a.approx_memory_bytes(), 20u * 1024 * 1024);
}

}  // namespace
}  // namespace rpm::core
