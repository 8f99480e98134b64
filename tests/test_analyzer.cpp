// Unit tests of the Analyzer pipeline (§4.3) on synthetic probe records —
// precise control over every classification branch.
#include <algorithm>
#include <random>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/analyzer.h"
#include "core/controller.h"
#include "core/federation.h"
#include "core/ingest.h"
#include "rnic/rnic.h"
#include "routing/ecmp.h"
#include "sim/scheduler.h"
#include "topo/topology.h"

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
  return cfg;
}

class AnalyzerTest : public ::testing::Test {
 protected:
  AnalyzerTest()
      : topo_(topo::build_clos(clos_cfg())),
        router_(topo_),
        ctrl_(topo_, router_),
        analyzer_(topo_, ctrl_, sched_) {
    // Register every RNIC with a known QPN.
    for (const topo::HostInfo& h : topo_.hosts()) {
      std::vector<RnicCommInfo> infos;
      for (RnicId r : h.rnics) {
        infos.push_back(
            {r, topo_.rnic(r).ip, rnic::gid_of(r), Qpn{0x100 + r.value}});
      }
      ctrl_.register_agent(h.id, infos);
    }
  }

  ProbeRecord make_record(RnicId prober, RnicId target, ProbeStatus status,
                          ProbeKind kind = ProbeKind::kTorMesh) {
    ProbeRecord r;
    r.id = next_id_++;
    r.kind = kind;
    r.prober = prober;
    r.target = target;
    r.prober_host = topo_.rnic(prober).host;
    r.target_qpn = Qpn{0x100 + target.value};
    r.status = status;
    r.sent_at = sched_.now();
    if (status == ProbeStatus::kOk) {
      r.network_rtt = usec(5);
      r.responder_delay = usec(8);
      r.prober_delay = usec(8);
    }
    // Realistic traced paths for voting.
    FiveTuple t;
    t.src_ip = topo_.rnic(prober).ip;
    t.dst_ip = topo_.rnic(target).ip;
    t.src_port = static_cast<std::uint16_t>(1000 + (r.id % 5000));
    r.fwd_path = router_.resolve(prober, target, t);
    FiveTuple rev = t;
    std::swap(rev.src_ip, rev.dst_ip);
    r.rev_path = router_.resolve(target, prober, rev);
    r.path_known = true;
    return r;
  }

  /// Keeps a host "alive" by uploading heartbeats from it.
  void heartbeat_all_hosts() {
    for (const topo::HostInfo& h : topo_.hosts()) {
      analyzer_.upload(h.id, {});
    }
  }

  /// Healthy ToR-mesh background so per-RNIC stats have denominators.
  void upload_healthy_tormesh(int rounds = 20) {
    std::vector<ProbeRecord> recs;
    for (int i = 0; i < rounds; ++i) {
      for (SwitchId tor : topo_.tor_switches()) {
        const auto& group = topo_.rnics_under_tor(tor);
        for (std::size_t a = 0; a < group.size(); ++a) {
          recs.push_back(make_record(group[a], group[(a + 1) % group.size()],
                                     ProbeStatus::kOk));
        }
      }
    }
    analyzer_.upload(HostId{0}, std::move(recs));
  }

  topo::Topology topo_;
  routing::EcmpRouter router_;
  sim::InlineScheduler sched_;
  Controller ctrl_;
  Analyzer analyzer_;
  std::uint64_t next_id_ = 1;
};

TEST_F(AnalyzerTest, EmptyPeriodIsClean) {
  heartbeat_all_hosts();
  const PeriodReport& rep = analyzer_.analyze_now();
  EXPECT_EQ(rep.records_processed, 0u);
  EXPECT_TRUE(rep.problems.empty());
  EXPECT_EQ(rep.cluster_sla.probes, 0u);
}

TEST_F(AnalyzerTest, HostDownWhenSilent) {
  // Host 3 never uploads after becoming known; everyone else heartbeats.
  analyzer_.upload(HostId{3}, {});
  sched_.run_until(sec(30));  // > 20 s silence
  for (const topo::HostInfo& h : topo_.hosts()) {
    if (h.id != HostId{3}) analyzer_.upload(h.id, {});
  }
  // Timeouts to host 3's RNICs are attributed to the down host.
  std::vector<ProbeRecord> recs;
  const RnicId dead = topo_.host(HostId{3}).rnics[0];
  for (int i = 0; i < 10; ++i) {
    recs.push_back(make_record(RnicId{0}, dead, ProbeStatus::kTimeout));
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  EXPECT_EQ(rep.timeouts_host_down, 10u);
  EXPECT_EQ(rep.timeouts_switch, 0u);
  EXPECT_EQ(rep.timeouts_rnic, 0u);
  bool host_down_problem = false;
  for (const auto& p : rep.problems) {
    if (p.category == ProblemCategory::kHostDown && p.host == HostId{3}) {
      host_down_problem = true;
    }
  }
  EXPECT_TRUE(host_down_problem);
}

TEST_F(AnalyzerTest, QpnMismatchIsNoiseNotNetwork) {
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  std::vector<ProbeRecord> recs;
  for (int i = 0; i < 10; ++i) {
    ProbeRecord r = make_record(RnicId{0}, RnicId{2}, ProbeStatus::kTimeout);
    r.target_qpn = Qpn{0x9999};  // stale QPN
    recs.push_back(r);
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  EXPECT_EQ(rep.timeouts_qpn_reset, 10u);
  EXPECT_EQ(rep.timeouts_rnic, 0u);
  EXPECT_EQ(rep.timeouts_switch, 0u);
}

TEST_F(AnalyzerTest, TorMeshTimeoutRatioFlagsRnic) {
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  // 30% of probes to RNIC 6 time out (> 10% threshold).
  std::vector<ProbeRecord> recs;
  for (int i = 0; i < 14; ++i) {
    recs.push_back(make_record(RnicId{4}, RnicId{6}, ProbeStatus::kOk));
  }
  for (int i = 0; i < 6; ++i) {
    recs.push_back(make_record(RnicId{4}, RnicId{6}, ProbeStatus::kTimeout));
  }
  analyzer_.upload(HostId{2}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  bool flagged = false;
  for (const auto& p : rep.problems) {
    if (p.category == ProblemCategory::kRnicProblem && p.rnic == RnicId{6}) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
  EXPECT_EQ(rep.timeouts_rnic, 6u);
}

TEST_F(AnalyzerTest, BelowThresholdRatioDoesNotFlag) {
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  // 5% timeouts: below the 10% bar.
  std::vector<ProbeRecord> recs;
  for (int i = 0; i < 38; ++i) {
    recs.push_back(make_record(RnicId{4}, RnicId{6}, ProbeStatus::kOk));
  }
  for (int i = 0; i < 2; ++i) {
    recs.push_back(make_record(RnicId{4}, RnicId{6}, ProbeStatus::kTimeout));
  }
  analyzer_.upload(HostId{2}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  for (const auto& p : rep.problems) {
    EXPECT_NE(p.category, ProblemCategory::kRnicProblem);
  }
  // The sub-threshold timeouts fall through to switch attribution.
  EXPECT_EQ(rep.timeouts_switch, 2u);
}

TEST_F(AnalyzerTest, GreedyAttributionClearsPollutedPeers) {
  heartbeat_all_hosts();
  // RNIC 0 is dead: probes TO it all fail, and probes FROM it fail too,
  // polluting peers 1, 2, 3 under the same ToR.
  std::vector<ProbeRecord> recs;
  const auto& group = topo_.rnics_under_tor(topo_.rnic(RnicId{0}).tor);
  ASSERT_EQ(group.size(), 4u);
  for (int round = 0; round < 10; ++round) {
    for (RnicId a : group) {
      for (RnicId b : group) {
        if (a == b) continue;
        const bool involves_dead = (a == RnicId{0}) || (b == RnicId{0});
        recs.push_back(make_record(
            a, b, involves_dead ? ProbeStatus::kTimeout : ProbeStatus::kOk));
      }
    }
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  std::size_t rnic_problems = 0;
  RnicId flagged;
  for (const auto& p : rep.problems) {
    if (p.category == ProblemCategory::kRnicProblem) {
      ++rnic_problems;
      flagged = p.rnic;
    }
  }
  EXPECT_EQ(rnic_problems, 1u) << "peers must not be blamed";
  EXPECT_EQ(flagged, RnicId{0});
  EXPECT_EQ(rep.timeouts_switch, 0u);
}

TEST_F(AnalyzerTest, MultiRnicSimultaneousTimeoutsAreCpuNoise) {
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  // Both RNICs of host 1 (RNICs 2 and 3) "drop" 30% simultaneously.
  std::vector<ProbeRecord> recs;
  for (RnicId victim : topo_.host(HostId{1}).rnics) {
    for (int i = 0; i < 14; ++i) {
      recs.push_back(make_record(RnicId{0}, victim, ProbeStatus::kOk));
    }
    for (int i = 0; i < 6; ++i) {
      recs.push_back(make_record(RnicId{0}, victim, ProbeStatus::kTimeout));
    }
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  EXPECT_GT(rep.timeouts_agent_cpu, 0u);
  EXPECT_EQ(rep.timeouts_rnic, 0u);
  bool noise = false;
  for (const auto& p : rep.problems) {
    EXPECT_NE(p.category, ProblemCategory::kRnicProblem);
    if (p.category == ProblemCategory::kAgentCpuNoise &&
        p.host == HostId{1}) {
      noise = true;
      EXPECT_EQ(p.priority, Priority::kNoise);
    }
  }
  EXPECT_TRUE(noise);
}

TEST_F(AnalyzerTest, StarvedResponderDelayIsCpuNoise) {
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  // Only ONE RNIC of the host shows timeouts (multi-RNIC filter does not
  // fire), but its completed probes show ~200 ms responder delays.
  std::vector<ProbeRecord> recs;
  for (int i = 0; i < 14; ++i) {
    ProbeRecord r = make_record(RnicId{0}, RnicId{2}, ProbeStatus::kOk);
    r.responder_delay = msec(200);
    recs.push_back(r);
  }
  for (int i = 0; i < 6; ++i) {
    recs.push_back(make_record(RnicId{0}, RnicId{2}, ProbeStatus::kTimeout));
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  for (const auto& p : rep.problems) {
    EXPECT_NE(p.category, ProblemCategory::kRnicProblem);
  }
  EXPECT_GT(rep.timeouts_agent_cpu, 0u);
}

TEST_F(AnalyzerTest, FiltersCanBeDisabled) {
  AnalyzerConfig cfg;
  cfg.enable_cpu_noise_filters = false;
  Analyzer no_filters(topo_, ctrl_, sched_, cfg);
  for (const topo::HostInfo& h : topo_.hosts()) no_filters.upload(h.id, {});
  std::vector<ProbeRecord> recs;
  for (RnicId victim : topo_.host(HostId{1}).rnics) {
    for (int i = 0; i < 14; ++i) {
      recs.push_back(make_record(RnicId{0}, victim, ProbeStatus::kOk));
    }
    for (int i = 0; i < 6; ++i) {
      recs.push_back(make_record(RnicId{0}, victim, ProbeStatus::kTimeout));
    }
  }
  no_filters.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = no_filters.analyze_now();
  // Without the Fig. 6 filters both RNICs are (wrongly) flagged.
  std::size_t rnic_problems = 0;
  for (const auto& p : rep.problems) {
    if (p.category == ProblemCategory::kRnicProblem) ++rnic_problems;
  }
  EXPECT_EQ(rnic_problems, 2u);
}

TEST_F(AnalyzerTest, Algorithm1FindsCommonLink) {
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  // Build timeout probes that all share one fabric link: same (src, dst,
  // port) repeated — deterministic ECMP gives one path.
  std::vector<ProbeRecord> recs;
  ProbeRecord proto =
      make_record(RnicId{0}, RnicId{12}, ProbeStatus::kTimeout,
                  ProbeKind::kInterTor);
  const LinkId common = proto.fwd_path.links[1];
  for (int i = 0; i < 10; ++i) {
    ProbeRecord r = proto;
    r.id = next_id_++;
    recs.push_back(r);
  }
  // Plus unrelated OK probes elsewhere.
  for (int i = 0; i < 50; ++i) {
    recs.push_back(make_record(RnicId{4}, RnicId{8}, ProbeStatus::kOk,
                               ProbeKind::kInterTor));
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  const Problem* sw = nullptr;
  for (const auto& p : rep.problems) {
    if (p.category == ProblemCategory::kSwitchNetworkProblem) sw = &p;
  }
  ASSERT_NE(sw, nullptr);
  bool found = false;
  for (LinkId l : sw->suspect_links) {
    if (l == common) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_FALSE(sw->top_link_votes.empty());
  EXPECT_GE(sw->top_link_votes.front().second, 10u);
}

TEST_F(AnalyzerTest, RnicBlameWindowPersistsAcrossPeriods) {
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  // Period 1: RNIC 6 anomalous.
  std::vector<ProbeRecord> recs;
  for (int i = 0; i < 20; ++i) {
    recs.push_back(make_record(RnicId{4}, RnicId{6}, ProbeStatus::kTimeout));
  }
  analyzer_.upload(HostId{2}, std::move(recs));
  sched_.run_until(sec(20));
  analyzer_.analyze_now();
  // Period 2 (within the 60 s blame window): sparse timeouts to RNIC 6 must
  // still be attributed to the RNIC, not to switches.
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  recs.clear();
  recs.push_back(make_record(RnicId{4}, RnicId{6}, ProbeStatus::kTimeout,
                             ProbeKind::kInterTor));
  recs.push_back(make_record(RnicId{4}, RnicId{6}, ProbeStatus::kTimeout,
                             ProbeKind::kInterTor));
  analyzer_.upload(HostId{2}, std::move(recs));
  sched_.run_until(sec(40));
  const PeriodReport& rep = analyzer_.analyze_now();
  EXPECT_EQ(rep.timeouts_rnic, 2u);
  EXPECT_EQ(rep.timeouts_switch, 0u);
}

TEST_F(AnalyzerTest, SlaSplitsRnicAndSwitchDropRates) {
  heartbeat_all_hosts();
  upload_healthy_tormesh(10);  // 160 OK probes
  std::vector<ProbeRecord> recs;
  // An anomalous RNIC (20 timeouts)...
  for (int i = 0; i < 20; ++i) {
    recs.push_back(make_record(RnicId{4}, RnicId{6}, ProbeStatus::kTimeout));
  }
  // ...and a switch problem (10 timeouts on one inter-ToR tuple).
  ProbeRecord proto = make_record(RnicId{0}, RnicId{12},
                                  ProbeStatus::kTimeout, ProbeKind::kInterTor);
  for (int i = 0; i < 10; ++i) {
    ProbeRecord r = proto;
    r.id = next_id_++;
    recs.push_back(r);
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  const auto& sla = rep.cluster_sla;
  EXPECT_EQ(sla.probes, 160u + 30u);
  EXPECT_EQ(sla.timeouts, 30u);
  EXPECT_NEAR(sla.rnic_drop_rate, 20.0 / 190.0, 1e-9);
  EXPECT_NEAR(sla.switch_drop_rate, 10.0 / 190.0, 1e-9);
  EXPECT_GT(sla.rtt_p50, 0.0);
}

TEST_F(AnalyzerTest, ServiceImpactPriorities) {
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  // A degraded service whose tracing sees switch timeouts -> P0.
  double metric = 0.2;  // below the 0.5 threshold
  analyzer_.register_service({ServiceId{9}, [&metric] { return metric; }});
  std::vector<ProbeRecord> recs;
  ProbeRecord proto = make_record(RnicId{0}, RnicId{12},
                                  ProbeStatus::kTimeout,
                                  ProbeKind::kServiceTracing);
  proto.service = ServiceId{9};
  for (int i = 0; i < 10; ++i) {
    ProbeRecord r = proto;
    r.id = next_id_++;
    recs.push_back(r);
  }
  // Plus OK service probes so the service network is known.
  for (int i = 0; i < 50; ++i) {
    ProbeRecord r = make_record(RnicId{0}, RnicId{12}, ProbeStatus::kOk,
                                ProbeKind::kServiceTracing);
    r.service = ServiceId{9};
    recs.push_back(r);
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  const Problem* sw = nullptr;
  for (const auto& p : rep.problems) {
    if (p.category == ProblemCategory::kSwitchNetworkProblem) sw = &p;
  }
  ASSERT_NE(sw, nullptr);
  EXPECT_TRUE(sw->detected_by_service_tracing);
  EXPECT_TRUE(sw->in_service_network);
  EXPECT_EQ(sw->priority, Priority::kP0);
  EXPECT_FALSE(analyzer_.network_innocent(ServiceId{9}));
  // A healthy metric downgrades the same evidence to P1.
  metric = 0.9;
  heartbeat_all_hosts();
  recs.clear();
  for (int i = 0; i < 10; ++i) {
    ProbeRecord r = proto;
    r.id = next_id_++;
    recs.push_back(r);
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep2 = analyzer_.analyze_now();
  for (const auto& p : rep2.problems) {
    if (p.category == ProblemCategory::kSwitchNetworkProblem) {
      EXPECT_EQ(p.priority, Priority::kP1);
    }
  }
}

TEST_F(AnalyzerTest, NetworkInnocentWhenNoServiceProblems) {
  analyzer_.register_service({ServiceId{9}, [] { return 0.1; }});
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  analyzer_.analyze_now();
  // Service degraded but no P0/P1: the network is innocent.
  EXPECT_TRUE(analyzer_.network_innocent(ServiceId{9}));
}

TEST_F(AnalyzerTest, HighProcessingDelayProblem) {
  heartbeat_all_hosts();
  upload_healthy_tormesh();
  std::vector<ProbeRecord> recs;
  for (int i = 0; i < 20; ++i) {
    ProbeRecord r = make_record(RnicId{0}, RnicId{4}, ProbeStatus::kOk);
    r.responder_delay = msec(20);  // way above the 5 ms threshold
    recs.push_back(r);
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  const Problem* p = nullptr;
  for (const auto& prob : rep.problems) {
    if (prob.category == ProblemCategory::kHighProcessingDelay) p = &prob;
  }
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->host, topo_.rnic(RnicId{4}).host);
}

/// Every field of a PeriodReport as text, doubles in hexfloat, so that two
/// reports compare byte for byte.
std::string report_bytes(const PeriodReport& rep) {
  std::ostringstream os;
  os << std::hexfloat;
  const auto sla = [&os](const SlaReport& s) {
    os << "sla " << s.probes << ' ' << s.timeouts << ' ' << s.rnic_drop_rate
       << ' ' << s.switch_drop_rate << ' ' << s.rtt_mean << ' ' << s.rtt_p50
       << ' ' << s.rtt_p90 << ' ' << s.rtt_p99 << ' ' << s.rtt_p999 << ' '
       << s.proc_p50 << ' ' << s.proc_p90 << ' ' << s.proc_p99 << ' '
       << s.proc_p999 << ' ' << s.evidence.id << '\n';
  };
  os << rep.period_start << ' ' << rep.period_end << ' '
     << rep.records_processed << ' ' << rep.timeouts_host_down << ' '
     << rep.timeouts_qpn_reset << ' ' << rep.timeouts_agent_cpu << ' '
     << rep.timeouts_rnic << ' ' << rep.timeouts_switch << '\n';
  for (const Problem& p : rep.problems) {
    os << "problem " << p.problem_id << ' ' << p.evidence.id << ' '
       << static_cast<int>(p.category) << ' ' << static_cast<int>(p.priority)
       << ' ' << p.rnic.value << ' ' << p.host.value << ' '
       << p.anomalous_probes << ' ' << p.in_service_network << ' '
       << p.service.value << ' ' << p.detected_by_service_tracing << ' '
       << p.summary;
    for (LinkId l : p.suspect_links) os << " l" << l.value;
    for (SwitchId sw : p.suspect_switches) os << " s" << sw.value;
    for (const auto& [l, votes] : p.top_link_votes) {
      os << " v" << l.value << ':' << votes;
    }
    os << '\n';
  }
  sla(rep.cluster_sla);
  for (const auto& [svc, s] : rep.service_slas) {
    os << "service " << svc.value << ' ';
    sla(s);
  }
  return os.str();
}

TEST_F(AnalyzerTest, SketchModeLeavesRawRecordVerdictsAndSlaUnchanged) {
  // Sketch mode decides only whether Agents fold healthy records; the
  // Analyzer has one statistics path. One period of raw records and no
  // summaries therefore yields the same report and diagnosis bytes in
  // either mode: SLA tables, the per-host delay tails behind the Fig. 6
  // filters and the bottleneck scan, and every verdict.
  std::vector<ProbeRecord> recs;
  for (int i = 0; i < 20; ++i) {  // healthy ToR-mesh denominators
    for (SwitchId tor : topo_.tor_switches()) {
      const auto& group = topo_.rnics_under_tor(tor);
      for (std::size_t a = 0; a < group.size(); ++a) {
        ProbeRecord r = make_record(group[a], group[(a + 1) % group.size()],
                                    ProbeStatus::kOk);
        r.network_rtt = usec(4 + i % 7);
        r.responder_delay = usec(6 + (i + a) % 5);
        recs.push_back(r);
      }
    }
  }
  // Responder delays above kHighProcDelayThreshold on both RNICs of host 5.
  for (const RnicId slow : {RnicId{10}, RnicId{11}}) {
    for (int i = 0; i < 10; ++i) {
      ProbeRecord r = make_record(RnicId{0}, slow, ProbeStatus::kOk);
      r.responder_delay = msec(20 + i);
      recs.push_back(r);
    }
  }
  // An anomalous RNIC and a switch problem.
  for (int i = 0; i < 20; ++i) {
    recs.push_back(make_record(RnicId{4}, RnicId{6}, ProbeStatus::kTimeout));
  }
  for (int i = 0; i < 10; ++i) {
    recs.push_back(make_record(RnicId{0}, RnicId{12}, ProbeStatus::kTimeout,
                               ProbeKind::kInterTor));
  }
  // Two services, one of them with timeouts of its own.
  for (const auto& [svc, target] : {std::pair{9u, RnicId{12}},
                                    std::pair{11u, RnicId{8}}}) {
    for (int i = 0; i < 30; ++i) {
      ProbeRecord r = make_record(RnicId{2}, target, ProbeStatus::kOk,
                                  ProbeKind::kServiceTracing);
      r.service = ServiceId{svc};
      r.network_rtt = usec(10 + i * static_cast<int>(svc) % 13);
      r.responder_delay = usec(5 + i % 4);
      recs.push_back(r);
    }
  }
  for (int i = 0; i < 4; ++i) {
    ProbeRecord r = make_record(RnicId{2}, RnicId{12}, ProbeStatus::kTimeout,
                                ProbeKind::kServiceTracing);
    r.service = ServiceId{9};
    recs.push_back(r);
  }

  struct Outcome {
    std::string report;
    std::string diagnosis;
  };
  const auto run = [&](SketchMode mode) {
    AnalyzerConfig cfg;
    cfg.sketch_mode = mode;
    Analyzer a(topo_, ctrl_, sched_, cfg);
    for (const topo::HostInfo& h : topo_.hosts()) a.upload(h.id, {});
    a.upload(HostId{0}, recs);
    const PeriodReport& rep = a.analyze_now();
    // Not vacuous: the period exercises both tails and both SLA tiers.
    const auto has = [&rep](ProblemCategory c, HostId h) {
      return std::any_of(rep.problems.begin(), rep.problems.end(),
                         [&](const Problem& p) {
                           return p.category == c && p.host == h;
                         });
    };
    EXPECT_TRUE(has(ProblemCategory::kHighProcessingDelay, HostId{5}));
    EXPECT_TRUE(has(ProblemCategory::kRnicProblem, HostId{3}));
    EXPECT_GT(rep.timeouts_switch, 0u);
    EXPECT_EQ(rep.service_slas.size(), 2u);
    EXPECT_GT(rep.cluster_sla.proc_p99, static_cast<double>(msec(5)));
    return Outcome{report_bytes(rep),
                   obs::to_json(a.diagnosis_history().back())};
  };
  const Outcome off = run(SketchMode::kOff);
  const Outcome on = run(SketchMode::kOn);
  EXPECT_EQ(on.report, off.report);
  EXPECT_EQ(on.diagnosis, off.diagnosis);
}

TEST_F(AnalyzerTest, HistoryBounded) {
  AnalyzerConfig cfg;
  cfg.history_limit = 3;
  Analyzer a(topo_, ctrl_, sched_, cfg);
  for (int i = 0; i < 10; ++i) a.analyze_now();
  EXPECT_EQ(a.history().size(), 3u);
}

TEST_F(AnalyzerTest, RecordTapSeesEveryUpload) {
  int taps = 0;
  analyzer_.set_record_tap([&](const ProbeRecord&) { ++taps; });
  std::vector<ProbeRecord> recs;
  recs.push_back(make_record(RnicId{0}, RnicId{1}, ProbeStatus::kOk));
  recs.push_back(make_record(RnicId{0}, RnicId{2}, ProbeStatus::kOk));
  analyzer_.upload(HostId{0}, std::move(recs));
  EXPECT_EQ(taps, 2);
}

TEST_F(AnalyzerTest, IngestMergesEveryHostsRecords) {
  // Batches from every host must all reach the same period report.
  std::size_t total = 0;
  std::uint64_t seq = 1;
  for (const topo::HostInfo& h : topo_.hosts()) {
    UploadBatch b;
    b.host = h.id;
    b.seq = seq++;
    for (int i = 0; i < 5; ++i) {
      b.records.push_back(
          make_record(h.rnics[0], h.rnics[1], ProbeStatus::kOk));
    }
    total += b.records.size();
    analyzer_.sink().submit(std::move(b));
  }
  const PeriodReport& rep = analyzer_.analyze_now();
  EXPECT_EQ(rep.records_processed, total);
}

TEST_F(AnalyzerTest, DuplicateBatchesAreSuppressed) {
  // An at-least-once transport redelivers batches; the same (host, seq)
  // must count once no matter how often it arrives.
  UploadBatch b;
  b.host = HostId{0};
  b.seq = 7;
  b.records.push_back(make_record(RnicId{0}, RnicId{1}, ProbeStatus::kOk));
  b.records.push_back(make_record(RnicId{0}, RnicId{2}, ProbeStatus::kOk));

  analyzer_.sink().submit(UploadBatch(b));
  analyzer_.sink().submit(UploadBatch(b));  // retransmit duplicate
  analyzer_.sink().submit(UploadBatch(b));

  // A distinct sequence number from the same host is new data.
  UploadBatch b2 = b;
  b2.seq = 8;
  analyzer_.sink().submit(std::move(b2));

  const PeriodReport& rep = analyzer_.analyze_now();
  EXPECT_EQ(rep.records_processed, 4u);  // 2 + 2, duplicates dropped
}

TEST_F(AnalyzerTest, StaleBatchBehindDedupWindowIsDropped) {
  auto batch = [&](std::uint64_t seq) {
    UploadBatch b;
    b.host = HostId{0};
    b.seq = seq;
    b.records.push_back(make_record(RnicId{0}, RnicId{1}, ProbeStatus::kOk));
    return b;
  };
  constexpr std::uint64_t kTop = IngestSink::kDedupWindow + 100;
  analyzer_.sink().submit(batch(kTop));
  analyzer_.sink().submit(batch(kTop + 1));
  // Far behind the window: can only be an ancient retransmit.
  analyzer_.sink().submit(batch(10));
  const PeriodReport& rep = analyzer_.analyze_now();
  EXPECT_EQ(rep.records_processed, 2u);
}

TEST_F(AnalyzerTest, DuplicateBatchStillProvesHostLiveness) {
  // Host 0 keeps resending one batch (its acks are being lost). It must not
  // be declared down: duplicates still prove the Agent is alive.
  UploadBatch b;
  b.host = HostId{0};
  b.seq = 1;
  analyzer_.sink().submit(UploadBatch(b));
  sched_.run_until(sec(30));  // beyond the 20 s silence threshold
  for (const topo::HostInfo& h : topo_.hosts()) {
    if (h.id != HostId{0}) analyzer_.upload(h.id, {});
  }
  analyzer_.sink().submit(UploadBatch(b));  // duplicate, fresh timestamp
  const PeriodReport& rep = analyzer_.analyze_now();
  for (const auto& p : rep.problems) {
    EXPECT_FALSE(p.category == ProblemCategory::kHostDown &&
                 p.host == HostId{0});
  }
}

TEST_F(AnalyzerTest, RetriedBatchLeavesVoteTallyUnchanged) {
  // An at-least-once transport, which retries a batch under its one
  // sequence number until it is acked, can deliver the same (host, seq)
  // batch several times. Algorithm 1's vote tally and the
  // evidence chain behind the switch verdict must count each probe once.
  std::vector<ProbeRecord> healthy;
  for (int i = 0; i < 50; ++i) {
    healthy.push_back(make_record(RnicId{4}, RnicId{8}, ProbeStatus::kOk,
                                  ProbeKind::kInterTor));
  }
  UploadBatch b;
  b.host = HostId{0};
  b.seq = 42;
  const ProbeRecord proto = make_record(RnicId{0}, RnicId{12},
                                        ProbeStatus::kTimeout,
                                        ProbeKind::kInterTor);
  for (int i = 0; i < 10; ++i) {
    ProbeRecord r = proto;
    r.id = next_id_++;
    b.records.push_back(r);
  }

  struct Outcome {
    std::size_t records = 0;
    std::size_t top_votes = 0;
    std::string chain_json;
  };
  const auto run = [&](int deliveries) {
    Analyzer a(topo_, ctrl_, sched_);
    for (const topo::HostInfo& h : topo_.hosts()) a.upload(h.id, {});
    a.upload(HostId{0}, healthy);
    for (int i = 0; i < deliveries; ++i) a.sink().submit(UploadBatch(b));
    const PeriodReport& rep = a.analyze_now();
    const Problem* sw = nullptr;
    for (const Problem& p : rep.problems) {
      if (p.category == ProblemCategory::kSwitchNetworkProblem) sw = &p;
    }
    Outcome out;
    out.records = rep.records_processed;
    if (sw != nullptr) {
      out.top_votes = sw->top_link_votes.empty()
                          ? 0
                          : sw->top_link_votes.front().second;
      if (const obs::EvidenceChain* c = a.evidence(sw->evidence)) {
        out.chain_json = obs::to_json(*c);
      }
    }
    return out;
  };

  const Outcome once = run(1);
  const Outcome thrice = run(3);
  EXPECT_EQ(once.records, 60u);
  EXPECT_EQ(thrice.records, once.records);
  // Exactly the 10 distinct timeout probes vote — never 30.
  EXPECT_EQ(once.top_votes, 10u);
  EXPECT_EQ(thrice.top_votes, once.top_votes);
  // Byte-identical receipts: probe ids, tallies, thresholds all unchanged.
  ASSERT_FALSE(once.chain_json.empty());
  EXPECT_EQ(thrice.chain_json, once.chain_json);
}

TEST_F(AnalyzerTest, LateRetransmittedBatchesLeaveVoteTallyUnchanged) {
  // During an Analyzer outage the upload channel keeps retrying the Agent's
  // batches, each on its own backoff timer, so after reconnect they land
  // out of seq order, possibly duplicated by the at-least-once transport,
  // and in a later analysis period than they would have. Summed across
  // periods, the (host, seq) dedup and period bucketing must absorb that
  // late history without double-counting a single Algorithm-1 vote.
  const auto make_batch = [&](std::uint64_t seq) {
    UploadBatch b;
    b.host = HostId{0};
    b.seq = seq;
    for (int i = 0; i < 5; ++i) {
      b.records.push_back(make_record(RnicId{0}, RnicId{12},
                                      ProbeStatus::kTimeout,
                                      ProbeKind::kInterTor));
    }
    return b;
  };
  const UploadBatch b1 = make_batch(1);
  const UploadBatch b2 = make_batch(2);
  const UploadBatch b3 = make_batch(3);
  const UploadBatch b4 = make_batch(4);

  std::vector<ProbeRecord> healthy;
  for (int i = 0; i < 50; ++i) {
    healthy.push_back(make_record(RnicId{4}, RnicId{8}, ProbeStatus::kOk,
                                  ProbeKind::kInterTor));
  }

  struct Tally {
    std::size_t records = 0;
    std::size_t votes = 0;
  };
  const auto tally_period = [](Analyzer& a, Tally& t) {
    const PeriodReport& rep = a.analyze_now();
    t.records += rep.records_processed;
    for (const Problem& p : rep.problems) {
      if (p.category == ProblemCategory::kSwitchNetworkProblem &&
          !p.top_link_votes.empty()) {
        t.votes += p.top_link_votes.front().second;
      }
    }
  };
  const auto feed = [&](Analyzer& a) {
    for (const topo::HostInfo& h : topo_.hosts()) a.upload(h.id, {});
    a.upload(HostId{0}, healthy);
  };

  // Baseline: all four batches arrive in order inside one period.
  Analyzer in_order(topo_, ctrl_, sched_);
  Tally baseline;
  feed(in_order);
  for (const UploadBatch* b : {&b1, &b2, &b3, &b4}) {
    in_order.sink().submit(UploadBatch(*b));
  }
  tally_period(in_order, baseline);
  EXPECT_EQ(baseline.records, 70u);
  EXPECT_EQ(baseline.votes, 20u);  // 4 batches x 5 distinct timeout probes

  // Outage replay: batch 1 lands normally; the period closes; then the
  // retransmissions deliver 3, 2, a duplicated 2, and 4 into the next
  // period.
  Analyzer replay(topo_, ctrl_, sched_);
  Tally late;
  feed(replay);
  replay.sink().submit(UploadBatch(b1));
  tally_period(replay, late);
  feed(replay);
  for (const UploadBatch* b : {&b3, &b2, &b2, &b4}) {
    replay.sink().submit(UploadBatch(*b));
  }
  tally_period(replay, late);

  // The healthy background was fed twice (once per period); discount it.
  EXPECT_EQ(late.records - healthy.size(), baseline.records);
  EXPECT_EQ(late.votes, baseline.votes);
}

TEST_F(AnalyzerTest, ConfigValidation) {
  AnalyzerConfig bad;
  bad.period = 0;
  EXPECT_THROW(Analyzer(topo_, ctrl_, sched_, bad), std::invalid_argument);
  EXPECT_THROW(analyzer_.register_service({ServiceId{1}, nullptr}),
               std::invalid_argument);
}

TEST_F(AnalyzerTest, SinkSubmitIsTheIngestSurface) {
  // The deprecated ingest_batch shim is gone; sink().submit() is the one
  // ingest surface.
  UploadBatch b;
  b.host = HostId{0};
  b.seq = 1;
  b.records.push_back(make_record(RnicId{0}, RnicId{1}, ProbeStatus::kOk));
  analyzer_.sink().submit(std::move(b));
  EXPECT_EQ(analyzer_.analyze_now().records_processed, 1u);
}

TEST_F(AnalyzerTest, SameUploadsYieldByteIdenticalVerdicts) {
  // Determinism: the same uploads — at-least-once duplicates included —
  // produce byte-identical verdicts, SLA tables, and diagnosis JSON in two
  // fresh Analyzers.

  // Build the scenario once; each run replays copies of the same batches.
  std::vector<UploadBatch> batches;
  std::uint64_t seq = 1;
  for (const topo::HostInfo& h : topo_.hosts()) {  // liveness heartbeats
    UploadBatch b;
    b.host = h.id;
    b.seq = seq++;
    batches.push_back(std::move(b));
  }
  {
    UploadBatch healthy;  // ToR-mesh background with denominators
    healthy.host = HostId{0};
    healthy.seq = seq++;
    for (int i = 0; i < 30; ++i) {
      healthy.records.push_back(
          make_record(RnicId{4}, RnicId{8}, ProbeStatus::kOk,
                      ProbeKind::kInterTor));
    }
    batches.push_back(std::move(healthy));
  }
  {
    UploadBatch timeouts;  // a switch problem: common-path timeouts
    timeouts.host = HostId{1};
    timeouts.seq = seq++;
    for (int i = 0; i < 10; ++i) {
      timeouts.records.push_back(make_record(RnicId{2}, RnicId{12},
                                             ProbeStatus::kTimeout,
                                             ProbeKind::kInterTor));
    }
    batches.push_back(std::move(timeouts));
  }
  {
    UploadBatch hot;  // congestion: sustained high RTT
    hot.host = HostId{2};
    hot.seq = seq++;
    for (int i = 0; i < 8; ++i) {
      ProbeRecord r = make_record(RnicId{5}, RnicId{9}, ProbeStatus::kOk,
                                  ProbeKind::kInterTor);
      r.network_rtt = msec(2);
      hot.records.push_back(r);
    }
    batches.push_back(std::move(hot));
  }

  const auto digest = [&] {
    Analyzer a(topo_, ctrl_, sched_);
    for (const UploadBatch& b : batches) {
      a.sink().submit(UploadBatch(b));
      a.sink().submit(UploadBatch(b));  // at-least-once duplicate
    }
    const PeriodReport& rep = a.analyze_now();
    std::ostringstream os;
    os << rep.records_processed << '|' << rep.timeouts_switch << '|'
       << rep.timeouts_rnic << '|' << rep.timeouts_host_down << '|'
       << rep.cluster_sla.probes << '|' << rep.cluster_sla.timeouts << '|'
       << rep.cluster_sla.rtt_p50 << '|' << rep.cluster_sla.rtt_p99 << '|'
       << rep.cluster_sla.switch_drop_rate << '\n';
    for (const Problem& p : rep.problems) {
      os << static_cast<int>(p.category) << ':'
         << static_cast<int>(p.priority) << ':' << p.summary;
      for (LinkId l : p.suspect_links) os << ':' << l.value;
      os << '\n';
    }
    os << obs::to_json(*a.last_diagnosis());
    return os.str();
  };

  const std::string first = digest();
  EXPECT_GT(first.size(), 100u);
  EXPECT_EQ(digest(), first);
}

TEST(IngestSinkTest, DrainReturnsEachAcceptedRecordOnceInSubmissionOrder) {
  IngestSink sink;
  const std::vector<std::uint32_t> hosts = {12, 9, 2, 1, 17, 8, 5, 2};
  for (std::uint64_t i = 0; i < hosts.size(); ++i) {
    UploadBatch b;
    b.host = HostId{hosts[i]};
    b.seq = i + 1;
    ProbeRecord r;
    r.id = i;
    b.records.push_back(r);
    sink.submit(UploadBatch(b));
    sink.submit(std::move(b));  // at-least-once duplicate: dropped
  }
  std::vector<std::uint64_t> ids;
  for (const ProbeRecord& r : sink.drain_period()) ids.push_back(r.id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_TRUE(sink.drain_period().empty());
}

TEST_F(AnalyzerTest, GreedyTieBlamesTheRnicWithMoreTimeouts) {
  // RNICs a and b each time out half of their ToR-mesh probes, and every
  // timeout is between the two, so blaming one clears the other. At the
  // equal ratio the RNIC with more timeouts (more evidence) is blamed, even
  // though a has the lower id.
  heartbeat_all_hosts();
  const RnicId a = topo_.host(HostId{0}).rnics[0];
  const RnicId b = topo_.host(HostId{1}).rnics[0];
  const RnicId peer = topo_.host(HostId{2}).rnics[0];
  ASSERT_LT(a.value, b.value);
  std::vector<ProbeRecord> recs;
  for (int i = 0; i < 2; ++i) {
    recs.push_back(make_record(b, a, ProbeStatus::kTimeout));
    recs.push_back(make_record(peer, a, ProbeStatus::kOk));
  }
  for (int i = 0; i < 4; ++i) {
    recs.push_back(make_record(a, b, ProbeStatus::kTimeout));
    recs.push_back(make_record(peer, b, ProbeStatus::kOk));
  }
  analyzer_.upload(HostId{0}, std::move(recs));
  const PeriodReport& rep = analyzer_.analyze_now();
  std::vector<RnicId> blamed;
  for (const Problem& p : rep.problems) {
    if (p.category == ProblemCategory::kRnicProblem) blamed.push_back(p.rnic);
  }
  EXPECT_EQ(blamed, std::vector<RnicId>{b});
  EXPECT_EQ(rep.timeouts_rnic, 6u);
  EXPECT_EQ(rep.timeouts_switch, 0u);
}

// Every field of a PeriodReport, doubles in hex so no bit is rounded away.
std::string serialize(const PeriodReport& rep) {
  std::ostringstream os;
  os << std::hexfloat;
  const auto sla = [&os](const SlaReport& s) {
    os << s.probes << ',' << s.timeouts << ',' << s.rnic_drop_rate << ','
       << s.switch_drop_rate << ',' << s.rtt_mean << ',' << s.rtt_p50 << ','
       << s.rtt_p90 << ',' << s.rtt_p99 << ',' << s.rtt_p999 << ','
       << s.proc_p50 << ',' << s.proc_p90 << ',' << s.proc_p99 << ','
       << s.proc_p999 << ',' << s.evidence.id << '\n';
  };
  os << rep.period_start << ',' << rep.period_end << ','
     << rep.records_processed << ',' << rep.timeouts_host_down << ','
     << rep.timeouts_qpn_reset << ',' << rep.timeouts_agent_cpu << ','
     << rep.timeouts_rnic << ',' << rep.timeouts_switch << '\n';
  for (const Problem& p : rep.problems) {
    os << p.problem_id << ',' << p.evidence.id << ','
       << static_cast<int>(p.category) << ',' << static_cast<int>(p.priority)
       << ',' << p.rnic.value << ',' << p.host.value << ",links";
    for (LinkId l : p.suspect_links) os << ' ' << l.value;
    os << ",switches";
    for (SwitchId sw : p.suspect_switches) os << ' ' << sw.value;
    os << ",votes";
    for (const auto& [l, v] : p.top_link_votes) os << ' ' << l.value << ':' << v;
    os << ',' << p.anomalous_probes << ',' << p.in_service_network << ','
       << p.service.value << ',' << p.detected_by_service_tracing << ','
       << p.summary << '\n';
  }
  sla(rep.cluster_sla);
  for (const auto& [svc, s] : rep.service_slas) {
    os << "service " << svc.value << ':';
    sla(s);
  }
  return os.str();
}

TEST_F(AnalyzerTest, VerdictsDoNotDependOnRecordOrder) {
  // One period that exercises every step whose output once followed record
  // order: a greedy RNIC tie, two down hosts, two services with hot and
  // timed-out tracing probes, two hosts above the processing-delay
  // threshold, and more evidence probes than a chain keeps. Each seeded
  // permutation submits the same records one per call (and the silent
  // hosts' last uploads in shuffled order); the report and the DiagnosisLog
  // must not move.
  const auto rnic = [this](std::uint32_t host, std::size_t i) {
    return topo_.host(HostId{host}).rnics[i];
  };
  std::vector<ProbeRecord> recs;
  const auto add = [&](RnicId prober, RnicId target, ProbeStatus st,
                       ProbeKind kind, int n, ServiceId svc = ServiceId{},
                       TimeNs rtt = 0, TimeNs delay = 0) {
    for (int i = 0; i < n; ++i) {
      ProbeRecord r = make_record(prober, target, st, kind);
      r.service = svc;
      if (rtt > 0) r.network_rtt = rtt;
      if (delay > 0) r.responder_delay = delay;
      recs.push_back(r);
    }
  };
  // Greedy tie: rnic(0,0) and rnic(1,0) both at ratio 0.5, the second with
  // more timeouts.
  add(rnic(1, 0), rnic(0, 0), ProbeStatus::kTimeout, ProbeKind::kTorMesh, 2);
  add(rnic(2, 0), rnic(0, 0), ProbeStatus::kOk, ProbeKind::kTorMesh, 2);
  add(rnic(0, 0), rnic(1, 0), ProbeStatus::kTimeout, ProbeKind::kTorMesh, 4);
  add(rnic(2, 0), rnic(1, 0), ProbeStatus::kOk, ProbeKind::kTorMesh, 4);
  // Hosts 6 and 7 go silent (below): timeouts to them are host-down.
  add(rnic(0, 1), rnic(6, 0), ProbeStatus::kTimeout, ProbeKind::kInterTor, 3);
  add(rnic(0, 1), rnic(7, 0), ProbeStatus::kTimeout, ProbeKind::kInterTor, 3);
  // Two services: hot tracing probes and tracing timeouts in each.
  for (const std::uint32_t svc : {1u, 2u}) {
    add(rnic(2, 1), rnic(3, 1), ProbeStatus::kOk, ProbeKind::kServiceTracing,
        4, ServiceId{svc}, msec(2));
    add(rnic(3, 1), rnic(2, 1), ProbeStatus::kTimeout,
        ProbeKind::kServiceTracing, 3, ServiceId{svc});
  }
  // Hosts 4 and 5 process probes far above the 5 ms threshold.
  add(rnic(2, 0), rnic(4, 0), ProbeStatus::kOk, ProbeKind::kInterTor, 4,
      ServiceId{}, 0, msec(20));
  add(rnic(3, 0), rnic(5, 1), ProbeStatus::kOk, ProbeKind::kInterTor, 4,
      ServiceId{}, 0, msec(30));
  // 42 switch timeouts from three hosts: more than a chain's 32 ids.
  for (int i = 0; i < 14; ++i) {
    add(rnic(0, 1), rnic(2, 1), ProbeStatus::kTimeout, ProbeKind::kInterTor,
        1);
    add(rnic(2, 0), rnic(3, 0), ProbeStatus::kTimeout, ProbeKind::kInterTor,
        1);
    add(rnic(3, 0), rnic(2, 0), ProbeStatus::kTimeout, ProbeKind::kInterTor,
        1);
  }

  const auto run = [&](const std::vector<std::uint32_t>& silent,
                       const std::vector<ProbeRecord>& order) {
    sim::InlineScheduler sched;
    Analyzer a(topo_, ctrl_, sched);
    a.register_service({ServiceId{1}, [] { return 0.2; }});
    a.register_service({ServiceId{2}, [] { return 0.9; }});
    for (const std::uint32_t h : silent) a.upload(HostId{h}, {});
    sched.run_until(sec(30));  // the silent hosts' uploads are now stale
    for (const ProbeRecord& r : order) {
      a.sink().submit_trusted(r.prober_host, {r});
    }
    const PeriodReport& rep = a.analyze_now();
    return serialize(rep) + obs::to_json(*a.last_diagnosis());
  };

  const std::vector<std::uint32_t> silent = {6, 7};
  const std::string base = run(silent, recs);
  // Not vacuous: every branch above produced its verdict.
  EXPECT_NE(base.find("stopped uploading"), std::string::npos);
  EXPECT_NE(base.find("anomalous-rnic"), std::string::npos);
  EXPECT_NE(base.find("end-host bottleneck"), std::string::npos);
  EXPECT_NE(base.find("service tracing"), std::string::npos);
  EXPECT_NE(base.find("sla-violation"), std::string::npos);
  for (std::uint32_t seed = 1; seed <= 5; ++seed) {
    std::mt19937 rng(seed);
    std::vector<std::uint32_t> silent_order = silent;
    std::shuffle(silent_order.begin(), silent_order.end(), rng);
    std::vector<ProbeRecord> order = recs;
    std::shuffle(order.begin(), order.end(), rng);
    EXPECT_EQ(run(silent_order, order), base) << "permutation seed " << seed;
  }
}

TEST_F(AnalyzerTest, ImpactPicksTheLowestServiceInBothTiers) {
  // A cluster-monitoring switch problem whose suspect links lie in both
  // services' networks belongs to the lower service id, with that service's
  // priority, whichever service's records arrive first — and the global
  // tier agrees.
  const RnicId prober = topo_.host(HostId{0}).rnics[0];
  const RnicId target = topo_.host(HostId{1}).rnics[0];
  const auto service_probes = [&](std::uint32_t svc) {
    std::vector<ProbeRecord> recs;
    for (int i = 0; i < 3; ++i) {
      ProbeRecord r = make_record(prober, target, ProbeStatus::kOk,
                                  ProbeKind::kServiceTracing);
      r.service = ServiceId{svc};
      recs.push_back(r);
    }
    return recs;
  };
  std::vector<ProbeRecord> faults;
  for (int i = 0; i < 5; ++i) {
    faults.push_back(make_record(prober, target, ProbeStatus::kTimeout,
                                 ProbeKind::kInterTor));
  }

  std::vector<LinkId> suspects;
  for (const bool low_first : {true, false}) {
    Analyzer a(topo_, ctrl_, sched_);
    a.register_service({ServiceId{1}, [] { return 0.2; }});  // P0
    a.register_service({ServiceId{2}, [] { return 0.9; }});  // P1
    a.upload(HostId{0}, service_probes(low_first ? 1 : 2));
    a.upload(HostId{0}, service_probes(low_first ? 2 : 1));
    a.upload(HostId{0}, faults);
    const PeriodReport& rep = a.analyze_now();
    const Problem* sw = nullptr;
    for (const Problem& p : rep.problems) {
      if (p.category == ProblemCategory::kSwitchNetworkProblem) sw = &p;
    }
    ASSERT_NE(sw, nullptr) << "low_first " << low_first;
    EXPECT_FALSE(sw->detected_by_service_tracing);
    EXPECT_TRUE(sw->in_service_network);
    EXPECT_EQ(sw->service, ServiceId{1}) << "low_first " << low_first;
    EXPECT_EQ(sw->priority, Priority::kP0) << "low_first " << low_first;
    suspects = sw->suspect_links;
  }

  // The global tier: pod 0 ships service 2's network, pod 1 service 1's.
  ASSERT_FALSE(suspects.empty());
  AnalyzerConfig cfg;
  cfg.period = sec(5);
  GlobalAnalyzer global(topo_, sched_, cfg);
  global.register_service({ServiceId{1}, [] { return 0.2; }});
  global.register_service({ServiceId{2}, [] { return 0.9; }});
  for (const std::uint32_t pod : {0u, 1u}) {
    PodDigest d;
    d.pod = pod;
    d.seq = 1;
    ServiceNetDigest net;
    net.service = pod == 0 ? 2 : 1;
    for (LinkId l : suspects) net.links.push_back(l.value);
    std::sort(net.links.begin(), net.links.end());
    d.service_nets.push_back(net);
    if (pod == 0) {
      Problem p;
      p.category = ProblemCategory::kSwitchNetworkProblem;
      p.suspect_links = suspects;
      d.problems.push_back(p);
    }
    global.ingest_digest(std::move(d));
  }
  const PeriodReport& rep = global.merge_now();
  ASSERT_EQ(rep.problems.size(), 1u);
  EXPECT_EQ(rep.problems[0].service, ServiceId{1});
  EXPECT_EQ(rep.problems[0].priority, Priority::kP0);
}

}  // namespace
}  // namespace rpm::core
