// Tests for the hierarchical federation tier (per-pod Analyzers + global
// merge) and the ControllerGroup standby failover:
//
//  * a federated deployment under a chaos campaign that kills the primary
//    Controller mid-period and a pod's Analyzer mid-drain still reaches full
//    precision/recall on injected ground truth;
//  * same seed => byte-identical ChaosReport JSON for pods in {1, 2, 4};
//  * a restarted Analyzer role reloads its journaled (pod, seq) dedup
//    windows, so replayed digests never re-count drained history, and a
//    restarted pod reloads its digest seq from the one checkpoint it
//    decodes;
//  * standby promotion follows the Controller::restart() contract (fresh
//    registry, epoch fenced past the deposed primary) and exports the
//    rpm_controller_epoch / rpm_controller_failovers_total series;
//  * DiagnosisLogs trimmed past kHistoryLimit spill into the StateJournal
//    archive and explain() falls back to them;
//  * the whole verdict stream (every problem, SLA table and DiagnosisLog)
//    of four deployments is pinned bit for bit against recorded digests;
//  * the global tier rejects a service binding without a metric and merges
//    digest problems that arrive without an evidence chain.
#include <cstdint>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "chaos/chaos.h"
#include "core/digest.h"
#include "core/federation.h"
#include "core/journal.h"
#include "core/rpingmesh.h"
#include "faults/faults.h"
#include "host/cluster.h"
#include "sim/scheduler.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "topo/topology.h"
#include "traffic/dml.h"

namespace rpm {
namespace {

using chaos::ChaosPlan;
using chaos::ChaosReport;
using chaos::ChaosRunner;
using chaos::ChaosStep;

/// Four Clos pods so federation.pods in {1, 2, 4} all populate (hosts fold
/// by Clos pod modulo the federation pod count).
topo::ClosConfig clos_cfg() {
  topo::ClosConfig cfg;
  cfg.num_pods = 4;
  cfg.tors_per_pod = 2;
  cfg.aggs_per_pod = 2;
  cfg.spines_per_plane = 2;
  cfg.hosts_per_tor = 1;
  cfg.rnics_per_host = 2;
  cfg.host_link.capacity_gbps = 100.0;
  cfg.fabric_link.capacity_gbps = 100.0;
  return cfg;
}

/// A federated deployment with 5 s analysis periods and a warm standby.
/// `fluid_step` > 0 coarsens the fabric's fluid integration step (service
/// traffic runs cheaper; probes are packet-level either way).
struct Deployment {
  explicit Deployment(std::uint64_t seed, std::size_t pods, bool standby,
                      core::SketchMode sketch = core::SketchMode::kOff,
                      TimeNs fluid_step = 0)
      : cluster(topo::build_clos(clos_cfg()),
                [seed, fluid_step] {
                  host::ClusterConfig c;
                  c.seed = seed;
                  if (fluid_step > 0) c.fabric.step_interval = fluid_step;
                  return c;
                }()),
        rpm(cluster,
            [pods, standby, sketch] {
              core::RPingmeshConfig c;
              c.analyzer.period = sec(5);
              c.analyzer.sketch_mode = sketch;
              c.federation.pods = pods;
              c.federation.standby_controller = standby;
              return c;
            }()),
        injector(cluster) {
    rpm.start();
  }
  host::Cluster cluster;
  core::RPingmesh rpm;
  faults::FaultInjector injector;

  [[nodiscard]] LinkId first_fabric_link() const {
    for (const topo::Link& l : cluster.topology().links()) {
      if (l.from.is_switch() && l.to.is_switch()) return l.id;
    }
    return LinkId{};
  }
};

/// The issue's acceptance campaign: kill the primary mid-period (the warm
/// standby must take over), kill one pod's Analyzer mid-drain (journal
/// restart), then layer real faults on top — a host failure and a
/// corrupting fabric link, both still active at campaign end.
ChaosPlan failover_plan(std::uint64_t seed, LinkId fabric_link,
                        bool pod_steps) {
  ChaosPlan plan;
  plan.seed = seed;
  plan.duration = sec(140);
  plan.controller_crash(sec(32));     // mid-period (periods close at 5 s)
  plan.controller_restart(sec(50));   // deposed member returns as standby
  if (pod_steps) {
    plan.pod_analyzer_crash(sec(57), 1);  // mid-drain for pod 1
    plan.pod_analyzer_restart(sec(68), 1);
  }
  plan.inject(sec(80), "host3-down", faults::FaultSpec::host_down(HostId{3}))
      .inject(sec(105), "fabric-corruption",
              faults::FaultSpec::corruption(fabric_link, 0.5));
  return plan;
}

TEST(Federation, StepAndAccessorSurfaces) {
  EXPECT_STREQ(chaos_step_name(ChaosStep::Kind::kPodAnalyzerCrash),
               "pod-analyzer-crash");
  EXPECT_STREQ(chaos_step_name(ChaosStep::Kind::kPodAnalyzerRestart),
               "pod-analyzer-restart");

  Deployment flat(3, 1, /*standby=*/false);
  EXPECT_FALSE(flat.rpm.federated());
  EXPECT_EQ(flat.rpm.num_pods(), 1u);
  EXPECT_NO_THROW((void)flat.rpm.analyzer());
  // The flat Analyzer is pod 0; it has no pod role to crash or restart.
  EXPECT_EQ(&flat.rpm.pod_analyzer(0), &flat.rpm.analyzer());
  EXPECT_THROW(flat.rpm.crash_pod_analyzer(0), std::logic_error);
  EXPECT_THROW(flat.rpm.restart_pod_analyzer(0), std::logic_error);
  EXPECT_FALSE(flat.rpm.analyzer().in_outage());

  Deployment fed(3, 2, /*standby=*/false);
  EXPECT_TRUE(fed.rpm.federated());
  EXPECT_EQ(fed.rpm.num_pods(), 2u);
  EXPECT_THROW((void)fed.rpm.analyzer(), std::logic_error);
  EXPECT_EQ(fed.rpm.pod_analyzer(0).pod(), 0u);
  EXPECT_EQ(fed.rpm.pod_analyzer(1).pod(), 1u);
  // Every host lands in exactly one pod; both pods are populated.
  std::size_t pod_hosts[2] = {0, 0};
  for (const topo::HostInfo& h : fed.cluster.topology().hosts()) {
    ++pod_hosts[fed.rpm.pod_of(h.id)];
  }
  EXPECT_GT(pod_hosts[0], 0u);
  EXPECT_GT(pod_hosts[1], 0u);
  EXPECT_EQ(pod_hosts[0] + pod_hosts[1], fed.cluster.num_hosts());
}

TEST(Federation, CampaignSurvivesPrimaryKillAndPodAnalyzerKill) {
  Deployment d(7, 2, /*standby=*/true);
  ChaosRunner runner(d.cluster, d.rpm, d.injector);
  const ChaosReport rep =
      runner.run(failover_plan(7, d.first_fabric_link(), /*pod_steps=*/true));

  // The control-plane events never masquerade as network verdicts.
  EXPECT_EQ(rep.false_positives, 0u);
  EXPECT_EQ(rep.switch_false_positives, 0u);
  EXPECT_EQ(rep.outage_false_positives, 0u);
  EXPECT_EQ(rep.mislocalized, 0u);
  EXPECT_DOUBLE_EQ(rep.precision, 1.0);

  // The real faults are found through the failovers.
  ASSERT_EQ(rep.ground_truths.size(), 2u);
  EXPECT_EQ(rep.ground_truths[0].label, "host3-down");
  EXPECT_TRUE(rep.ground_truths[0].matched);
  EXPECT_EQ(rep.ground_truths[1].label, "fabric-corruption");
  EXPECT_TRUE(rep.ground_truths[1].matched);
  EXPECT_DOUBLE_EQ(rep.recall, 1.0);

  // Bounded recovery after every control-plane event.
  ASSERT_EQ(rep.recoveries.size(), 4u);
  for (const ChaosReport::Recovery& r : rep.recoveries) {
    EXPECT_NE(r.periods_to_recover, -1) << r.event << " never recovered";
    EXPECT_LE(r.periods_to_recover, 8) << r.event;
  }

  // The standby took over exactly once, epoch-fenced past the deposed
  // primary, and every Agent re-registered with it.
  EXPECT_EQ(d.rpm.controller_group().failovers(), 1u);
  EXPECT_FALSE(d.rpm.controller_down());
  EXPECT_EQ(d.rpm.controller().num_registered_agents(), d.cluster.num_hosts());
  for (std::size_t h = 0; h < d.cluster.num_hosts(); ++h) {
    EXPECT_EQ(d.rpm.agent(HostId{static_cast<std::uint32_t>(h)})
                  .controller_epoch_seen(),
              d.rpm.controller().epoch())
        << "host " << h;
  }

  // Digests flowed from both pods into the global merge.
  EXPECT_GT(d.rpm.pod_analyzer(0).digests_sent(), 0u);
  EXPECT_GT(d.rpm.pod_analyzer(1).digests_sent(), 0u);
  EXPECT_GT(d.rpm.pod_analyzer(0).digest_bytes_sent(), 0u);
  EXPECT_GT(d.rpm.global_analyzer().merges(), 0u);
}

TEST(Federation, SameSeedByteIdenticalReportsForEachPodCount) {
  // Two fresh deployments per pod count, same seed and plan: the JSON
  // scorecard must be byte-for-byte identical. (Identity is required per
  // pod count, not across pod counts — merge order and foreign-timeout
  // routing legitimately differ with the partition.)
  for (const std::size_t pods :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::string first;
    for (int run = 0; run < 2; ++run) {
      Deployment d(11, pods, /*standby=*/true);
      ChaosRunner runner(d.cluster, d.rpm, d.injector);
      const std::string json =
          runner.run(failover_plan(11, d.first_fabric_link(), pods > 1))
              .to_json();
      if (run == 0) {
        first = json;
      } else {
        EXPECT_EQ(json, first) << "pods=" << pods;
      }
    }
    EXPECT_FALSE(first.empty());
  }
}

TEST(Federation, GlobalDedupWindowSurvivesJournalRestart) {
  // A replayed digest (same pod, same seq) is dropped before AND after a
  // crash + journal restore: the reloaded (pod, seq) windows keep retried
  // history out of the vote tallies.
  const topo::Topology topo = topo::build_clos(clos_cfg());
  sim::InlineScheduler sched;
  core::StateJournal journal;
  core::AnalyzerConfig cfg;
  cfg.period = sec(5);
  core::GlobalAnalyzer global(topo, sched, cfg);
  global.attach_journal(&journal);

  const auto make_digest = [] {
    core::PodDigest d;
    d.pod = 0;
    d.seq = 1;
    d.period_start = 0;
    d.period_end = sec(5);
    d.records_processed = 100;
    d.timeouts_switch = 7;
    d.cluster_sla.probes = 100;
    d.cluster_sla.timeouts = 7;
    return d;
  };

  global.ingest_digest(make_digest());
  const core::PeriodReport& first = global.merge_now();
  EXPECT_EQ(first.records_processed, 100u);
  EXPECT_EQ(first.timeouts_switch, 7u);

  // Replay before any crash: the live window drops it.
  global.ingest_digest(make_digest());
  EXPECT_EQ(global.duplicate_digests(), 1u);
  EXPECT_EQ(global.merge_now().records_processed, 0u);

  // Crash wipes volatile state; the journal restores the dedup window, so
  // the SAME replay is still caught as a duplicate and tallies stay
  // untouched (the duplicate counter is process-lifetime, so it advances).
  global.crash();
  ASSERT_TRUE(global.restart_from_journal());
  global.ingest_digest(make_digest());
  EXPECT_EQ(global.duplicate_digests(), 2u);
  const core::PeriodReport& after = global.merge_now();
  EXPECT_EQ(after.records_processed, 0u);
  EXPECT_EQ(after.timeouts_switch, 0u);
}

TEST(Federation, PodAnalyzerReloadsDigestSeqFromJournal) {
  Deployment d(5, 2, /*standby=*/false);
  d.cluster.run_for(sec(32));  // a few closed periods, mid-period pause
  core::Analyzer& pod = d.rpm.pod_analyzer(1);
  const std::uint64_t before = pod.digests_sent();
  ASSERT_GT(before, 0u);

  d.rpm.crash_pod_analyzer(1);
  EXPECT_EQ(pod.digests_sent(), 0u);  // volatile seq died with the process
  d.rpm.restart_pod_analyzer(1);
  // The journaled checkpoint carries the post-flush seq: the restarted pod
  // continues the sequence instead of replaying it.
  EXPECT_EQ(pod.digests_sent(), before);

  const std::uint64_t dups = d.rpm.global_analyzer().duplicate_digests();
  d.cluster.run_for(sec(20));
  EXPECT_GT(pod.digests_sent(), before);
  EXPECT_EQ(d.rpm.global_analyzer().duplicate_digests(), dups);
}

/// The first host whose Agent uploads to pod `pod`.
HostId host_in_pod(Deployment& d, std::size_t pod) {
  for (const topo::HostInfo& h : d.cluster.topology().hosts()) {
    if (d.rpm.pod_of(h.id) == pod) return h.id;
  }
  return HostId{};
}

TEST(Federation, PodCrashedBeforeAnOutageStaysDownUntilRestart) {
  // A crash and an Analyzer outage compose. Ending the outage must not
  // revive a crashed pod with empty state and digest seq 0, whose digests
  // would repeat seqs the global tier already holds. The pod and its
  // channels stay down until restart_pod_analyzer(), which resumes from the
  // journaled seq.
  Deployment d(5, 2, /*standby=*/false);
  d.cluster.run_for(sec(31));  // six 5 s closes: pod 1 sent digest seq 6
  core::Analyzer& pod = d.rpm.pod_analyzer(1);
  ASSERT_EQ(pod.digests_sent(), 6u);
  const HostId local = host_in_pod(d, 1);

  d.rpm.crash_pod_analyzer(1);
  d.rpm.begin_analyzer_outage();
  d.cluster.run_for(sec(5));
  d.rpm.end_analyzer_outage();
  const std::uint64_t dups = d.rpm.global_analyzer().duplicate_digests();
  d.cluster.run_for(sec(20));
  EXPECT_TRUE(pod.in_outage());
  EXPECT_EQ(pod.digests_sent(), 0u);
  EXPECT_EQ(d.rpm.global_analyzer().duplicate_digests(), dups);
  // The pod's hosts still find no peer: their uploads wait unacked.
  EXPECT_GT(d.rpm.agent(local).uploads_in_flight(), 0u);

  d.rpm.restart_pod_analyzer(1);
  EXPECT_FALSE(pod.in_outage());
  EXPECT_EQ(pod.digests_sent(), 6u);  // the journaled seq
  d.cluster.run_for(sec(20));
  EXPECT_GT(pod.digests_sent(), 6u);
  EXPECT_EQ(d.rpm.agent(local).uploads_in_flight(), 0u);
  EXPECT_EQ(d.rpm.global_analyzer().duplicate_digests(), dups);
}

TEST(Federation, PodCrashedInsideAnOutageRestartsPaused) {
  // A crash inside an Analyzer outage wipes the pod like any other crash.
  // A restart inside the outage reloads the journal, but the pod and its
  // channels stay paused until the outage ends.
  Deployment d(5, 2, /*standby=*/false);
  d.cluster.run_for(sec(31));
  core::Analyzer& pod = d.rpm.pod_analyzer(1);
  ASSERT_EQ(pod.digests_sent(), 6u);
  const HostId local = host_in_pod(d, 1);

  d.rpm.begin_analyzer_outage();
  d.rpm.crash_pod_analyzer(1);
  EXPECT_EQ(pod.digests_sent(), 0u);  // the volatile seq died with it
  d.cluster.run_for(sec(5));
  EXPECT_EQ(pod.digests_sent(), 0u);
  d.rpm.restart_pod_analyzer(1);
  EXPECT_EQ(pod.digests_sent(), 6u);  // the journal is reloaded...
  EXPECT_TRUE(pod.in_outage());       // ...but the pod stays paused
  d.cluster.run_for(sec(10));
  EXPECT_EQ(pod.digests_sent(), 6u);
  EXPECT_GT(d.rpm.agent(local).uploads_in_flight(), 0u);

  const std::uint64_t dups = d.rpm.global_analyzer().duplicate_digests();
  d.rpm.end_analyzer_outage();
  EXPECT_FALSE(pod.in_outage());
  d.cluster.run_for(sec(20));
  EXPECT_GT(pod.digests_sent(), 6u);
  EXPECT_EQ(d.rpm.agent(local).uploads_in_flight(), 0u);
  EXPECT_EQ(d.rpm.global_analyzer().duplicate_digests(), dups);
}

TEST(Federation, CorruptPodCheckpointIsCountedOnce) {
  Deployment d(5, 2, /*standby=*/false);
  d.cluster.run_for(sec(12));  // two closed periods: pod 1 has a checkpoint
  core::Analyzer& pod = d.rpm.pod_analyzer(1);
  ASSERT_GT(pod.digests_sent(), 0u);
  const auto corrupt_metric = [] {
    const telemetry::Snapshot snap = telemetry::registry().snapshot();
    const telemetry::SeriesSample* s =
        snap.find("rpm_journal_corrupt_total", {{"role", "pod1"}});
    return s == nullptr ? std::uint64_t{0} : s->counter_value;
  };
  const std::uint64_t metric_before = corrupt_metric();

  d.rpm.crash_pod_analyzer(1);
  ASSERT_TRUE(d.rpm.journal().corrupt_checkpoint("pod1", 77));
  d.rpm.restart_pod_analyzer(1);

  // The restart decodes the checkpoint once: one corrupt checkpoint is one
  // count, and the pod starts clean, digest seq included.
  EXPECT_EQ(d.rpm.journal().corrupt_total(), 1u);
  EXPECT_EQ(corrupt_metric(), metric_before + 1);
  EXPECT_EQ(pod.digests_sent(), 0u);
  EXPECT_FALSE(pod.in_outage());
}

TEST(Federation, StandbyPromotionFollowsRestartContractAndExports) {
  Deployment d(9, 1, /*standby=*/true);
  d.cluster.run_for(sec(20));
  ASSERT_EQ(d.rpm.controller().num_registered_agents(), d.cluster.num_hosts());
  const std::uint64_t epoch_before = d.rpm.controller().epoch();
  ASSERT_EQ(d.rpm.controller_group().active_index(), 0u);

  d.rpm.crash_controller();
  EXPECT_TRUE(d.rpm.controller_down());
  d.cluster.run_for(sec(5));  // the 2 s failover grace elapses

  // The standby is primary now: fresh (empty) registry — the restart()
  // contract — and an epoch strictly above anything the deposed primary
  // stamped, so stale pinglists cannot resurrect.
  EXPECT_FALSE(d.rpm.controller_down());
  EXPECT_EQ(d.rpm.controller_group().active_index(), 1u);
  EXPECT_EQ(d.rpm.controller_group().failovers(), 1u);
  EXPECT_GT(d.rpm.controller().epoch(), epoch_before);

  // Agents re-register through lease expiry + backoff (15 s lease).
  d.cluster.run_for(sec(40));
  EXPECT_EQ(d.rpm.controller().num_registered_agents(), d.cluster.num_hosts());

  // Satellite: the failover series round-trip through the exporter.
  const std::string text =
      telemetry::to_prometheus(telemetry::registry().snapshot());
  EXPECT_NE(text.find("rpm_controller_epoch"), std::string::npos);
  EXPECT_NE(text.find("rpm_controller_failovers_total"), std::string::npos);
}

TEST(Federation, TrimmedDiagnosisSpillsToArchiveAndExplainFallsBack) {
  // Once kHistoryLimit newer periods have closed, a period's DiagnosisLog
  // spills into the journal archive. explain() on an aged-out problem id
  // must come back from the archive, not vanish.
  Deployment d(13, 1, /*standby=*/false);
  d.cluster.run_for(sec(10));  // let host 3 register + upload first
  d.injector.inject(faults::FaultSpec::host_down(HostId{3}));
  d.cluster.run_for(sec(40));  // silence threshold (20 s) + several periods

  const core::PeriodReport* rep = d.rpm.analyzer().last_report();
  ASSERT_NE(rep, nullptr);
  ASSERT_FALSE(rep->problems.empty());
  const std::uint64_t old_id = rep->problems.front().problem_id;
  ASSERT_FALSE(d.rpm.analyzer().explain(old_id).empty());

  ASSERT_EQ(d.rpm.journal().archived("analyzer"), 0u);
  for (std::size_t i = 0; i < core::kHistoryLimit + 1; ++i) {
    d.rpm.analyzer().analyze_now();  // age the log out
  }
  EXPECT_GT(d.rpm.journal().archived("analyzer"), 0u);
  const std::string post_mortem = d.rpm.analyzer().explain(old_id);
  EXPECT_FALSE(post_mortem.empty()) << "archived problem became unexplainable";
  EXPECT_NE(post_mortem.find("\"problem_id\""), std::string::npos);
}

// ---- verdict-stream pin ----

/// FNV-1a over everything the scoring tier reports, integers and double bit
/// patterns folded little-endian.
class VerdictHash {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  void sla(const core::SlaReport& s) {
    u64(s.probes);
    u64(s.timeouts);
    for (const double v : {s.rnic_drop_rate, s.switch_drop_rate, s.rtt_mean,
                           s.rtt_p50, s.rtt_p90, s.rtt_p99, s.rtt_p999,
                           s.proc_p50, s.proc_p90, s.proc_p99, s.proc_p999}) {
      f64(v);
    }
    u64(s.evidence.id);
  }
  void problem(const core::Problem& p) {
    u64(p.problem_id);
    u64(p.evidence.id);
    u64(static_cast<std::uint64_t>(p.category));
    u64(static_cast<std::uint64_t>(p.priority));
    u64(p.rnic.value);
    u64(p.host.value);
    u64(p.suspect_links.size());
    for (const LinkId l : p.suspect_links) u64(l.value);
    u64(p.suspect_switches.size());
    for (const SwitchId s : p.suspect_switches) u64(s.value);
    u64(p.top_link_votes.size());
    for (const auto& [l, votes] : p.top_link_votes) {
      u64(l.value);
      u64(votes);
    }
    u64(p.anomalous_probes);
    u64(p.in_service_network ? 1 : 0);
    u64(p.service.value);
    u64(p.detected_by_service_tracing ? 1 : 0);
    str(p.summary);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 14695981039346656037ull;
};

struct PinnedRun {
  std::uint64_t digest = 0;
  std::size_t periods = 0;
  std::set<std::string> seen;  // coverage tags (see the test)
};

/// One deployment watching a DML job whose ranks span Clos pods 0 and 1,
/// under a campaign of control-plane events and real faults.
PinnedRun run_pinned(std::size_t pods, core::SketchMode sketch) {
  Deployment d(21, pods, /*standby=*/true, sketch, /*fluid_step=*/msec(1));
  traffic::DmlConfig dml;
  dml.service = ServiceId{9};
  dml.workers = {RnicId{0}, RnicId{2}, RnicId{4}, RnicId{6}};
  dml.compute_time = msec(200);
  dml.comm_bytes = 50'000'000;
  traffic::DmlService svc(d.cluster, dml);
  d.rpm.watch_service(
      {ServiceId{9}, [&svc] { return svc.relative_throughput(); }});
  svc.start();

  ChaosPlan plan;
  plan.seed = 21;
  plan.duration = sec(170);
  plan.inject(sec(12), "cpu-occupied",
              faults::FaultSpec::agent_cpu_occupation(HostId{5}));
  plan.controller_crash(sec(32));
  plan.controller_restart(sec(50));
  if (pods > 1) {
    plan.pod_analyzer_crash(sec(57), 1);
    plan.pod_analyzer_restart(sec(68), 1);
  }
  plan.agent_restart(sec(74), HostId{6});
  plan.inject(sec(85), "rnic4-down", faults::FaultSpec::rnic_down(RnicId{4}))
      .clear(sec(110), "rnic4-down");
  plan.inject(sec(95), "host7-down", faults::FaultSpec::host_down(HostId{7}));
  plan.inject(sec(125), "fabric-corruption",
              faults::FaultSpec::corruption(d.first_fabric_link(), 0.5));
  ChaosRunner runner(d.cluster, d.rpm, d.injector);
  (void)runner.run(plan);

  const auto& history = d.rpm.scored_history();
  const auto& diagnosis =
      pods > 1 ? d.rpm.global_analyzer().diagnosis_history()
               : d.rpm.analyzer().diagnosis_history();
  PinnedRun out;
  out.periods = history.size();
  if (diagnosis.size() != history.size()) return out;  // digest stays 0
  VerdictHash h;
  for (std::size_t i = 0; i < history.size(); ++i) {
    const core::PeriodReport& rep = history[i];
    h.u64(static_cast<std::uint64_t>(rep.period_start));
    h.u64(static_cast<std::uint64_t>(rep.period_end));
    h.u64(rep.records_processed);
    h.u64(rep.timeouts_host_down);
    h.u64(rep.timeouts_qpn_reset);
    h.u64(rep.timeouts_agent_cpu);
    h.u64(rep.timeouts_rnic);
    h.u64(rep.timeouts_switch);
    h.u64(rep.problems.size());
    for (const core::Problem& p : rep.problems) {
      h.problem(p);
      out.seen.insert(core::problem_category_name(p.category));
      if (p.category == core::ProblemCategory::kSwitchNetworkProblem &&
          !p.detected_by_service_tracing) {
        out.seen.insert("switch-from-cluster-monitoring");
      }
      if (p.priority == core::Priority::kP0 ||
          p.priority == core::Priority::kP1) {
        out.seen.insert("p0-or-p1");
      }
    }
    h.sla(rep.cluster_sla);
    h.u64(rep.service_slas.size());
    for (const auto& [svc_id, sla] : rep.service_slas) {
      h.u64(svc_id.value);
      h.sla(sla);
    }
    h.str(obs::to_json(diagnosis[i]));
    for (const obs::EvidenceChain& c : diagnosis[i].chains) {
      out.seen.insert(c.verdict);
      out.seen.insert(c.triage_branch);
    }
  }
  out.digest = h.value();
  return out;
}

TEST(Federation, VerdictStreamIsPinnedBitForBit) {
  // Same-seed runs of one build are compared elsewhere; this pins the
  // verdict stream ACROSS builds. A refactor of the Analyzer tiers that
  // moves any summary, id, priority, SLA figure or evidence chain changes a
  // digest. A deliberate verdict change re-records the four constants and
  // says why. The federated runs also crash pod 1's analyzer from 57 to
  // 68 s, so their digests pin how the upload and digest channels' retries
  // deliver the outage's history; the flat runs never lose an upload.
  struct Case {
    const char* name;
    std::size_t pods;
    core::SketchMode sketch;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"flat, sketch off", 1, core::SketchMode::kOff, 0x668ef9da6d0ea199ull},
      {"flat, sketch on", 1, core::SketchMode::kOn, 0x94d615edab1b8774ull},
      {"pods=2, sketch off", 2, core::SketchMode::kOff, 0x667fa0130b399cdfull},
      {"pods=4, sketch on", 4, core::SketchMode::kOn, 0xf9081bb8ff40e068ull},
  };
  std::set<std::string> seen;
  for (const Case& c : cases) {
    const PinnedRun run = run_pinned(c.pods, c.sketch);
    EXPECT_GT(run.periods, 30u) << c.name;
    EXPECT_EQ(run.digest, c.digest)
        << c.name << ": digest 0x" << std::hex << run.digest;
    seen.insert(run.seen.begin(), run.seen.end());
  }
  // Not vacuous: the campaign drives every verdict path the two tiers
  // share through at least one of the four deployments.
  for (const char* tag :
       {"host-down", "rnic-problem", "switch-from-cluster-monitoring",
        "agent-cpu-noise", "qpn-reset-noise", "p0-or-p1",
        "global: cross-pod foreign-timeout voting",
        "global-merge: cross-pod vote union", "sla-violation",
        "network-innocent"}) {
    EXPECT_TRUE(seen.contains(tag)) << "never exercised: " << tag;
  }
}

// ---- global-tier satellites ----

TEST(GlobalAnalyzer, RejectsServiceWithoutMetric) {
  // Both tiers reject the binding when it is registered, instead of the
  // global tier calling an empty std::function at its first merge.
  const topo::Topology topo = topo::build_clos(clos_cfg());
  sim::InlineScheduler sched;
  core::AnalyzerConfig cfg;
  cfg.period = sec(5);
  core::GlobalAnalyzer global(topo, sched, cfg);
  EXPECT_THROW(global.register_service({ServiceId{1}, nullptr}),
               std::invalid_argument);

  Deployment fed(3, 2, /*standby=*/false);
  EXPECT_THROW(fed.rpm.watch_service({ServiceId{1}, nullptr}),
               std::invalid_argument);
}

TEST(GlobalAnalyzer, MergesChainlessProblemsUnderTheirCategoryVerdict) {
  // Two pods each report host 3 down without an evidence chain (a digest
  // is public input). The merge must not read a missing chain: the merged
  // problem's chain takes the category name as its verdict.
  const topo::Topology topo = topo::build_clos(clos_cfg());
  sim::InlineScheduler sched;
  core::AnalyzerConfig cfg;
  cfg.period = sec(5);
  core::GlobalAnalyzer global(topo, sched, cfg);
  for (const std::uint32_t pod : {0u, 1u}) {
    core::PodDigest d;
    d.pod = pod;
    d.seq = 1;
    d.period_end = sec(5);
    core::Problem p;
    p.category = core::ProblemCategory::kHostDown;
    p.host = HostId{3};
    d.problems.push_back(p);
    global.ingest_digest(std::move(d));
  }
  const core::PeriodReport& rep = global.merge_now();
  ASSERT_EQ(rep.problems.size(), 1u);
  EXPECT_EQ(rep.problems[0].host, HostId{3});
  const obs::EvidenceChain* c = global.evidence(rep.problems[0].evidence);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->verdict, "host-down");
  EXPECT_EQ(c->triage_branch, "global-merge: cross-pod vote union");
}

}  // namespace
}  // namespace rpm
