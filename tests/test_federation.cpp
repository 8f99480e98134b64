// Tests for the hierarchical federation tier (per-pod Analyzers + global
// merge) and the ControllerGroup standby failover:
//
//  * a federated deployment under a chaos campaign that kills the primary
//    Controller mid-period and a PodAnalyzer mid-drain still reaches full
//    precision/recall on injected ground truth;
//  * same seed => byte-identical ChaosReport JSON for pods in {1, 2, 4};
//  * a restarted Analyzer role reloads its journaled (pod, seq) dedup
//    windows, so replayed digests never re-count drained history;
//  * standby promotion follows the Controller::restart() contract (fresh
//    registry, epoch fenced past the deposed primary) and exports the
//    rpm_controller_epoch / rpm_controller_failovers_total series;
//  * DiagnosisLogs trimmed past history_limit spill into the StateJournal
//    archive and explain() falls back to them.
#include <cstdint>
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
struct Deployment {
  explicit Deployment(std::uint64_t seed, std::size_t pods, bool standby,
                      std::size_t history_limit = 512)
      : cluster(topo::build_clos(clos_cfg()),
                [seed] {
                  host::ClusterConfig c;
                  c.seed = seed;
                  return c;
                }()),
        rpm(cluster,
            [pods, standby, history_limit] {
              core::RPingmeshConfig c;
              c.analyzer.period = sec(5);
              c.analyzer.history_limit = history_limit;
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
/// standby must take over), kill one PodAnalyzer mid-drain (journal
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

  Deployment fed(3, 2, /*standby=*/false);
  EXPECT_TRUE(fed.rpm.federated());
  EXPECT_EQ(fed.rpm.num_pods(), 2u);
  EXPECT_THROW((void)fed.rpm.analyzer(), std::logic_error);
  EXPECT_EQ(fed.rpm.pod_analyzer(0).pod(), 0u);
  EXPECT_EQ(fed.rpm.pod_analyzer(1).pod(), 1u);
  // Every host lands in exactly one pod; both pods are populated.
  EXPECT_GT(fed.rpm.pod_analyzer(0).hosts().size(), 0u);
  EXPECT_GT(fed.rpm.pod_analyzer(1).hosts().size(), 0u);
  EXPECT_EQ(fed.rpm.pod_analyzer(0).hosts().size() +
                fed.rpm.pod_analyzer(1).hosts().size(),
            fed.cluster.num_hosts());
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
  core::GlobalAnalyzer::Config cfg;
  cfg.analyzer.period = sec(5);
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
  core::PodAnalyzer& pod = d.rpm.pod_analyzer(1);
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

TEST(Federation, StandbyPromotionFollowsRestartContractAndExports) {
  Deployment d(9, 1, /*standby=*/true);
  d.cluster.run_for(sec(20));
  ASSERT_EQ(d.rpm.controller().num_registered_agents(), d.cluster.num_hosts());
  const std::uint64_t epoch_before = d.rpm.controller().epoch();
  ASSERT_EQ(d.rpm.controller_group().active_index(), 0u);

  d.rpm.crash_controller();
  EXPECT_TRUE(d.rpm.controller_down());
  d.cluster.run_for(sec(5));  // failover_delay (2 s) elapses

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
  // history_limit = 1: every period close evicts the previous period's
  // DiagnosisLog into the journal archive. explain() on an aged-out problem
  // id must come back from the archive, not vanish.
  Deployment d(13, 1, /*standby=*/false, /*history_limit=*/1);
  d.cluster.run_for(sec(10));  // let host 3 register + upload first
  d.injector.inject_host_down(HostId{3});
  d.cluster.run_for(sec(40));  // silence threshold (20 s) + several periods

  const core::PeriodReport* rep = d.rpm.analyzer().last_report();
  ASSERT_NE(rep, nullptr);
  ASSERT_FALSE(rep->problems.empty());
  const std::uint64_t old_id = rep->problems.front().problem_id;
  ASSERT_FALSE(d.rpm.analyzer().explain(old_id).empty());

  d.cluster.run_for(sec(30));  // six more periods age the log out
  EXPECT_GT(d.rpm.journal().archived("analyzer"), 0u);
  const std::string post_mortem = d.rpm.analyzer().explain(old_id);
  EXPECT_FALSE(post_mortem.empty()) << "archived problem became unexplainable";
  EXPECT_NE(post_mortem.find("\"problem_id\""), std::string::npos);
}

}  // namespace
}  // namespace rpm
