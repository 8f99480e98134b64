// End-to-end R-Pingmesh on the rail-optimized topology (Figure 12): the
// full system must work unchanged on a 2-tier fabric where rail switches
// play the ToR role, plus property sweeps over topology shapes.
#include <gtest/gtest.h>

#include "core/rpingmesh.h"
#include "faults/faults.h"

namespace rpm::core {
namespace {

TEST(RailE2E, SystemRunsOnRailTopology) {
  topo::RailConfig rcfg;
  rcfg.num_hosts = 4;
  rcfg.rails = 4;
  rcfg.num_spines = 2;
  host::Cluster cluster(topo::build_rail_optimized(rcfg));
  RPingmesh rpm(cluster);
  rpm.start();
  cluster.run_for(sec(45));
  const PeriodReport* rep = rpm.analyzer().last_report();
  ASSERT_NE(rep, nullptr);
  EXPECT_GT(rep->records_processed, 500u);
  EXPECT_EQ(rep->cluster_sla.timeouts, 0u);
  // Inter-rail probes exist (the "inter-ToR" plan treats rails as ToRs).
  EXPECT_GT(rep->cluster_sla.rtt_p999, rep->cluster_sla.rtt_p50);
  rpm.stop();
}

TEST(RailE2E, SpineFaultLocalizedOnRailTopology) {
  topo::RailConfig rcfg;
  rcfg.num_hosts = 4;
  rcfg.rails = 2;
  rcfg.num_spines = 2;
  host::Cluster cluster(topo::build_rail_optimized(rcfg));
  RPingmesh rpm(cluster);
  rpm.start();
  cluster.run_for(sec(25));
  // Corrupt one rail->spine cable.
  LinkId victim;
  for (const topo::Link& l : cluster.topology().links()) {
    if (l.from.is_switch() && l.to.is_switch()) {
      victim = l.id;
      break;
    }
  }
  faults::FaultInjector inj(cluster);
  inj.inject(faults::FaultSpec::corruption(victim, 0.6));
  cluster.run_for(sec(41));
  const PeriodReport* rep = rpm.analyzer().last_report();
  const Problem* p = nullptr;
  for (const auto& prob : rep->problems) {
    if (prob.category == ProblemCategory::kSwitchNetworkProblem) p = &prob;
  }
  ASSERT_NE(p, nullptr);
  const LinkId peer = cluster.topology().link(victim).peer;
  bool hit = false;
  for (LinkId l : p->suspect_links) {
    if (l == victim || l == peer) hit = true;
  }
  EXPECT_TRUE(hit);
  rpm.stop();
}

TEST(RailE2E, RnicDownLocalizedOnRailTopology) {
  topo::RailConfig rcfg;
  rcfg.num_hosts = 4;
  rcfg.rails = 2;
  rcfg.num_spines = 2;
  host::Cluster cluster(topo::build_rail_optimized(rcfg));
  RPingmesh rpm(cluster);
  rpm.start();
  cluster.run_for(sec(25));
  faults::FaultInjector inj(cluster);
  inj.inject(faults::FaultSpec::rnic_down(RnicId{3}));
  cluster.run_for(sec(21));
  const PeriodReport* rep = rpm.analyzer().last_report();
  bool flagged = false;
  for (const auto& p : rep->problems) {
    if (p.category == ProblemCategory::kRnicProblem && p.rnic == RnicId{3}) {
      flagged = true;
    }
    EXPECT_NE(p.category, ProblemCategory::kSwitchNetworkProblem);
  }
  EXPECT_TRUE(flagged);
  rpm.stop();
}

// Property sweep: the deployed system produces clean SLAs across a family
// of Clos shapes (pods, tors, rnics-per-host vary).
struct ShapeParam {
  std::uint32_t pods, tors, hosts, rnics;
};

class ShapeSweep : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(ShapeSweep, HealthyDeploymentIsCleanEverywhere) {
  const ShapeParam s = GetParam();
  topo::ClosConfig cfg;
  cfg.num_pods = s.pods;
  cfg.tors_per_pod = s.tors;
  cfg.aggs_per_pod = 2;
  cfg.spines_per_plane = 2;
  cfg.hosts_per_tor = s.hosts;
  cfg.rnics_per_host = s.rnics;
  host::ClusterConfig ccfg;
  ccfg.fabric.step_interval = msec(1);
  host::Cluster cluster(topo::build_clos(cfg), ccfg);
  RPingmesh rpm(cluster);
  rpm.start();
  cluster.run_for(sec(25));
  const PeriodReport* rep = rpm.analyzer().last_report();
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->cluster_sla.timeouts, 0u)
      << "pods=" << s.pods << " tors=" << s.tors;
  for (const auto& p : rep->problems) {
    EXPECT_EQ(p.priority, Priority::kNoise) << p.summary;
  }
  EXPECT_GT(rep->cluster_sla.rtt_p50, 0.0);
  rpm.stop();
}

INSTANTIATE_TEST_SUITE_P(
    ClosShapes, ShapeSweep,
    ::testing::Values(ShapeParam{1, 2, 2, 1}, ShapeParam{2, 2, 1, 2},
                      ShapeParam{2, 3, 2, 1}, ShapeParam{3, 2, 2, 2}));

}  // namespace
}  // namespace rpm::core
