// Tests for the DML service model: patterns, iteration structure, barrel
// effect, checkpoints, failure modes, and the compute-slowdown confusion.
#include <gtest/gtest.h>

#include "faults/faults.h"
#include "traffic/dml.h"

namespace rpm::traffic {
namespace {

topo::ClosConfig clos_cfg() {
  topo::ClosConfig cfg;
  cfg.num_pods = 2;
  cfg.tors_per_pod = 2;
  cfg.aggs_per_pod = 2;
  cfg.spines_per_plane = 2;
  cfg.hosts_per_tor = 2;
  cfg.rnics_per_host = 1;
  cfg.host_link.capacity_gbps = 100.0;
  cfg.fabric_link.capacity_gbps = 100.0;
  return cfg;
}

DmlConfig base_cfg() {
  DmlConfig cfg;
  cfg.service = ServiceId{1};
  cfg.workers = {RnicId{0}, RnicId{2}, RnicId{4}, RnicId{6}};
  cfg.pattern = CommPattern::kAllReduceRing;
  cfg.per_flow_gbps = 40.0;
  cfg.compute_time = msec(100);
  cfg.comm_bytes = 50'000'000;  // 10 ms at 40G
  return cfg;
}

class DmlTest : public ::testing::Test {
 protected:
  DmlTest() : cluster_(topo::build_clos(clos_cfg())) {}
  host::Cluster cluster_;
};

TEST_F(DmlTest, PatternNames) {
  EXPECT_STREQ(comm_pattern_name(CommPattern::kAllReduceRing),
               "allreduce-ring");
  EXPECT_STREQ(comm_pattern_name(CommPattern::kAllToAll), "all2all");
  EXPECT_STREQ(comm_pattern_name(CommPattern::kIncast), "incast");
}

TEST_F(DmlTest, ConfigValidation) {
  DmlConfig bad = base_cfg();
  bad.workers = {RnicId{0}};
  EXPECT_THROW(DmlService(cluster_, bad), std::invalid_argument);
  bad = base_cfg();
  bad.per_flow_gbps = 0;
  EXPECT_THROW(DmlService(cluster_, bad), std::invalid_argument);
  DmlService ok(cluster_, base_cfg());
  EXPECT_THROW(ok.set_compute_slowdown(0.5), std::invalid_argument);
}

TEST_F(DmlTest, RingHasOneFlowPerWorker) {
  DmlService svc(cluster_, base_cfg());
  svc.start();
  EXPECT_EQ(svc.connections().size(), 4u);
  svc.stop();
}

TEST_F(DmlTest, All2AllHasAllOrderedPairs) {
  DmlConfig cfg = base_cfg();
  cfg.pattern = CommPattern::kAllToAll;
  DmlService svc(cluster_, cfg);
  svc.start();
  EXPECT_EQ(svc.connections().size(), 12u);  // 4*3
  svc.stop();
}

TEST_F(DmlTest, IncastConvergesOnWorkerZero) {
  DmlConfig cfg = base_cfg();
  cfg.pattern = CommPattern::kIncast;
  DmlService svc(cluster_, cfg);
  svc.start();
  ASSERT_EQ(svc.connections().size(), 3u);
  for (const DmlConnection& c : svc.connections()) {
    EXPECT_EQ(c.dst, RnicId{0});
  }
  svc.stop();
}

TEST_F(DmlTest, HealthyJobIteratesAtFullThroughput) {
  DmlService svc(cluster_, base_cfg());
  svc.start();
  cluster_.run_for(sec(3));
  EXPECT_GT(svc.iterations_completed(), 15u);
  EXPECT_GT(svc.relative_throughput(), 0.8);
  EXPECT_FALSE(svc.failed());
  svc.stop();
}

TEST_F(DmlTest, ComputeAndCommPhasesAlternate) {
  DmlService svc(cluster_, base_cfg());
  svc.start();
  // Count transitions by sampling.
  int comm_samples = 0, idle_samples = 0;
  for (int i = 0; i < 200; ++i) {
    cluster_.run_for(msec(5));
    (svc.in_comm_phase() ? comm_samples : idle_samples)++;
  }
  EXPECT_GT(comm_samples, 10);
  EXPECT_GT(idle_samples, 50);
  svc.stop();
}

TEST_F(DmlTest, BarrelEffectSlowestFlowGatesIteration) {
  // Degrade ONE flow's path (corruption -> reduced goodput): the whole
  // job slows down even though the other three flows are healthy. Use a
  // communication-dominated iteration so the effect is visible.
  DmlConfig cfg = base_cfg();
  cfg.compute_time = msec(20);
  cfg.comm_bytes = 250'000'000;  // 50 ms at 40G
  DmlService svc(cluster_, cfg);
  svc.start();
  cluster_.run_for(sec(2));
  const double healthy_iters = static_cast<double>(svc.iterations_completed());
  faults::FaultInjector inj(cluster_);
  // 50% corruption on one worker's host link halves that flow's goodput;
  // the iteration completes only when the SLOWEST flow finishes.
  inj.inject(faults::FaultSpec::corruption(
      cluster_.topology().rnic(RnicId{2}).uplink, 0.5));
  const auto before = svc.iterations_completed();
  cluster_.run_for(sec(2));
  const double degraded_iters =
      static_cast<double>(svc.iterations_completed() - before);
  EXPECT_LT(degraded_iters, healthy_iters * 0.8);
  EXPECT_LT(svc.relative_throughput(), 0.85);
  svc.stop();
}

TEST_F(DmlTest, FlappingBreaksConnectionWithSmallRetryBudget) {
  DmlConfig cfg = base_cfg();
  cfg.rc_max_retries = 2;
  cfg.rc_retransmit_timeout = msec(2);
  DmlService svc(cluster_, cfg);
  svc.start();
  cluster_.run_for(msec(500));
  faults::FaultInjector inj(cluster_);
  inj.inject(
      faults::FaultSpec::rnic_flapping(RnicId{2}, msec(200), msec(100)));
  cluster_.run_for(sec(3));
  EXPECT_TRUE(svc.failed());
  EXPECT_DOUBLE_EQ(svc.relative_throughput(), 0.0);
  svc.stop();
}

TEST_F(DmlTest, MaxRetriesSurvivesTheSameFlap) {
  // The paper's ops mitigation (§7.1 #1): retries to the max + longer
  // timeout ride out flapping without task failure.
  DmlConfig cfg = base_cfg();
  cfg.rc_max_retries = 7;
  cfg.rc_retransmit_timeout = msec(60);
  DmlService svc(cluster_, cfg);
  svc.start();
  cluster_.run_for(msec(500));
  faults::FaultInjector inj(cluster_);
  const int h = inj.inject(
      faults::FaultSpec::rnic_flapping(RnicId{2}, msec(200), msec(100)));
  cluster_.run_for(sec(3));
  EXPECT_FALSE(svc.failed());
  inj.clear(h);
  svc.stop();
}

TEST_F(DmlTest, CheckpointsIdleTheNetworkAndLoadCpus) {
  DmlConfig cfg = base_cfg();
  cfg.checkpoint_interval = sec(1);
  cfg.checkpoint_duration = msec(400);
  DmlService svc(cluster_, cfg);
  svc.start();
  bool saw_checkpoint = false;
  bool network_idle_during_checkpoint = true;
  bool cpu_loaded_during_checkpoint = false;
  for (int i = 0; i < 600; ++i) {
    cluster_.run_for(msec(5));
    if (svc.in_checkpoint()) {
      saw_checkpoint = true;
      if (svc.avg_network_throughput_Bps() > gbps_to_Bps(0.5)) {
        network_idle_during_checkpoint = false;
      }
      const HostId h = cluster_.topology().rnic(RnicId{0}).host;
      if (cluster_.host(h).cpu_load() > 0.9) cpu_loaded_during_checkpoint = true;
    }
  }
  EXPECT_TRUE(saw_checkpoint);
  EXPECT_TRUE(network_idle_during_checkpoint);
  EXPECT_TRUE(cpu_loaded_during_checkpoint);
  svc.stop();
}

TEST_F(DmlTest, ComputeSlowdownLooksLikeNetworkDegradationAtCoarseGrain) {
  // Figure 9: a compute bug drags BOTH the training rate and the average
  // network throughput down, while the network itself is innocent.
  DmlService svc(cluster_, base_cfg());
  svc.start();
  cluster_.run_for(sec(2));
  double healthy_tp = svc.relative_throughput();
  svc.set_compute_slowdown(3.0);
  cluster_.run_for(sec(3));
  EXPECT_LT(svc.relative_throughput(), healthy_tp * 0.7);
  EXPECT_FALSE(svc.failed());
  svc.stop();
}

TEST_F(DmlTest, StopDestroysQpsAndFlows) {
  DmlService svc(cluster_, base_cfg());
  svc.start();
  const auto conns = svc.connections();
  cluster_.run_for(msec(100));
  svc.stop();
  EXPECT_TRUE(svc.connections().empty());
  for (const DmlConnection& c : conns) {
    EXPECT_FALSE(cluster_.rnic_device(c.src).has_qp(c.src_qpn));
    EXPECT_FALSE(cluster_.rnic_device(c.dst).has_qp(c.dst_qpn));
  }
  EXPECT_EQ(cluster_.fabric().num_flows(), 0u);
}

TEST_F(DmlTest, HostDownDuringTrainingFailsTheTask) {
  DmlConfig cfg = base_cfg();
  cfg.rc_max_retries = 3;
  cfg.rc_retransmit_timeout = msec(5);
  DmlService svc(cluster_, cfg);
  svc.start();
  cluster_.run_for(msec(500));
  faults::FaultInjector inj(cluster_);
  inj.inject(
      faults::FaultSpec::host_down(cluster_.topology().rnic(RnicId{4}).host));
  cluster_.run_for(sec(3));
  EXPECT_TRUE(svc.failed());
  svc.stop();
}

}  // namespace
}  // namespace rpm::traffic
