// Tests for the Pingmesh software-RTT baseline: its measured RTT includes
// host scheduling delays (Figure 2) and its TCP probes are blind to
// RoCE-queue problems (§2.4).
#include <gtest/gtest.h>

#include "common/stats.h"
#include "faults/faults.h"
#include "pingmesh/pingmesh.h"

namespace rpm::pingmesh {
namespace {

topo::ClosConfig small_cfg() {
  topo::ClosConfig cfg;
  cfg.num_pods = 2;
  cfg.tors_per_pod = 2;
  cfg.aggs_per_pod = 2;
  cfg.spines_per_plane = 2;
  cfg.hosts_per_tor = 2;
  cfg.rnics_per_host = 1;
  return cfg;
}

class PingmeshTest : public ::testing::Test {
 protected:
  PingmeshTest() : cluster_(topo::build_clos(small_cfg())), pm_(cluster_) {}

  /// Run `n` probes and collect the software RTTs (ok only).
  PercentileWindow run_probes(RnicId src, RnicId dst, int n,
                              int* timeouts = nullptr) {
    PercentileWindow win;
    int local_timeouts = 0;
    for (int i = 0; i < n; ++i) {
      pm_.probe(src, dst, [&](const SoftwarePingResult& r) {
        if (r.ok) {
          win.add(static_cast<double>(r.software_rtt));
        } else {
          ++local_timeouts;
        }
      });
      cluster_.run_for(msec(2));
    }
    cluster_.run_for(msec(600));  // drain timeouts
    if (timeouts != nullptr) *timeouts = local_timeouts;
    return win;
  }

  host::Cluster cluster_;
  SoftwarePingmesh pm_;
};

TEST_F(PingmeshTest, MeasuresPositiveRtt) {
  auto win = run_probes(RnicId{0}, RnicId{7}, 50);
  ASSERT_GT(win.count(), 40u);
  EXPECT_GT(win.percentile(0.5), 0.0);
}

TEST_F(PingmeshTest, SoftwareRttIncludesHostSchedulingDelay) {
  // Figure 2's mechanism: raise the hosts' CPU load and the measured RTT
  // balloons although the network did not change.
  auto idle = run_probes(RnicId{0}, RnicId{7}, 80);
  cluster_.host(HostId{0}).set_cpu_load(0.95);
  cluster_.host(cluster_.topology().rnic(RnicId{7}).host).set_cpu_load(0.95);
  auto loaded = run_probes(RnicId{0}, RnicId{7}, 80);
  ASSERT_GT(idle.count(), 0u);
  ASSERT_GT(loaded.count(), 0u);
  EXPECT_GT(loaded.percentile(0.99), idle.percentile(0.99) * 5.0);
}

TEST_F(PingmeshTest, TimesOutWhenPathIsDown) {
  faults::FaultInjector inj(cluster_);
  inj.inject(faults::FaultSpec::rnic_down(RnicId{7}));
  int timeouts = 0;
  auto win = run_probes(RnicId{0}, RnicId{7}, 10, &timeouts);
  EXPECT_EQ(win.count(), 0u);
  EXPECT_EQ(timeouts, 10);
}

TEST_F(PingmeshTest, TcpProbesAreBlindToRocePfcDeadlock) {
  // The headline limitation (§2.4): a PFC deadlock kills the RoCE queue but
  // the TCP probe rides another traffic class and reports all-clear.
  fabric::Datagram roce;
  roce.src = RnicId{0};
  roce.dst = RnicId{7};
  roce.tuple.src_ip = cluster_.topology().rnic(RnicId{0}).ip;
  roce.tuple.dst_ip = cluster_.topology().rnic(RnicId{7}).ip;
  roce.tuple.src_port = 1000;
  const auto ground = cluster_.fabric().send(roce);
  ASSERT_TRUE(ground.delivered);

  faults::FaultInjector inj(cluster_);
  inj.inject(faults::FaultSpec::pfc_deadlock(ground.path.links[2]));

  // RoCE traffic on that path is dead...
  EXPECT_FALSE(cluster_.fabric().send(roce).delivered);
  // ...but the TCP Pingmesh probe happily completes.
  int timeouts = 0;
  auto win = run_probes(RnicId{0}, RnicId{7}, 10, &timeouts);
  EXPECT_EQ(timeouts, 0);
  EXPECT_EQ(win.count(), 10u);
}

TEST_F(PingmeshTest, DownHostDoesNotReply) {
  cluster_.host(cluster_.topology().rnic(RnicId{7}).host).set_down(true);
  int timeouts = 0;
  run_probes(RnicId{0}, RnicId{7}, 5, &timeouts);
  EXPECT_EQ(timeouts, 5);
}

}  // namespace
}  // namespace rpm::pingmesh
