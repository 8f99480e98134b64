// Tests for the fault injector: every Table-2 root cause produces its
// expected observable symptom and reverts cleanly.
#include <gtest/gtest.h>

#include "faults/faults.h"

namespace rpm::faults {
namespace {

topo::ClosConfig small_cfg() {
  topo::ClosConfig cfg;
  cfg.num_pods = 2;
  cfg.tors_per_pod = 2;
  cfg.aggs_per_pod = 2;
  cfg.spines_per_plane = 2;
  cfg.hosts_per_tor = 2;
  cfg.rnics_per_host = 2;
  return cfg;
}

class FaultsTest : public ::testing::Test {
 protected:
  FaultsTest() : cluster_(topo::build_clos(small_cfg())), inj_(cluster_) {}

  fabric::SendOutcome send(RnicId src, RnicId dst,
                           std::uint16_t port = 1000) {
    fabric::Datagram d;
    d.src = src;
    d.dst = dst;
    d.tuple.src_ip = cluster_.topology().rnic(src).ip;
    d.tuple.dst_ip = cluster_.topology().rnic(dst).ip;
    d.tuple.src_port = port;
    d.size = 50;
    return cluster_.fabric().send(d);
  }

  host::Cluster cluster_;
  FaultInjector inj_;
};

TEST_F(FaultsTest, KindPredicates) {
  EXPECT_TRUE(is_network_fault(FaultKind::kSwitchPortFlapping));
  EXPECT_TRUE(is_network_fault(FaultKind::kRnicDown));
  EXPECT_FALSE(is_network_fault(FaultKind::kHostDown));
  EXPECT_FALSE(is_network_fault(FaultKind::kAgentCpuOccupation));
  EXPECT_TRUE(is_rnic_fault(FaultKind::kRnicFlapping));
  EXPECT_TRUE(is_rnic_fault(FaultKind::kPcieDowngrade));
  EXPECT_FALSE(is_rnic_fault(FaultKind::kSwitchAclError));
}

TEST_F(FaultsTest, RnicFlappingTogglesAndClears) {
  const int h = inj_.inject_rnic_flapping(RnicId{0}, msec(50), msec(50));
  // During the first down phase, traffic to RNIC 0 drops.
  cluster_.scheduler().run_until(msec(10));
  EXPECT_FALSE(send(RnicId{4}, RnicId{0}).delivered);
  // In the up phase, it flows.
  cluster_.scheduler().run_until(msec(70));
  EXPECT_TRUE(send(RnicId{4}, RnicId{0}).delivered);
  // Down again in the next cycle.
  cluster_.scheduler().run_until(msec(110));
  EXPECT_FALSE(send(RnicId{4}, RnicId{0}).delivered);
  inj_.clear(h);
  cluster_.scheduler().run_until(msec(400));
  EXPECT_TRUE(send(RnicId{4}, RnicId{0}).delivered);
}

TEST_F(FaultsTest, FlappingRejectsNonPositiveDwell) {
  EXPECT_THROW(inj_.inject_rnic_flapping(RnicId{0}, 0, msec(1)),
               std::invalid_argument);
}

TEST_F(FaultsTest, CorruptionAffectsBothDirectionsAndClears) {
  const auto probe = send(RnicId{0}, RnicId{12});
  ASSERT_TRUE(probe.delivered);
  const LinkId mid = probe.path.links[2];
  const int h = inj_.inject_corruption(mid, 1.0);
  EXPECT_FALSE(send(RnicId{0}, RnicId{12}).delivered);
  inj_.clear(h);
  EXPECT_TRUE(send(RnicId{0}, RnicId{12}).delivered);
  EXPECT_THROW(inj_.inject_corruption(mid, 1.5), std::invalid_argument);
}

TEST_F(FaultsTest, HostDownTakesAllRnicsDown) {
  const int h = inj_.inject_host_down(HostId{1});
  EXPECT_TRUE(cluster_.host(HostId{1}).is_down());
  for (RnicId r : cluster_.topology().host(HostId{1}).rnics) {
    EXPECT_TRUE(cluster_.rnic_device(r).is_down());
  }
  inj_.clear(h);
  EXPECT_FALSE(cluster_.host(HostId{1}).is_down());
  for (RnicId r : cluster_.topology().host(HostId{1}).rnics) {
    EXPECT_FALSE(cluster_.rnic_device(r).is_down());
  }
}

TEST_F(FaultsTest, PfcDeadlockBlocksRoceOnly) {
  const auto probe = send(RnicId{0}, RnicId{12});
  ASSERT_TRUE(probe.delivered);
  const LinkId mid = probe.path.links[2];
  const int h = inj_.inject_pfc_deadlock(mid);
  EXPECT_FALSE(send(RnicId{0}, RnicId{12}).delivered);
  // TCP-class traffic sails through (different traffic class): the reason
  // Pingmesh cannot see this problem (§2.4).
  fabric::Datagram tcp;
  tcp.src = RnicId{0};
  tcp.dst = RnicId{12};
  tcp.tuple.src_ip = cluster_.topology().rnic(RnicId{0}).ip;
  tcp.tuple.dst_ip = cluster_.topology().rnic(RnicId{12}).ip;
  tcp.tuple.src_port = 1000;
  tcp.tuple.protocol = 6;
  EXPECT_TRUE(cluster_.fabric().send(tcp).delivered);
  inj_.clear(h);
  EXPECT_TRUE(send(RnicId{0}, RnicId{12}).delivered);
}

TEST_F(FaultsTest, MisconfigurationsMakeRnicUnreachable) {
  // Give RNIC 2 a receiving QP so healthy packets actually land.
  rnic::QpConfig qcfg;
  qcfg.type = rnic::QpType::kUD;
  qcfg.on_cqe = [](const rnic::Cqe&) {};
  const Qpn rx = cluster_.rnic_device(RnicId{2}).create_qp(qcfg);
  const auto send_to_qp = [&] {
    fabric::Datagram d;
    d.src = RnicId{0};
    d.dst = RnicId{2};
    d.tuple.src_ip = cluster_.topology().rnic(RnicId{0}).ip;
    d.tuple.dst_ip = cluster_.topology().rnic(RnicId{2}).ip;
    d.tuple.src_port = 1000;
    d.dst_qpn = rx;
    cluster_.fabric().send(d);
  };
  const int h1 = inj_.inject_route_missing(RnicId{2});
  // Fabric delivers, but the misconfigured RNIC cannot demux RoCE traffic.
  send_to_qp();
  cluster_.run_for(msec(1));
  EXPECT_GT(cluster_.rnic_device(RnicId{2}).counters().rx_dropped_misconfig,
            0u);
  EXPECT_EQ(cluster_.rnic_device(RnicId{2}).counters().rx_packets, 0u);
  inj_.clear(h1);
  const int h2 = inj_.inject_gid_index_missing(RnicId{2});
  send_to_qp();
  cluster_.run_for(msec(1));
  EXPECT_EQ(cluster_.rnic_device(RnicId{2}).counters().rx_packets, 0u);
  inj_.clear(h2);
  send_to_qp();
  cluster_.run_for(msec(1));
  EXPECT_GT(cluster_.rnic_device(RnicId{2}).counters().rx_packets, 0u);
}

TEST_F(FaultsTest, AclErrorBlocksPairAndClears) {
  const auto probe = send(RnicId{0}, RnicId{12});
  ASSERT_TRUE(probe.delivered);
  const SwitchId sw =
      cluster_.topology().link(probe.path.links[1]).to.as_switch();
  const int h = inj_.inject_acl_error(sw, cluster_.topology().rnic(RnicId{0}).ip,
                                      cluster_.topology().rnic(RnicId{12}).ip);
  // The specific pair may or may not hash through `sw`; wildcard-check by
  // sending the same tuple (deterministic path).
  EXPECT_FALSE(send(RnicId{0}, RnicId{12}).delivered);
  inj_.clear(h);
  EXPECT_TRUE(send(RnicId{0}, RnicId{12}).delivered);
}

TEST_F(FaultsTest, CpuOverloadSetsAndRestoresLoad) {
  const double before = cluster_.host(HostId{2}).cpu_load();
  const int h = inj_.inject_cpu_overload(HostId{2}, 0.97);
  EXPECT_DOUBLE_EQ(cluster_.host(HostId{2}).cpu_load(), 0.97);
  inj_.clear(h);
  EXPECT_DOUBLE_EQ(cluster_.host(HostId{2}).cpu_load(), before);
}

TEST_F(FaultsTest, PcieDowngradeDegradesDrainRateAndClears) {
  const int h = inj_.inject_pcie_downgrade(RnicId{3}, 0.25);
  const LinkId down = cluster_.topology().rnic(RnicId{3}).downlink;
  EXPECT_DOUBLE_EQ(cluster_.fabric().link_state(down).service_rate_factor,
                   0.25);
  inj_.clear(h);
  EXPECT_DOUBLE_EQ(cluster_.fabric().link_state(down).service_rate_factor,
                   1.0);
}

TEST_F(FaultsTest, RecordsCarryGroundTruth) {
  const int h = inj_.inject_switch_port_flapping(LinkId{0}, msec(10), msec(10));
  const FaultRecord& rec = inj_.record(h);
  EXPECT_EQ(rec.kind, FaultKind::kSwitchPortFlapping);
  EXPECT_EQ(rec.link, LinkId{0});
  EXPECT_TRUE(rec.active);
  EXPECT_FALSE(rec.describe(cluster_.topology()).empty());
  EXPECT_EQ(inj_.active_faults().size(), 1u);
  inj_.clear(h);
  EXPECT_TRUE(inj_.active_faults().empty());
  EXPECT_THROW(static_cast<void>(inj_.record(h)), std::out_of_range);
}

TEST_F(FaultsTest, ClearAllRevertsEverything) {
  inj_.inject_rnic_down(RnicId{0});
  inj_.inject_cpu_overload(HostId{3});
  inj_.inject_corruption(LinkId{0}, 0.5);
  EXPECT_EQ(inj_.active_faults().size(), 3u);
  inj_.clear_all();
  EXPECT_TRUE(inj_.active_faults().empty());
  EXPECT_FALSE(cluster_.rnic_device(RnicId{0}).is_down());
  EXPECT_DOUBLE_EQ(cluster_.fabric().link_state(LinkId{0}).corrupt_prob, 0.0);
}

TEST_F(FaultsTest, ClearAllRevertsInAscendingHandleOrder) {
  // Two stacked CPU faults on one host, each capturing the load it saw at
  // injection time. clear_all() must revert in ascending-handle (injection)
  // order on every platform: overload first (restoring the idle baseline),
  // then the Agent-occupation fault, whose captured "before" re-applies the
  // 0.5 overload. Iterating the unordered map directly would let the hash
  // function pick the survivor and break seeded-run byte-identity.
  const double baseline = cluster_.host(HostId{2}).cpu_load();
  inj_.inject_cpu_overload(HostId{2}, 0.5);
  inj_.inject_agent_cpu_occupation(HostId{2});
  EXPECT_DOUBLE_EQ(cluster_.host(HostId{2}).cpu_load(), 1.0);

  inj_.clear_all();
  EXPECT_TRUE(inj_.active_faults().empty());
  EXPECT_NE(cluster_.host(HostId{2}).cpu_load(), baseline);
  EXPECT_DOUBLE_EQ(cluster_.host(HostId{2}).cpu_load(), 0.5);
}

TEST_F(FaultsTest, ClearIsIdempotent) {
  const int h = inj_.inject_rnic_down(RnicId{0});
  inj_.clear(h);
  inj_.clear(h);  // no throw, no effect
  EXPECT_FALSE(cluster_.rnic_device(RnicId{0}).is_down());
}

TEST_F(FaultsTest, AllKindsHaveNames) {
  for (int k = 1; k <= static_cast<int>(FaultKind::kQpnReset); ++k) {
    EXPECT_STRNE(fault_kind_name(static_cast<FaultKind>(k)), "?");
  }
}

}  // namespace
}  // namespace rpm::faults
