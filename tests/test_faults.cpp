// Tests for the fault injector: every Table-2 root cause, injected through
// its FaultSpec, produces its expected observable symptom and reverts
// cleanly.
#include <functional>
#include <vector>

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
  const int h =
      inj_.inject(FaultSpec::rnic_flapping(RnicId{0}, msec(50), msec(50)));
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
  EXPECT_THROW(inj_.inject(FaultSpec::rnic_flapping(RnicId{0}, 0, msec(1))),
               std::invalid_argument);
  EXPECT_TRUE(inj_.active_faults().empty());
}

TEST_F(FaultsTest, CorruptionAffectsBothDirectionsAndClears) {
  const auto probe = send(RnicId{0}, RnicId{12});
  ASSERT_TRUE(probe.delivered);
  const LinkId mid = probe.path.links[2];
  const int h = inj_.inject(FaultSpec::corruption(mid, 1.0));
  EXPECT_FALSE(send(RnicId{0}, RnicId{12}).delivered);
  inj_.clear(h);
  EXPECT_TRUE(send(RnicId{0}, RnicId{12}).delivered);
  EXPECT_THROW(inj_.inject(FaultSpec::corruption(mid, 1.5)),
               std::invalid_argument);
}

TEST_F(FaultsTest, HostDownTakesAllRnicsDown) {
  const int h = inj_.inject(FaultSpec::host_down(HostId{1}));
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
  const int h = inj_.inject(FaultSpec::pfc_deadlock(mid));
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
  const int h1 = inj_.inject(FaultSpec::route_missing(RnicId{2}));
  // Fabric delivers, but the misconfigured RNIC cannot demux RoCE traffic.
  send_to_qp();
  cluster_.run_for(msec(1));
  EXPECT_GT(cluster_.rnic_device(RnicId{2}).counters().rx_dropped_misconfig,
            0u);
  EXPECT_EQ(cluster_.rnic_device(RnicId{2}).counters().rx_packets, 0u);
  inj_.clear(h1);
  const int h2 = inj_.inject(FaultSpec::gid_index_missing(RnicId{2}));
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
  const int h = inj_.inject(
      FaultSpec::acl_error(sw, cluster_.topology().rnic(RnicId{0}).ip,
                           cluster_.topology().rnic(RnicId{12}).ip));
  // The specific pair may or may not hash through `sw`; wildcard-check by
  // sending the same tuple (deterministic path).
  EXPECT_FALSE(send(RnicId{0}, RnicId{12}).delivered);
  inj_.clear(h);
  EXPECT_TRUE(send(RnicId{0}, RnicId{12}).delivered);
}

TEST_F(FaultsTest, CpuOverloadSetsAndRestoresLoad) {
  const double before = cluster_.host(HostId{2}).cpu_load();
  const int h = inj_.inject(FaultSpec::cpu_overload(HostId{2}, 0.97));
  EXPECT_DOUBLE_EQ(cluster_.host(HostId{2}).cpu_load(), 0.97);
  inj_.clear(h);
  EXPECT_DOUBLE_EQ(cluster_.host(HostId{2}).cpu_load(), before);
}

TEST_F(FaultsTest, PcieDowngradeDegradesDrainRateAndClears) {
  const int h = inj_.inject(FaultSpec::pcie_downgrade(RnicId{3}, 0.25));
  const LinkId down = cluster_.topology().rnic(RnicId{3}).downlink;
  EXPECT_DOUBLE_EQ(cluster_.fabric().link_state(down).service_rate_factor,
                   0.25);
  inj_.clear(h);
  EXPECT_DOUBLE_EQ(cluster_.fabric().link_state(down).service_rate_factor,
                   1.0);
}

TEST_F(FaultsTest, RecordsCarryGroundTruth) {
  const int h = inj_.inject(
      FaultSpec::switch_port_flapping(LinkId{0}, msec(10), msec(10)));
  const FaultRecord& rec = inj_.record(h);
  EXPECT_EQ(rec.kind, FaultKind::kSwitchPortFlapping);
  EXPECT_EQ(rec.link, LinkId{0});
  EXPECT_EQ(inj_.active_faults().size(), 1u);
  inj_.clear(h);
  EXPECT_TRUE(inj_.active_faults().empty());
  EXPECT_THROW(static_cast<void>(inj_.record(h)), std::out_of_range);
}

TEST_F(FaultsTest, ClearAllRevertsEverything) {
  inj_.inject(FaultSpec::rnic_down(RnicId{0}));
  inj_.inject(FaultSpec::cpu_overload(HostId{3}));
  inj_.inject(FaultSpec::corruption(LinkId{0}, 0.5));
  const std::vector<FaultRecord> active = inj_.active_faults();
  ASSERT_EQ(active.size(), 3u);  // in injection order
  EXPECT_EQ(active[0].kind, FaultKind::kRnicDown);
  EXPECT_EQ(active[1].kind, FaultKind::kCpuOverload);
  EXPECT_EQ(active[2].kind, FaultKind::kPacketCorruption);
  inj_.clear_all();
  EXPECT_TRUE(inj_.active_faults().empty());
  EXPECT_FALSE(cluster_.rnic_device(RnicId{0}).is_down());
  EXPECT_DOUBLE_EQ(cluster_.fabric().link_state(LinkId{0}).corrupt_prob, 0.0);
}

TEST_F(FaultsTest, ClearAllRevertsInAscendingHandleOrder) {
  // Two stacked CPU faults on one host, each capturing the load it saw at
  // injection time. clear_all() must revert in ascending-handle (injection)
  // order: overload first (restoring the idle baseline), then the
  // Agent-occupation fault, whose captured "before" re-applies the 0.5
  // overload. Any other order would pick another survivor and break
  // seeded-run byte-identity.
  const double baseline = cluster_.host(HostId{2}).cpu_load();
  inj_.inject(FaultSpec::cpu_overload(HostId{2}, 0.5));
  inj_.inject(FaultSpec::agent_cpu_occupation(HostId{2}));
  EXPECT_DOUBLE_EQ(cluster_.host(HostId{2}).cpu_load(), 1.0);

  inj_.clear_all();
  EXPECT_TRUE(inj_.active_faults().empty());
  EXPECT_NE(cluster_.host(HostId{2}).cpu_load(), baseline);
  EXPECT_DOUBLE_EQ(cluster_.host(HostId{2}).cpu_load(), 0.5);
}

TEST_F(FaultsTest, ClearIsIdempotent) {
  const int h = inj_.inject(FaultSpec::rnic_down(RnicId{0}));
  inj_.clear(h);
  inj_.clear(h);  // no throw, no effect
  EXPECT_FALSE(cluster_.rnic_device(RnicId{0}).is_down());
}

TEST_F(FaultsTest, EveryKindInjectsThroughItsSpec) {
  const topo::Topology& topo = cluster_.topology();
  auto& fab = cluster_.fabric();
  LinkId fl;  // the first switch-to-switch link and its upstream switch
  for (const topo::Link& l : topo.links()) {
    if (l.from.is_switch() && l.to.is_switch()) {
      fl = l.id;
      break;
    }
  }
  ASSERT_TRUE(fl.valid());
  const LinkId fl_peer = topo.link(fl).peer;
  const SwitchId fl_sw = topo.link(fl).from.as_switch();
  const LinkId up0 = topo.rnic(RnicId{0}).uplink;
  const LinkId up0_peer = topo.link(up0).peer;
  const SwitchId tor0 = topo.link(up0).to.as_switch();
  const LinkId down3 = topo.rnic(RnicId{3}).downlink;
  const double idle_load = cluster_.host(HostId{2}).cpu_load();
  const auto rec = [](FaultKind kind, RnicId rnic, HostId host, LinkId link,
                      SwitchId sw) {
    FaultRecord r;
    r.kind = kind;
    r.rnic = rnic;
    r.host = host;
    r.link = link;
    r.sw = sw;
    return r;
  };
  const auto flapping = [&](LinkId l, LinkId peer, bool on) {
    EXPECT_EQ(fab.link_state(l).flapping, on);
    EXPECT_EQ(fab.link_state(peer).flapping, on);
  };
  struct Row {
    FaultSpec spec;
    FaultRecord want;  // kind and entity fields
    std::function<void(bool faulted)> expect_state;
    FaultSpec outside;  // the spec on an element outside the topology
  };
  const std::vector<Row> rows = {
      {FaultSpec::rnic_flapping(RnicId{0}, msec(50), msec(50)),
       rec(FaultKind::kRnicFlapping, RnicId{0}, {}, up0, {}),
       [&](bool on) { flapping(up0, up0_peer, on); },
       FaultSpec::rnic_flapping(RnicId{999}, msec(50), msec(50))},
      {FaultSpec::switch_port_flapping(fl, msec(50), msec(50)),
       rec(FaultKind::kSwitchPortFlapping, {}, {}, fl, fl_sw),
       [&](bool on) { flapping(fl, fl_peer, on); },
       FaultSpec::switch_port_flapping(LinkId{9999}, msec(50), msec(50))},
      {FaultSpec::corruption(fl, 0.5),
       rec(FaultKind::kPacketCorruption, {}, {}, fl, {}),
       [&](bool on) {
         EXPECT_EQ(fab.link_state(fl).corrupt_prob, on ? 0.5 : 0.0);
         EXPECT_EQ(fab.link_state(fl_peer).corrupt_prob, on ? 0.5 : 0.0);
       },
       FaultSpec::corruption(LinkId{9999}, 0.5)},
      {FaultSpec::rnic_down(RnicId{3}),
       rec(FaultKind::kRnicDown, RnicId{3}, {}, {}, {}),
       [&](bool on) {
         EXPECT_EQ(cluster_.rnic_device(RnicId{3}).is_down(), on);
       },
       FaultSpec::rnic_down(RnicId{999})},
      {FaultSpec::host_down(HostId{1}),
       rec(FaultKind::kHostDown, {}, HostId{1}, {}, {}),
       [&](bool on) {
         EXPECT_EQ(cluster_.host(HostId{1}).is_down(), on);
         for (RnicId r : topo.host(HostId{1}).rnics) {
           EXPECT_EQ(cluster_.rnic_device(r).is_down(), on);
         }
       },
       FaultSpec::host_down(HostId{999})},
      {FaultSpec::pfc_deadlock(fl),
       rec(FaultKind::kPfcDeadlock, {}, {}, fl, {}),
       [&](bool on) {
         EXPECT_EQ(fab.link_state(fl).deadlocked, on);
         EXPECT_EQ(fab.link_state(fl_peer).deadlocked, on);
       },
       FaultSpec::pfc_deadlock(LinkId{9999})},
      {FaultSpec::route_missing(RnicId{2}),
       rec(FaultKind::kRnicRouteMissing, RnicId{2}, {}, {}, {}),
       [&](bool on) {
         EXPECT_EQ(cluster_.rnic_device(RnicId{2}).routing_config_missing(),
                   on);
       },
       FaultSpec::route_missing(RnicId{999})},
      {FaultSpec::gid_index_missing(RnicId{2}),
       rec(FaultKind::kRnicGidIndexMissing, RnicId{2}, {}, {}, {}),
       [&](bool on) {
         EXPECT_EQ(cluster_.rnic_device(RnicId{2}).gid_index_missing(), on);
       },
       FaultSpec::gid_index_missing(RnicId{999})},
      // Wildcard addresses: the ToR denies everything RNIC 0 sends.
      {FaultSpec::acl_error(tor0),
       rec(FaultKind::kSwitchAclError, {}, {}, {}, tor0),
       [&](bool on) { EXPECT_EQ(send(RnicId{0}, RnicId{12}).delivered, !on); },
       FaultSpec::acl_error(SwitchId{999})},
      {FaultSpec::pfc_misconfigured(fl),
       rec(FaultKind::kPfcMisconfigured, {}, {}, fl, fl_sw),
       [&](bool on) {
         EXPECT_EQ(fab.link_state(fl).pfc_misconfigured, on);
         EXPECT_FALSE(fab.link_state(fl_peer).pfc_misconfigured);
       },
       FaultSpec::pfc_misconfigured(LinkId{9999})},
      {FaultSpec::cpu_overload(HostId{2}, 0.97),
       rec(FaultKind::kCpuOverload, {}, HostId{2}, {}, {}),
       [&](bool on) {
         EXPECT_EQ(cluster_.host(HostId{2}).cpu_load(), on ? 0.97 : idle_load);
       },
       FaultSpec::cpu_overload(HostId{999}, 0.97)},
      {FaultSpec::pcie_downgrade(RnicId{3}, 0.25),
       rec(FaultKind::kPcieDowngrade, RnicId{3}, {}, {}, {}),
       [&](bool on) {
         EXPECT_EQ(cluster_.rnic_device(RnicId{3}).pcie_factor(),
                   on ? 0.25 : 1.0);
         EXPECT_EQ(fab.link_state(down3).service_rate_factor, on ? 0.25 : 1.0);
       },
       FaultSpec::pcie_downgrade(RnicId{999}, 0.25)},
      {FaultSpec::agent_cpu_occupation(HostId{2}),
       rec(FaultKind::kAgentCpuOccupation, {}, HostId{2}, {}, {}),
       [&](bool on) {
         EXPECT_EQ(cluster_.host(HostId{2}).cpu_load(), on ? 1.0 : idle_load);
       },
       FaultSpec::agent_cpu_occupation(HostId{999})},
      // The injector only flags a QPN reset; the Agent's restart does the rest.
      {FaultSpec::qpn_reset(HostId{1}),
       rec(FaultKind::kQpnReset, {}, HostId{1}, {}, {}), [](bool) {},
       FaultSpec::qpn_reset(HostId{999})},
      // Names no element, so it has no outside spec.
      {FaultSpec::control_plane_degradation(msec(5), 0.1),
       rec(FaultKind::kControlPlaneDegradation, {}, {}, {}, {}),
       [&](bool on) {
         const auto& d = cluster_.control_plane().degradation();
         EXPECT_EQ(d.extra_latency, on ? msec(5) : 0);
         EXPECT_EQ(d.extra_loss, on ? 0.1 : 0.0);
       },
       {}},
  };
  ASSERT_EQ(rows.size(),
            static_cast<std::size_t>(FaultKind::kControlPlaneDegradation));
  for (const Row& row : rows) {
    SCOPED_TRACE(fault_kind_name(row.want.kind));
    row.expect_state(false);
    const int h = inj_.inject(row.spec);
    cluster_.run_for(msec(1));  // a flapper's first down phase starts at once
    const FaultRecord& got = inj_.record(h);
    EXPECT_EQ(got.kind, row.want.kind);
    EXPECT_EQ(got.rnic, row.want.rnic);
    EXPECT_EQ(got.host, row.want.host);
    EXPECT_EQ(got.link, row.want.link);
    EXPECT_EQ(got.sw, row.want.sw);
    EXPECT_EQ(inj_.active_faults().size(), 1u);
    row.expect_state(true);
    inj_.clear(h);
    row.expect_state(false);
    ASSERT_TRUE(inj_.active_faults().empty());
    if (row.outside.valid()) {
      EXPECT_THROW(inj_.inject(row.outside), std::out_of_range);
      EXPECT_TRUE(inj_.active_faults().empty());
      inj_.clear_all();
      cluster_.run_for(msec(1));  // nothing the failed inject armed fires
    }
  }
  EXPECT_THROW(inj_.inject(FaultSpec{}), std::invalid_argument);
  EXPECT_TRUE(inj_.active_faults().empty());
}

TEST_F(FaultsTest, AllKindsHaveNames) {
  for (int k = 1; k <= static_cast<int>(FaultKind::kControlPlaneDegradation);
       ++k) {
    EXPECT_STRNE(fault_kind_name(static_cast<FaultKind>(k)), "?");
  }
}

}  // namespace
}  // namespace rpm::faults
