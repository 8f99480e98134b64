// Tests for the fabric: packet delivery, drop reasons, fluid queueing, ECN,
// PFC backpressure vs lossy overflow, ACL, and fault hooks.
#include <gtest/gtest.h>

#include <limits>

#include "fabric/fabric.h"
#include "routing/ecmp.h"
#include "sim/scheduler.h"
#include "telemetry/metrics.h"
#include "topo/topology.h"

namespace rpm::fabric {
namespace {

topo::ClosConfig small_cfg() {
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

class FabricTest : public ::testing::Test {
 protected:
  FabricTest()
      : topo_(topo::build_clos(small_cfg())),
        router_(topo_),
        fab_(topo_, router_, sched_) {}

  Datagram dgram(RnicId src, RnicId dst, std::uint16_t port = 1000) {
    Datagram d;
    d.src = src;
    d.dst = dst;
    d.tuple.src_ip = topo_.rnic(src).ip;
    d.tuple.dst_ip = topo_.rnic(dst).ip;
    d.tuple.src_port = port;
    d.size = 50;
    return d;
  }

  FlowSpec flow(RnicId src, RnicId dst, double gbps,
                std::uint16_t port = 2000) {
    FlowSpec f;
    f.src = src;
    f.dst = dst;
    f.tuple.src_ip = topo_.rnic(src).ip;
    f.tuple.dst_ip = topo_.rnic(dst).ip;
    f.tuple.src_port = port;
    f.demand_Bps = gbps_to_Bps(gbps);
    return f;
  }

  topo::Topology topo_;
  routing::EcmpRouter router_;
  sim::InlineScheduler sched_;
  Fabric fab_;
};

TEST_F(FabricTest, DeliversAcrossCluster) {
  bool delivered = false;
  const RnicId src{0}, dst{7};
  fab_.set_delivery_handler(dst, [&](const Datagram& d) {
    delivered = true;
    EXPECT_EQ(d.src, src);
  });
  const SendOutcome out = fab_.send(dgram(src, dst));
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.drop, DropReason::kNone);
  EXPECT_GT(out.latency, 0);
  sched_.run_until(msec(1));
  EXPECT_TRUE(delivered);
}

TEST_F(FabricTest, IdleLatencyIsPropagationPlusSerialization) {
  const RnicId src{0}, dst{7};
  const SendOutcome out = fab_.send(dgram(src, dst));
  ASSERT_TRUE(out.delivered);
  const TimeNs prop = out.path.propagation_total(topo_);
  // 50B at 100 Gb/s is 4 ns per hop; 6 hops => within tens of ns of prop.
  EXPECT_GE(out.latency, prop);
  EXPECT_LE(out.latency, prop + nsec(100));
}

TEST_F(FabricTest, DownCableDropsWithLinkDown) {
  const RnicId src{0}, dst{7};
  fab_.set_cable_up(topo_.rnic(dst).uplink, false);
  const SendOutcome out = fab_.send(dgram(src, dst));
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.drop, DropReason::kLinkDown);
  EXPECT_EQ(out.drop_link, topo_.rnic(dst).downlink);
}

TEST_F(FabricTest, SourceUplinkDownDropsAtSource) {
  const RnicId src{0}, dst{7};
  fab_.set_cable_up(topo_.rnic(src).uplink, false);
  const SendOutcome out = fab_.send(dgram(src, dst));
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.drop, DropReason::kLinkDown);
  EXPECT_EQ(out.drop_link, topo_.rnic(src).uplink);
}

TEST_F(FabricTest, BlackholeWhenEveryUplinkDead) {
  const RnicId src{0}, dst{7};
  const SwitchId tor = topo_.rnic(src).tor;
  for (LinkId l : topo_.out_links(topo::NodeRef::sw(tor))) {
    if (topo_.link(l).to.is_switch()) fab_.set_cable_up(l, false);
  }
  const SendOutcome out = fab_.send(dgram(src, dst));
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.drop, DropReason::kBlackhole);
  EXPECT_EQ(out.drop_switch, tor);
}

TEST_F(FabricTest, FlappingLinkDropsInPlaceWithoutRerouting) {
  // A flap is faster than routing convergence: packets keep hashing onto
  // the bouncing link and are lost there (unlike an admin-down link).
  const RnicId src{0}, dst{7};
  const SendOutcome before = fab_.send(dgram(src, dst));
  ASSERT_TRUE(before.delivered);
  fab_.set_cable_flapping(before.path.links[1], true);
  const SendOutcome during = fab_.send(dgram(src, dst));
  EXPECT_FALSE(during.delivered);
  EXPECT_EQ(during.drop, DropReason::kLinkDown);
  EXPECT_EQ(during.drop_link, before.path.links[1]);
  EXPECT_EQ(during.path.links, before.path.links);  // same forwarding path
  fab_.set_cable_flapping(before.path.links[1], false);
  const SendOutcome after = fab_.send(dgram(src, dst));
  EXPECT_TRUE(after.delivered);
  EXPECT_EQ(after.path.links, before.path.links);
}

TEST_F(FabricTest, FlowThroughFlappingLinkStallsDuringDownPhase) {
  const FlowId a = fab_.add_flow(flow(RnicId{0}, RnicId{7}, 10.0, 2001));
  fab_.start();
  sched_.run_until(msec(1));
  const auto path = fab_.flow_path(a).links;
  fab_.set_cable_flapping(path[1], true);
  sched_.run_until(msec(2));
  EXPECT_DOUBLE_EQ(fab_.flow_stats(a).achieved_Bps, 0.0);
  EXPECT_DOUBLE_EQ(fab_.flow_stats(a).loss_rate, 1.0);
  EXPECT_EQ(fab_.flow_path(a).links, path);  // no reroute during flap
  fab_.set_cable_flapping(path[1], false);
  sched_.run_until(msec(3));
  EXPECT_GT(fab_.flow_stats(a).achieved_Bps, 0.0);
}

TEST_F(FabricTest, CorruptionDropsProbabilistically) {
  const RnicId src{0}, dst{7};
  const SendOutcome probe = fab_.send(dgram(src, dst));
  fab_.link_state(probe.path.links[2]).corrupt_prob = 0.5;
  int drops = 0;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    const SendOutcome out = fab_.send(dgram(src, dst));
    if (!out.delivered) {
      EXPECT_EQ(out.drop, DropReason::kCorruption);
      ++drops;
    }
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.5, 0.1);
  EXPECT_GT(fab_.link_state(probe.path.links[2]).drops_corrupt, 0u);
}

TEST_F(FabricTest, PfcDeadlockBlocksPath) {
  const RnicId src{0}, dst{7};
  const SendOutcome probe = fab_.send(dgram(src, dst));
  fab_.link_state(probe.path.links[1]).deadlocked = true;
  const SendOutcome out = fab_.send(dgram(src, dst));
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.drop, DropReason::kPfcDeadlock);
  EXPECT_EQ(out.drop_link, probe.path.links[1]);
}

TEST_F(FabricTest, AclDenyMatchesExactPair) {
  const RnicId src{0}, dst{7};
  const SendOutcome probe = fab_.send(dgram(src, dst));
  ASSERT_TRUE(probe.delivered);
  const SwitchId sw = topo_.link(probe.path.links[0]).to.as_switch();
  fab_.add_acl_deny(sw, topo_.rnic(src).ip, topo_.rnic(dst).ip);
  const SendOutcome out = fab_.send(dgram(src, dst));
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.drop, DropReason::kAclDeny);
  EXPECT_EQ(out.drop_switch, sw);
  // Other destinations unaffected.
  EXPECT_TRUE(fab_.send(dgram(src, RnicId{5})).delivered);
  fab_.clear_acl(sw);
  EXPECT_TRUE(fab_.send(dgram(src, dst)).delivered);
}

TEST_F(FabricTest, AclWildcardSource) {
  const RnicId src{0}, dst{7};
  const SendOutcome probe = fab_.send(dgram(src, dst));
  fab_.add_acl_deny(topo_.link(probe.path.links[0]).to.as_switch(), IpAddr{},
                    topo_.rnic(dst).ip);
  EXPECT_FALSE(fab_.send(dgram(src, dst)).delivered);
}

TEST_F(FabricTest, FlowBelowCapacityIsLossless) {
  const FlowId id = fab_.add_flow(flow(RnicId{0}, RnicId{7}, 50.0));
  fab_.start();
  sched_.run_until(msec(10));
  const FlowStats st = fab_.flow_stats(id);
  EXPECT_NEAR(st.achieved_Bps, gbps_to_Bps(50.0), gbps_to_Bps(0.5));
  EXPECT_DOUBLE_EQ(st.loss_rate, 0.0);
  EXPECT_EQ(st.queue_delay, 0);
}

TEST_F(FabricTest, CongestionBuildsQueueAndDelay) {
  // Two 80G flows from different sources forced to the same destination
  // downlink (100G): 60G oversubscription on tor->host.
  fab_.add_flow(flow(RnicId{0}, RnicId{7}, 80.0, 2001));
  fab_.add_flow(flow(RnicId{2}, RnicId{7}, 80.0, 2002));
  fab_.start();
  sched_.run_until(msec(5));
  const LinkId down = topo_.rnic(RnicId{7}).downlink;
  EXPECT_GT(fab_.link_state(down).queue_bytes, 0);
  EXPECT_GT(fab_.link_queue_delay(down), 0);
  // Probes through the congested link see the queueing delay.
  const SendOutcome out = fab_.send(dgram(RnicId{4}, RnicId{7}));
  ASSERT_TRUE(out.delivered);
  EXPECT_GE(out.latency, fab_.link_queue_delay(down));
}

TEST_F(FabricTest, SharedBottleneckThrottlesProportionally) {
  const FlowId a = fab_.add_flow(flow(RnicId{0}, RnicId{7}, 80.0, 2001));
  const FlowId b = fab_.add_flow(flow(RnicId{2}, RnicId{7}, 80.0, 2002));
  fab_.start();
  sched_.run_until(msec(5));
  // 160G offered into 100G: each should achieve ~50G.
  EXPECT_NEAR(fab_.flow_stats(a).achieved_Bps, gbps_to_Bps(50.0),
              gbps_to_Bps(4.0));
  EXPECT_NEAR(fab_.flow_stats(b).achieved_Bps, gbps_to_Bps(50.0),
              gbps_to_Bps(4.0));
}

TEST_F(FabricTest, LosslessQueueCapsAtBufferAndPushesBack) {
  fab_.add_flow(flow(RnicId{0}, RnicId{7}, 100.0, 2001));
  fab_.add_flow(flow(RnicId{2}, RnicId{7}, 100.0, 2002));
  fab_.start();
  sched_.run_until(msec(50));
  const LinkId down = topo_.rnic(RnicId{7}).downlink;
  const LinkState& s = fab_.link_state(down);
  EXPECT_LE(s.queue_bytes, 32 * 1024 * 1024);  // the per-port buffer
  EXPECT_TRUE(s.pfc_paused);
  EXPECT_GT(s.pfc_pause_events, 0u);
  EXPECT_DOUBLE_EQ(s.overflow_drop_frac, 0.0);  // lossless: no drops
  // Backpressure spreads into upstream (agg->tor / host->tor) queues.
  Bytes upstream_q = 0;
  const SwitchId tor = topo_.rnic(RnicId{7}).tor;
  for (LinkId out : topo_.out_links(topo::NodeRef::sw(tor))) {
    upstream_q += fab_.link_state(topo_.link(out).peer).queue_bytes;
  }
  EXPECT_GT(upstream_q, 0);
}

TEST_F(FabricTest, PfcMisconfiguredQueueDropsInsteadOfPausing) {
  const LinkId down = topo_.rnic(RnicId{7}).downlink;
  fab_.link_state(down).pfc_misconfigured = true;
  fab_.add_flow(flow(RnicId{0}, RnicId{7}, 100.0, 2001));
  fab_.add_flow(flow(RnicId{2}, RnicId{7}, 100.0, 2002));
  fab_.start();
  sched_.run_until(msec(60));
  const LinkState& s = fab_.link_state(down);
  EXPECT_GT(s.overflow_drop_frac, 0.0);
  EXPECT_GT(s.drops_overflow, 0u);
  // Probes through the overflowing queue are dropped with some probability.
  int drops = 0;
  for (int i = 0; i < 200; ++i) {
    if (!fab_.send(dgram(RnicId{4}, RnicId{7})).delivered) ++drops;
  }
  EXPECT_GT(drops, 0);
}

TEST_F(FabricTest, PcieDowngradedEndpointCongestsItsDownlink) {
  const LinkId down = topo_.rnic(RnicId{7}).downlink;
  fab_.link_state(down).service_rate_factor = 0.25;  // 100G -> 25G drain
  fab_.add_flow(flow(RnicId{0}, RnicId{7}, 50.0, 2001));
  fab_.start();
  sched_.run_until(msec(20));
  EXPECT_GT(fab_.link_state(down).queue_bytes, 0);
  EXPECT_GT(fab_.link_queue_delay(down), usec(10));
}

TEST_F(FabricTest, RemoveFlowFreesCapacity) {
  const FlowId a = fab_.add_flow(flow(RnicId{0}, RnicId{7}, 80.0, 2001));
  const FlowId b = fab_.add_flow(flow(RnicId{2}, RnicId{7}, 80.0, 2002));
  fab_.start();
  sched_.run_until(msec(5));
  fab_.remove_flow(b);
  sched_.run_until(sched_.now() + msec(200));  // queue drains
  EXPECT_NEAR(fab_.flow_stats(a).achieved_Bps, gbps_to_Bps(80.0),
              gbps_to_Bps(2.0));
  EXPECT_EQ(fab_.num_flows(), 1u);
}

TEST_F(FabricTest, IdleFabricLeavesLinksUntouched) {
  const telemetry::Counter steps =
      telemetry::registry().counter("rpm_fabric_fluid_steps_total", "");
  const std::uint64_t before = steps.value();
  fab_.start();
  sched_.run_until(msec(10));
  // Idle steps still count: one per 100 us interval, both ends included.
  EXPECT_EQ(steps.value() - before, 101u);
  for (std::uint32_t i = 0; i < topo_.num_links(); ++i) {
    EXPECT_TRUE(fab_.link_state(LinkId{i}) == LinkState{}) << "link " << i;
  }
}

TEST_F(FabricTest, FrozenQueueKeepsPlaneBusyUntilDrained) {
  // Queue up rnic 7's downlink, deadlock it (the queue freezes), and remove
  // every flow. No flow is live, but the plane is not idle: once the
  // deadlock clears, the held queue must drain.
  const FlowId a = fab_.add_flow(flow(RnicId{0}, RnicId{7}, 80.0, 2001));
  const FlowId b = fab_.add_flow(flow(RnicId{2}, RnicId{7}, 80.0, 2002));
  fab_.start();
  sched_.run_until(msec(2));
  const LinkId down = topo_.rnic(RnicId{7}).downlink;
  ASSERT_GT(fab_.link_state(down).queue_bytes, 0);
  fab_.link_state(down).deadlocked = true;
  fab_.remove_flow(a);
  fab_.remove_flow(b);
  sched_.run_until(sched_.now() + msec(5));
  EXPECT_GT(fab_.link_state(down).queue_bytes, 0)
      << "a deadlocked link holds its queue";
  fab_.link_state(down).deadlocked = false;
  sched_.run_until(sched_.now() + msec(10));
  for (std::uint32_t i = 0; i < topo_.num_links(); ++i) {
    EXPECT_EQ(fab_.link_state(LinkId{i}).queue_bytes, 0) << "link " << i;
  }
}

TEST_F(FabricTest, FlowPathReresolvedAfterTopologyChange) {
  const FlowId a = fab_.add_flow(flow(RnicId{0}, RnicId{7}, 10.0, 2001));
  fab_.start();
  sched_.run_until(msec(1));
  const auto before = fab_.flow_path(a).links;
  fab_.set_cable_up(before[1], false);
  sched_.run_until(msec(2));
  const auto after = fab_.flow_path(a).links;
  EXPECT_NE(before, after);
}

TEST_F(FabricTest, FlowThroughDownLinkIsLostUntilRehash) {
  const FlowId a = fab_.add_flow(flow(RnicId{0}, RnicId{7}, 10.0, 2001));
  fab_.start();
  sched_.run_until(msec(1));
  // Take the destination edge down: no alternative path exists.
  fab_.set_cable_up(topo_.rnic(RnicId{7}).uplink, false);
  sched_.run_until(msec(3));
  EXPECT_DOUBLE_EQ(fab_.flow_stats(a).achieved_Bps, 0.0);
  EXPECT_DOUBLE_EQ(fab_.flow_stats(a).loss_rate, 1.0);
}

TEST_F(FabricTest, SetFlowDemandChangesRate) {
  const FlowId a = fab_.add_flow(flow(RnicId{0}, RnicId{7}, 10.0, 2001));
  fab_.start();
  sched_.run_until(msec(2));
  EXPECT_NEAR(fab_.flow_stats(a).achieved_Bps, gbps_to_Bps(10.0),
              gbps_to_Bps(0.5));
  fab_.set_flow_demand(a, gbps_to_Bps(40.0));
  sched_.run_until(sched_.now() + msec(2));
  EXPECT_NEAR(fab_.flow_stats(a).achieved_Bps, gbps_to_Bps(40.0),
              gbps_to_Bps(1.0));
}

TEST_F(FabricTest, ConfigValidation) {
  FabricConfig bad;
  bad.step_interval = 0;
  EXPECT_THROW(Fabric(topo_, router_, sched_, bad), std::invalid_argument);
}

TEST_F(FabricTest, RejectsNegativeDemand) {
  auto f = flow(RnicId{0}, RnicId{7}, 10.0);
  f.demand_Bps = -1.0;
  EXPECT_THROW(fab_.add_flow(f), std::invalid_argument);
}

TEST_F(FabricTest, RejectsNanDemand) {
  auto f = flow(RnicId{0}, RnicId{7}, 10.0);
  f.demand_Bps = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(fab_.add_flow(f), std::invalid_argument);
  EXPECT_EQ(fab_.num_flows(), 0u);
}

/// Holds every flow at line rate; the fabric clamps it to the demand.
class LineRateCc : public RateController {
 public:
  double reset(std::uint32_t, double demand, double) override {
    return demand;
  }
  double update(std::uint32_t, const CcFeedback&, double) override {
    return gbps_to_Bps(100.0);
  }
  [[nodiscard]] std::string name() const override { return "line-rate"; }
};

TEST_F(FabricTest, SetFlowDemandRejectsNegativeAndNan) {
  // A negative demand would become a negative offered load for a fixed flow
  // and an inverted clamp range for a CC flow; NaN poisons both.
  LineRateCc cc;
  const FlowId fixed = fab_.add_flow(flow(RnicId{0}, RnicId{7}, 10.0, 2001));
  FlowSpec governed = flow(RnicId{2}, RnicId{5}, 10.0, 2002);
  governed.controller = &cc;
  const FlowId cc_flow = fab_.add_flow(governed);
  for (const FlowId id : {fixed, cc_flow}) {
    EXPECT_THROW(fab_.set_flow_demand(id, -1.0), std::invalid_argument);
    EXPECT_THROW(
        fab_.set_flow_demand(id, std::numeric_limits<double>::quiet_NaN()),
        std::invalid_argument);
  }
  // A rejected demand leaves the flow as it was.
  fab_.start();
  sched_.run_until(msec(2));
  for (const FlowId id : {fixed, cc_flow}) {
    EXPECT_DOUBLE_EQ(fab_.flow_stats(id).offered_Bps, gbps_to_Bps(10.0));
  }
}

TEST_F(FabricTest, DropReasonNames) {
  EXPECT_STREQ(drop_reason_name(DropReason::kNone), "none");
  EXPECT_STREQ(drop_reason_name(DropReason::kAclDeny), "acl-deny");
  EXPECT_STREQ(drop_reason_name(DropReason::kPfcDeadlock), "pfc-deadlock");
}

}  // namespace
}  // namespace rpm::fabric
