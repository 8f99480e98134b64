// Tests for the RNIC model, focused on the CQE-timestamp semantics that
// R-Pingmesh's measurement method depends on (§4.2.1, Table 1).
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "host/cluster.h"
#include "rnic/rnic.h"
#include "topo/topology.h"

namespace rpm::rnic {
namespace {

topo::ClosConfig small_cfg() {
  topo::ClosConfig cfg;
  cfg.num_pods = 1;
  cfg.tors_per_pod = 2;
  cfg.aggs_per_pod = 2;
  cfg.spines_per_plane = 1;
  cfg.hosts_per_tor = 2;
  cfg.rnics_per_host = 1;
  return cfg;
}

class RnicTest : public ::testing::Test {
 protected:
  RnicTest() : cluster_(topo::build_clos(small_cfg())) {}
  host::Cluster cluster_;
};

TEST_F(RnicTest, GidRoundTrip) {
  const Gid g = gid_of(RnicId{17});
  const auto back = rnic_of_gid(g);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, RnicId{17});
  EXPECT_FALSE(rnic_of_gid(Gid{0}).has_value());
}

TEST_F(RnicTest, QpTypeNames) {
  EXPECT_STREQ(qp_type_name(QpType::kRC), "RC");
  EXPECT_STREQ(qp_type_name(QpType::kUD), "UD");
}

TEST_F(RnicTest, QpnsAreUniqueAndNeverReused) {
  RnicDevice& dev = cluster_.rnic_device(RnicId{0});
  QpConfig cfg;
  cfg.type = QpType::kUD;
  cfg.on_cqe = [](const Cqe&) {};
  const Qpn a = dev.create_qp(cfg);
  dev.destroy_qp(a);
  const Qpn b = dev.create_qp(cfg);
  EXPECT_NE(a, b);  // a fresh QPN: the root of "QPN reset" noise
}

TEST_F(RnicTest, UdSendGeneratesSendCqeAtWireTime) {
  // UD semantics: the send CQE exists and is timestamped at wire-send
  // (timestamp ② is observable).
  RnicDevice& src = cluster_.rnic_device(RnicId{0});
  RnicDevice& dst = cluster_.rnic_device(RnicId{3});

  std::optional<Cqe> send_cqe;
  std::optional<Cqe> recv_cqe;
  QpConfig scfg;
  scfg.type = QpType::kUD;
  scfg.on_cqe = [&](const Cqe& c) {
    if (c.is_send) send_cqe = c;
  };
  const Qpn sqpn = src.create_qp(scfg);

  QpConfig rcfg;
  rcfg.type = QpType::kUD;
  rcfg.on_cqe = [&](const Cqe& c) {
    if (!c.is_send) recv_cqe = c;
  };
  const Qpn rqpn = dst.create_qp(rcfg);

  src.post_send_ud(sqpn, dst.gid(), rqpn, 1234, 50, std::string("probe"), 7);
  cluster_.scheduler().run_until(msec(1));

  ASSERT_TRUE(send_cqe.has_value());
  EXPECT_EQ(send_cqe->wr_id, 7u);
  EXPECT_TRUE(send_cqe->success);
  ASSERT_TRUE(recv_cqe.has_value());
  EXPECT_EQ(recv_cqe->src_qpn, sqpn);
  EXPECT_EQ(recv_cqe->src_gid, src.gid());
  EXPECT_EQ(recv_cqe->tuple.src_port, 1234);
  EXPECT_EQ(recv_cqe->byte_len, 50);
  EXPECT_EQ(std::any_cast<std::string>(recv_cqe->payload), "probe");
}

TEST_F(RnicTest, CqeTimestampsUseRnicClockNotSimTime) {
  RnicDevice& src = cluster_.rnic_device(RnicId{0});
  RnicDevice& dst = cluster_.rnic_device(RnicId{3});
  std::optional<Cqe> send_cqe;
  QpConfig scfg;
  scfg.type = QpType::kUD;
  scfg.on_cqe = [&](const Cqe& c) { send_cqe = c; };
  const Qpn sqpn = src.create_qp(scfg);
  QpConfig rcfg;
  rcfg.type = QpType::kUD;
  rcfg.on_cqe = [](const Cqe&) {};
  const Qpn rqpn = dst.create_qp(rcfg);
  src.post_send_ud(sqpn, dst.gid(), rqpn, 1, 50, 0, 1);
  cluster_.scheduler().run_until(msec(1));
  ASSERT_TRUE(send_cqe.has_value());
  // The clock has a random offset up to +-1s; with sim time ~1ms the CQE
  // timestamp almost surely differs from sim time.
  EXPECT_NE(send_cqe->timestamp, cluster_.scheduler().now());
}

TEST_F(RnicTest, RcSendCqeOnlyAfterAckReturns) {
  // RC semantics: the send CQE appears only after the hardware ACK has
  // crossed the network back — so it cannot timestamp the wire-send (this
  // is why R-Pingmesh probes with UD, Table 1).
  RnicDevice& src = cluster_.rnic_device(RnicId{0});
  RnicDevice& dst = cluster_.rnic_device(RnicId{3});

  std::vector<Cqe> src_cqes;
  QpConfig scfg;
  scfg.type = QpType::kRC;
  scfg.on_cqe = [&](const Cqe& c) { src_cqes.push_back(c); };
  const Qpn sqpn = src.create_qp(scfg);

  QpConfig rcfg;
  rcfg.type = QpType::kRC;
  rcfg.on_cqe = [](const Cqe&) {};
  const Qpn rqpn = dst.create_qp(rcfg);

  src.connect_qp(sqpn, dst.gid(), rqpn, 777);
  dst.connect_qp(rqpn, src.gid(), sqpn, 777);

  src.post_send_connected(sqpn, 50, 0, 42);

  // Immediately after TX DMA the packet is on the wire but no CQE yet.
  cluster_.scheduler().run_until(usec(1));
  EXPECT_TRUE(src_cqes.empty());

  cluster_.scheduler().run_until(msec(1));
  ASSERT_EQ(src_cqes.size(), 1u);
  EXPECT_TRUE(src_cqes[0].is_send);
  EXPECT_EQ(src_cqes[0].wr_id, 42u);
  EXPECT_TRUE(src_cqes[0].success);
}

TEST_F(RnicTest, RcRetransmitsUntilPathHeals) {
  host::Cluster& c = cluster_;
  RnicDevice& src = c.rnic_device(RnicId{0});
  RnicDevice& dst = c.rnic_device(RnicId{3});
  std::vector<Cqe> cqes;
  QpConfig scfg;
  scfg.type = QpType::kRC;
  scfg.retransmit_timeout = msec(2);
  scfg.on_cqe = [&](const Cqe& cq) { cqes.push_back(cq); };
  const Qpn sqpn = src.create_qp(scfg);
  QpConfig rcfg;
  rcfg.type = QpType::kRC;
  rcfg.on_cqe = [](const Cqe&) {};
  const Qpn rqpn = dst.create_qp(rcfg);
  src.connect_qp(sqpn, dst.gid(), rqpn, 777);
  dst.connect_qp(rqpn, src.gid(), sqpn, 777);

  // Break the destination edge, send, heal after two retransmit windows.
  c.fabric().set_cable_up(c.topology().rnic(RnicId{3}).uplink, false);
  src.post_send_connected(sqpn, 50, 0, 1);
  c.scheduler().schedule_at(msec(5), [&] {
    c.fabric().set_cable_up(c.topology().rnic(RnicId{3}).uplink, true);
  });
  c.scheduler().run_until(msec(20));
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_TRUE(cqes[0].success);
  EXPECT_GT(src.counters().rc_retransmits, 0u);
  EXPECT_EQ(src.counters().rc_broken_connections, 0u);
}

TEST_F(RnicTest, RcBreaksAfterRetriesExhausted) {
  host::Cluster& c = cluster_;
  RnicDevice& src = c.rnic_device(RnicId{0});
  RnicDevice& dst = c.rnic_device(RnicId{3});
  bool broken = false;
  std::vector<Cqe> cqes;
  QpConfig scfg;
  scfg.type = QpType::kRC;
  scfg.retransmit_timeout = msec(1);
  scfg.max_retries = 3;
  scfg.on_cqe = [&](const Cqe& cq) { cqes.push_back(cq); };
  scfg.on_broken = [&] { broken = true; };
  const Qpn sqpn = src.create_qp(scfg);
  QpConfig rcfg;
  rcfg.type = QpType::kRC;
  rcfg.on_cqe = [](const Cqe&) {};
  const Qpn rqpn = dst.create_qp(rcfg);
  src.connect_qp(sqpn, dst.gid(), rqpn, 777);
  dst.connect_qp(rqpn, src.gid(), sqpn, 777);

  c.fabric().set_cable_up(c.topology().rnic(RnicId{3}).uplink, false);
  src.post_send_connected(sqpn, 50, 0, 1);
  c.scheduler().run_until(msec(50));

  EXPECT_TRUE(broken);
  EXPECT_EQ(src.qp_state(sqpn), QpState::kError);
  EXPECT_EQ(src.counters().rc_broken_connections, 1u);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_FALSE(cqes[0].success);
}

TEST_F(RnicTest, HigherRetryBudgetSurvivesLongerOutage) {
  // The paper's operational fix for flapping (§7.1 #1): max retries +
  // longer timeout keeps connections alive through flaps.
  host::Cluster& c = cluster_;
  RnicDevice& src = c.rnic_device(RnicId{0});
  RnicDevice& dst = c.rnic_device(RnicId{3});
  bool broken = false;
  std::vector<Cqe> cqes;
  QpConfig scfg;
  scfg.type = QpType::kRC;
  scfg.retransmit_timeout = msec(8);
  scfg.max_retries = 7;
  scfg.on_cqe = [&](const Cqe& cq) { cqes.push_back(cq); };
  scfg.on_broken = [&] { broken = true; };
  const Qpn sqpn = src.create_qp(scfg);
  QpConfig rcfg;
  rcfg.type = QpType::kRC;
  rcfg.on_cqe = [](const Cqe&) {};
  const Qpn rqpn = dst.create_qp(rcfg);
  src.connect_qp(sqpn, dst.gid(), rqpn, 777);
  dst.connect_qp(rqpn, src.gid(), sqpn, 777);

  // 30 ms outage: would break a 3x1ms budget but not a 7x8ms one.
  c.fabric().set_cable_up(c.topology().rnic(RnicId{3}).uplink, false);
  src.post_send_connected(sqpn, 50, 0, 1);
  c.scheduler().schedule_at(msec(30), [&] {
    c.fabric().set_cable_up(c.topology().rnic(RnicId{3}).uplink, true);
  });
  c.scheduler().run_until(msec(200));
  EXPECT_FALSE(broken);
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_TRUE(cqes[0].success);
}

TEST_F(RnicTest, StaleQpnSilentlyDropped) {
  // Probe noise source: target recreated its QPs, probe uses the old QPN.
  RnicDevice& src = cluster_.rnic_device(RnicId{0});
  RnicDevice& dst = cluster_.rnic_device(RnicId{3});
  QpConfig cfg;
  cfg.type = QpType::kUD;
  cfg.on_cqe = [](const Cqe&) {};
  const Qpn sqpn = src.create_qp(cfg);
  const Qpn old_rqpn = dst.create_qp(cfg);
  dst.reset_all_qps();  // Agent restart on the destination host
  (void)dst.create_qp(cfg);

  src.post_send_ud(sqpn, dst.gid(), old_rqpn, 1, 50, 0, 1);
  cluster_.scheduler().run_until(msec(1));
  EXPECT_EQ(dst.counters().rx_dropped_no_qp, 1u);
  EXPECT_EQ(dst.counters().rx_packets, 0u);
}

TEST_F(RnicTest, DownRnicDropsEverything) {
  RnicDevice& src = cluster_.rnic_device(RnicId{0});
  RnicDevice& dst = cluster_.rnic_device(RnicId{3});
  QpConfig cfg;
  cfg.type = QpType::kUD;
  cfg.on_cqe = [](const Cqe&) {};
  const Qpn sqpn = src.create_qp(cfg);
  const Qpn rqpn = dst.create_qp(cfg);
  dst.set_down(true);
  src.post_send_ud(sqpn, dst.gid(), rqpn, 1, 50, 0, 1);
  cluster_.scheduler().run_until(msec(1));
  EXPECT_EQ(dst.counters().rx_packets, 0u);
  // The host link is down too, so the fabric already dropped it.
  EXPECT_FALSE(cluster_.fabric().link_usable(
      cluster_.topology().rnic(RnicId{3}).uplink));
  dst.set_down(false);
  src.post_send_ud(sqpn, dst.gid(), rqpn, 1, 50, 0, 2);
  cluster_.scheduler().run_until(msec(2));
  EXPECT_EQ(dst.counters().rx_packets, 1u);
}

TEST_F(RnicTest, MisconfiguredRnicIsUnreachable) {
  // #6/#7: route or GID index missing -> silently unreachable.
  RnicDevice& src = cluster_.rnic_device(RnicId{0});
  RnicDevice& dst = cluster_.rnic_device(RnicId{3});
  QpConfig cfg;
  cfg.type = QpType::kUD;
  cfg.on_cqe = [](const Cqe&) {};
  const Qpn sqpn = src.create_qp(cfg);
  const Qpn rqpn = dst.create_qp(cfg);
  dst.set_gid_index_missing(true);
  src.post_send_ud(sqpn, dst.gid(), rqpn, 1, 50, 0, 1);
  cluster_.scheduler().run_until(msec(1));
  EXPECT_EQ(dst.counters().rx_packets, 0u);
  EXPECT_EQ(dst.counters().rx_dropped_misconfig, 1u);
  // And it cannot send either.
  dst.set_gid_index_missing(false);
  src.set_routing_config_missing(true);
  src.post_send_ud(sqpn, dst.gid(), rqpn, 1, 50, 0, 2);
  cluster_.scheduler().run_until(msec(2));
  EXPECT_EQ(dst.counters().rx_packets, 0u);
}

TEST_F(RnicTest, QpcCacheLruAndMissPenalty) {
  rnic::RnicParams params;
  params.qpc_cache_slots = 2;
  host::ClusterConfig ccfg;
  ccfg.rnic = params;
  host::Cluster c(topo::build_clos(small_cfg()), ccfg);
  RnicDevice& dev = c.rnic_device(RnicId{0});
  ASSERT_EQ(rnic::kQpcMissPenalty, usec(2));
  EXPECT_EQ(dev.qpc_touch(Qpn{10}), usec(2));  // miss
  EXPECT_EQ(dev.qpc_touch(Qpn{11}), usec(2));  // miss
  EXPECT_EQ(dev.qpc_touch(Qpn{10}), 0);        // hit
  EXPECT_EQ(dev.qpc_touch(Qpn{12}), usec(2));  // miss, evicts 11
  EXPECT_EQ(dev.qpc_touch(Qpn{11}), usec(2));  // miss again
  EXPECT_EQ(dev.counters().qpc_cache_hits, 1u);
  EXPECT_EQ(dev.counters().qpc_cache_misses, 4u);
}

TEST_F(RnicTest, PcieFactorValidation) {
  RnicDevice& dev = cluster_.rnic_device(RnicId{0});
  EXPECT_THROW(dev.set_pcie_factor(0.0), std::invalid_argument);
  EXPECT_THROW(dev.set_pcie_factor(1.5), std::invalid_argument);
  dev.set_pcie_factor(0.25);
  EXPECT_DOUBLE_EQ(dev.pcie_factor(), 0.25);
  // The fabric-facing drain rate of the downlink degrades with it.
  EXPECT_DOUBLE_EQ(cluster_.fabric()
                       .link_state(cluster_.topology().rnic(RnicId{0}).downlink)
                       .service_rate_factor,
                   0.25);
}

TEST_F(RnicTest, ApiErrorsThrow) {
  RnicDevice& dev = cluster_.rnic_device(RnicId{0});
  QpConfig cfg;
  cfg.type = QpType::kUD;
  EXPECT_THROW(dev.create_qp(cfg), std::invalid_argument);  // no on_cqe
  cfg.on_cqe = [](const Cqe&) {};
  const Qpn ud = dev.create_qp(cfg);
  EXPECT_THROW(dev.connect_qp(ud, Gid{1}, Qpn{1}, 1), std::logic_error);
  EXPECT_THROW(dev.post_send_connected(ud, 50, 0, 1), std::logic_error);
  EXPECT_THROW(dev.post_send_ud(Qpn{9999}, Gid{1}, Qpn{1}, 1, 50, 0, 1),
               std::out_of_range);
  QpConfig rc = cfg;
  rc.type = QpType::kRC;
  const Qpn rcq = dev.create_qp(rc);
  EXPECT_THROW(dev.post_send_ud(rcq, Gid{1}, Qpn{1}, 1, 50, 0, 1),
               std::logic_error);
  EXPECT_THROW(dev.post_send_connected(rcq, 50, 0, 1),
               std::logic_error);  // not connected yet
}

}  // namespace
}  // namespace rpm::rnic
