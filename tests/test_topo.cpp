// Unit tests for topology construction: Clos and rail-optimized builders,
// link wiring, and lookup helpers.
#include <gtest/gtest.h>

#include <set>

#include "topo/topology.h"

namespace rpm::topo {
namespace {

ClosConfig small_clos() {
  ClosConfig cfg;
  cfg.num_pods = 2;
  cfg.tors_per_pod = 2;
  cfg.aggs_per_pod = 2;
  cfg.spines_per_plane = 2;
  cfg.hosts_per_tor = 2;
  cfg.rnics_per_host = 2;
  return cfg;
}

TEST(Clos, CountsMatchConfig) {
  const auto cfg = small_clos();
  const Topology t = build_clos(cfg);
  EXPECT_EQ(t.num_hosts(), 2u * 2u * 2u);       // pods * tors * hosts
  EXPECT_EQ(t.num_rnics(), t.num_hosts() * 2u); // rnics_per_host
  // switches: 4 tors + 4 aggs + 4 spines
  EXPECT_EQ(t.num_switches(), 12u);
  EXPECT_EQ(t.tor_switches().size(), 4u);
}

TEST(Clos, LinkCountsMatchConfig) {
  const auto cfg = small_clos();
  const Topology t = build_clos(cfg);
  // Cables: tor-agg = pods * tors * aggs = 8; agg-spine = pods * planes *
  // spines_per_plane = 8; host = rnics = 16. Each cable = 2 directed links.
  EXPECT_EQ(t.num_links(), 2u * (8u + 8u + 16u));
}

TEST(Clos, EveryLinkHasAPeerInverse) {
  const Topology t = build_clos(small_clos());
  for (const Link& l : t.links()) {
    const Link& p = t.link(l.peer);
    EXPECT_EQ(p.peer, l.id);
    EXPECT_EQ(p.from, l.to);
    EXPECT_EQ(p.to, l.from);
  }
}

TEST(Clos, RnicsOfAHostShareOneTor) {
  const Topology t = build_clos(small_clos());
  for (const HostInfo& h : t.hosts()) {
    std::set<SwitchId> tors;
    for (RnicId r : h.rnics) tors.insert(t.rnic(r).tor);
    EXPECT_EQ(tors.size(), 1u);
  }
}

TEST(Clos, TorAggLinksStayInsideOnePod) {
  const Topology t = build_clos(small_clos());
  for (const Link& l : t.links()) {
    if (l.from.is_host() || l.to.is_host()) continue;
    const SwitchInfo& a = t.switch_info(l.from.as_switch());
    const SwitchInfo& b = t.switch_info(l.to.as_switch());
    if (a.tier == SwitchTier::kSpine || b.tier == SwitchTier::kSpine) continue;
    EXPECT_EQ(a.pod, b.pod) << t.link_name(l.id);
  }
}

TEST(Clos, TorMeshGroupsAreComplete) {
  const auto cfg = small_clos();
  const Topology t = build_clos(cfg);
  for (SwitchId tor : t.tor_switches()) {
    EXPECT_EQ(t.rnics_under_tor(tor).size(),
              cfg.hosts_per_tor * cfg.rnics_per_host);
  }
}

TEST(Clos, RnicUplinkWiring) {
  const Topology t = build_clos(small_clos());
  for (const RnicInfo& r : t.rnics()) {
    const Link& up = t.link(r.uplink);
    EXPECT_TRUE(up.from.is_host());
    EXPECT_EQ(up.from.as_host(), r.host);
    EXPECT_EQ(up.to.as_switch(), r.tor);
    const Link& down = t.link(r.downlink);
    EXPECT_EQ(down.from.as_switch(), r.tor);
  }
}

TEST(Clos, UniqueIpsAndLookup) {
  const Topology t = build_clos(small_clos());
  std::set<std::uint32_t> ips;
  for (const RnicInfo& r : t.rnics()) {
    ips.insert(r.ip.value);
    EXPECT_EQ(t.rnic_by_ip(r.ip), r.id);
  }
  EXPECT_EQ(ips.size(), t.num_rnics());
  EXPECT_THROW((void)t.rnic_by_ip(IpAddr{12345}), std::out_of_range);
}

TEST(Clos, ParallelPathHelper) {
  const auto cfg = small_clos();
  EXPECT_EQ(clos_parallel_paths(cfg, /*cross_pod=*/true), 4u);
  EXPECT_EQ(clos_parallel_paths(cfg, /*cross_pod=*/false), 2u);
}

TEST(Clos, RejectsZeroDimensions) {
  ClosConfig cfg = small_clos();
  cfg.num_pods = 0;
  EXPECT_THROW(build_clos(cfg), std::invalid_argument);
}

TEST(Clos, TierNames) {
  EXPECT_STREQ(tier_name(SwitchTier::kTor), "tor");
  EXPECT_STREQ(tier_name(SwitchTier::kSpine), "spine");
}

TEST(Rail, StructureMatchesFigure12) {
  RailConfig cfg;
  cfg.num_hosts = 3;
  cfg.rails = 4;
  cfg.num_spines = 2;
  const Topology t = build_rail_optimized(cfg);
  EXPECT_EQ(t.num_hosts(), 3u);
  EXPECT_EQ(t.num_rnics(), 12u);
  EXPECT_EQ(t.num_switches(), 6u);       // 4 rails + 2 spines
  EXPECT_EQ(t.tor_switches().size(), 4u);  // rail switches act as ToRs
  // NIC i of every host is on rail switch i.
  for (const HostInfo& h : t.hosts()) {
    std::set<SwitchId> rails_used;
    for (RnicId r : h.rnics) rails_used.insert(t.rnic(r).tor);
    EXPECT_EQ(rails_used.size(), cfg.rails);  // all different rails
  }
}

TEST(Rail, SameIndexNicsShareARail) {
  RailConfig cfg;
  cfg.num_hosts = 4;
  cfg.rails = 2;
  cfg.num_spines = 2;
  const Topology t = build_rail_optimized(cfg);
  for (std::uint32_t rail = 0; rail < cfg.rails; ++rail) {
    std::set<SwitchId> tors;
    for (const HostInfo& h : t.hosts()) {
      tors.insert(t.rnic(h.rnics[rail]).tor);
    }
    EXPECT_EQ(tors.size(), 1u) << "rail " << rail;
  }
}

TEST(Rail, RejectsZeroDimensions) {
  RailConfig cfg;
  cfg.rails = 0;
  EXPECT_THROW(build_rail_optimized(cfg), std::invalid_argument);
}

TEST(Topology, OutLinksSorted) {
  const Topology t = build_clos(small_clos());
  for (const SwitchInfo& s : t.switches()) {
    const auto& out = t.out_links(NodeRef::sw(s.id));
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    EXPECT_FALSE(out.empty());
  }
}

TEST(Topology, LinkNamesAreHumanReadable) {
  const Topology t = build_clos(small_clos());
  bool found_tor_agg = false;
  for (const Link& l : t.links()) {
    if (l.name.find("tor-0/0->agg-0/0") != std::string::npos) {
      found_tor_agg = true;
    }
  }
  EXPECT_TRUE(found_tor_agg);
}

TEST(Topology, AccessorsThrowOnBadIds) {
  const Topology t = build_clos(small_clos());
  EXPECT_THROW((void)t.host(HostId{9999}), std::out_of_range);
  EXPECT_THROW((void)t.rnic(RnicId{9999}), std::out_of_range);
  EXPECT_THROW((void)t.switch_info(SwitchId{9999}), std::out_of_range);
  EXPECT_THROW((void)t.link(LinkId{9999}), std::out_of_range);
}

TEST(Topology, CapacityStoredAsBytesPerSecond) {
  ClosConfig cfg = small_clos();
  cfg.host_link.capacity_gbps = 200.0;
  const Topology t = build_clos(cfg);
  const RnicInfo& r = t.rnic(RnicId{0});
  EXPECT_DOUBLE_EQ(t.link(r.uplink).capacity_Bps, 200e9 / 8.0);
}

}  // namespace
}  // namespace rpm::topo
