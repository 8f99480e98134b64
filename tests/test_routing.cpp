// Unit and property tests for ECMP routing: determinism, validity, load
// spreading, failure rehash, and rate-limited traceroute.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>

#include "routing/ecmp.h"
#include "topo/topology.h"

namespace rpm::routing {
namespace {

using topo::ClosConfig;
using topo::Topology;

ClosConfig cfg3tier() {
  ClosConfig cfg;
  cfg.num_pods = 2;
  cfg.tors_per_pod = 2;
  cfg.aggs_per_pod = 2;
  cfg.spines_per_plane = 2;
  cfg.hosts_per_tor = 2;
  cfg.rnics_per_host = 1;
  return cfg;
}

/// The switches a path enters, in order: each hop's `to` node.
std::vector<SwitchId> switches_of(const Topology& t, const Path& p) {
  std::vector<SwitchId> out;
  for (LinkId l : p.links) {
    if (t.link(l).to.is_switch()) out.push_back(t.link(l).to.as_switch());
  }
  return out;
}

FiveTuple tuple_for(const Topology& t, RnicId src, RnicId dst,
                    std::uint16_t port) {
  FiveTuple f;
  f.src_ip = t.rnic(src).ip;
  f.dst_ip = t.rnic(dst).ip;
  f.src_port = port;
  return f;
}

class EcmpTest : public ::testing::Test {
 protected:
  EcmpTest() : topo_(build_clos(cfg3tier())), router_(topo_) {}
  Topology topo_;
  EcmpRouter router_;
};

TEST_F(EcmpTest, PathIsWellFormed) {
  const RnicId src{0}, dst{static_cast<std::uint32_t>(topo_.num_rnics() - 1)};
  const Path p = router_.resolve(src, dst, tuple_for(topo_, src, dst, 1000));
  ASSERT_TRUE(p.complete);
  // Links must chain: link[i].to == link[i+1].from.
  for (std::size_t i = 0; i + 1 < p.links.size(); ++i) {
    EXPECT_EQ(topo_.link(p.links[i]).to, topo_.link(p.links[i + 1]).from);
  }
  EXPECT_EQ(topo_.link(p.links.front()).from,
            topo::NodeRef::host(topo_.rnic(src).host));
  EXPECT_EQ(topo_.link(p.links.back()).to,
            topo::NodeRef::host(topo_.rnic(dst).host));
  // Cross-pod in a 3-tier Clos: host-tor, tor-agg, agg-spine, spine-agg,
  // agg-tor, tor-host = 6 links, 5 switches... (switches: tor, agg, spine,
  // agg, tor).
  EXPECT_EQ(p.links.size(), 6u);
  EXPECT_EQ(switches_of(topo_, p).size(), 5u);
}

TEST_F(EcmpTest, IntraTorPathIsTwoHops) {
  // RNICs 0 and 1 share a ToR in this config.
  const RnicId a{0}, b{1};
  ASSERT_EQ(topo_.rnic(a).tor, topo_.rnic(b).tor);
  const Path p = router_.resolve(a, b, tuple_for(topo_, a, b, 1000));
  ASSERT_TRUE(p.complete);
  EXPECT_EQ(p.links.size(), 2u);
  EXPECT_EQ(switches_of(topo_, p).size(), 1u);
}

TEST_F(EcmpTest, DeterministicForSameTuple) {
  const RnicId src{0}, dst{7};
  const auto t = tuple_for(topo_, src, dst, 3333);
  const Path p1 = router_.resolve(src, dst, t);
  const Path p2 = router_.resolve(src, dst, t);
  EXPECT_EQ(p1.links, p2.links);
}

TEST_F(EcmpTest, DifferentPortsSpreadAcrossParallelPaths) {
  const RnicId src{0}, dst{7};  // cross-pod
  std::set<std::vector<LinkId>> distinct;
  for (std::uint16_t port = 1000; port < 1200; ++port) {
    const Path p = router_.resolve(src, dst, tuple_for(topo_, src, dst, port));
    distinct.emplace(p.links.begin(), p.links.end());
  }
  // 4 parallel cross-pod paths; 200 ports must find all of them.
  EXPECT_EQ(distinct.size(), 4u);
}

TEST_F(EcmpTest, SpreadIsRoughlyUniform) {
  const RnicId src{0}, dst{7};
  std::map<std::vector<LinkId>, int> counts;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const auto t =
        tuple_for(topo_, src, dst, static_cast<std::uint16_t>(1000 + i));
    const Path p = router_.resolve(src, dst, t);
    counts[std::vector<LinkId>(p.links.begin(), p.links.end())]++;
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [path, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.25, 0.05);
  }
}

TEST_F(EcmpTest, RehashesAroundDownLink) {
  const RnicId src{0}, dst{7};
  const auto t = tuple_for(topo_, src, dst, 1000);
  const Path before = router_.resolve(src, dst, t);
  ASSERT_TRUE(before.complete);
  // Kill the first fabric link it used (tor->agg).
  const LinkId dead = before.links[1];
  const auto up = [dead](LinkId l) { return l != dead; };
  const Path after = router_.resolve(src, dst, t, up);
  ASSERT_TRUE(after.complete);
  for (LinkId l : after.links) EXPECT_NE(l, dead);
  EXPECT_NE(before.links, after.links);
}

TEST_F(EcmpTest, PicksAmongLiveCandidatesInOrder) {
  // Reference: filter each hop's candidates to the live ones, in order, and
  // index them with pick(). resolve() must choose the same link every hop.
  const RnicId src{0}, dst{7};
  const SwitchId dst_tor = topo_.rnic(dst).tor;
  for (LinkId dead : topo_.out_links(topo::NodeRef::sw(topo_.rnic(src).tor))) {
    if (!topo_.link(dead).to.is_switch()) continue;
    const auto up = [dead](LinkId l) { return l != dead; };
    for (std::uint16_t port = 1000; port < 1064; ++port) {
      const auto t = tuple_for(topo_, src, dst, port);
      const Path p = router_.resolve(src, dst, t, up);
      ASSERT_TRUE(p.complete);
      const std::vector<SwitchId> sw = switches_of(topo_, p);
      for (std::size_t i = 0; i + 1 < sw.size(); ++i) {
        std::vector<LinkId> live;
        for (LinkId l : router_.candidates(sw[i], dst_tor)) {
          if (up(l)) live.push_back(l);
        }
        EXPECT_EQ(p.links[i + 1], live[router_.pick(sw[i], t, live.size())]);
      }
    }
  }
}

TEST_F(EcmpTest, BlackholeWhenAllCandidatesDown) {
  const RnicId src{0}, dst{7};
  const auto t = tuple_for(topo_, src, dst, 1000);
  // Take down every uplink of src's ToR.
  const SwitchId tor = topo_.rnic(src).tor;
  std::set<LinkId> dead;
  for (LinkId l : topo_.out_links(topo::NodeRef::sw(tor))) {
    if (topo_.link(l).to.is_switch()) dead.insert(l);
  }
  const Path p = router_.resolve(src, dst, t,
                                 [&](LinkId l) { return !dead.contains(l); });
  EXPECT_FALSE(p.complete);
  ASSERT_FALSE(p.links.empty());
  EXPECT_EQ(topo_.link(p.links.back()).to, topo::NodeRef::sw(tor));
}

TEST_F(EcmpTest, DownSourceUplinkGivesEmptyPath) {
  const RnicId src{0}, dst{7};
  const LinkId up = topo_.rnic(src).uplink;
  const Path p = router_.resolve(src, dst, tuple_for(topo_, src, dst, 1),
                                 [&](LinkId l) { return l != up; });
  EXPECT_FALSE(p.complete);
  EXPECT_TRUE(p.links.empty());
}

TEST_F(EcmpTest, CandidatesExposedForEquationOne) {
  const SwitchId src_tor = topo_.rnic(RnicId{0}).tor;
  const SwitchId dst_tor = topo_.rnic(RnicId{7}).tor;
  const auto& cand = router_.candidates(src_tor, dst_tor);
  EXPECT_EQ(cand.size(), 2u);  // aggs_per_pod uplink choices at the ToR
}

TEST_F(EcmpTest, PickRejectsZeroCandidates) {
  EXPECT_THROW(static_cast<void>(router_.pick(SwitchId{0}, FiveTuple{}, 0)),
               std::invalid_argument);
}

TEST_F(EcmpTest, DifferentSeedsGiveDifferentMappings) {
  EcmpRouter other(topo_, 0xABCDEF);
  const RnicId src{0}, dst{7};
  int diffs = 0;
  for (std::uint16_t port = 0; port < 64; ++port) {
    const auto t = tuple_for(topo_, src, dst, port);
    if (router_.resolve(src, dst, t).links !=
        other.resolve(src, dst, t).links) {
      ++diffs;
    }
  }
  EXPECT_GT(diffs, 0);
}

TEST_F(EcmpTest, PropagationTotalSumsHops) {
  const RnicId src{0}, dst{7};
  const Path p = router_.resolve(src, dst, tuple_for(topo_, src, dst, 1));
  TimeNs expect = 0;
  for (LinkId l : p.links) expect += topo_.link(l).propagation;
  EXPECT_EQ(p.propagation_total(topo_), expect);
}

// Paths keep their links inline, so every path either builder makes must
// fit kMaxPathLinks; a cross-pod Clos path is the longest, at exactly 6.
TEST_F(EcmpTest, LongestPathsFitInline) {
  ClosConfig clos = cfg3tier();
  clos.num_pods = 3;
  clos.rnics_per_host = 2;
  topo::RailConfig rail;
  rail.num_hosts = 3;
  rail.rails = 2;
  rail.num_spines = 2;
  for (const Topology& t : {build_clos(clos), build_rail_optimized(rail)}) {
    const EcmpRouter router(t);
    for (std::uint32_t s = 0; s < t.num_rnics(); ++s) {
      for (std::uint32_t d = 0; d < t.num_rnics(); ++d) {
        if (s == d) continue;
        const RnicId src{s}, dst{d};
        const Path p = router.resolve(src, dst, tuple_for(t, src, dst, 7));
        ASSERT_TRUE(p.complete) << s << "->" << d;
        EXPECT_LE(p.links.size(), kMaxPathLinks) << s << "->" << d;
        const topo::SwitchInfo& from = t.switch_info(t.rnic(src).tor);
        const topo::SwitchInfo& to = t.switch_info(t.rnic(dst).tor);
        if (from.tier == topo::SwitchTier::kTor && from.pod != to.pod) {
          EXPECT_EQ(p.links.size(), 6u) << s << "->" << d;
        }
      }
    }
  }

  LinkList full;
  for (std::size_t i = 0; i < kMaxPathLinks; ++i) {
    full.push_back(LinkId{static_cast<std::uint32_t>(i)});
  }
  EXPECT_EQ(full.size(), kMaxPathLinks);
  EXPECT_THROW(full.push_back(LinkId{99}), std::length_error);
  EXPECT_EQ(full.size(), kMaxPathLinks);
}

TEST(EcmpRail, RoutesAcrossRails) {
  topo::RailConfig cfg;
  cfg.num_hosts = 2;
  cfg.rails = 2;
  cfg.num_spines = 2;
  const Topology t = build_rail_optimized(cfg);
  EcmpRouter router(t);
  // NIC 0 and NIC 1 of host 0 are on different rails: path crosses a spine.
  const RnicId a{0}, b{1};
  FiveTuple tuple;
  tuple.src_ip = t.rnic(a).ip;
  tuple.dst_ip = t.rnic(b).ip;
  tuple.src_port = 99;
  const Path p = router.resolve(a, b, tuple);
  ASSERT_TRUE(p.complete);
  const std::vector<SwitchId> sw = switches_of(t, p);
  ASSERT_EQ(sw.size(), 3u);  // rail, spine, rail
  EXPECT_EQ(t.switch_info(sw[1]).tier, topo::SwitchTier::kSpine);
}

TEST(TracerouteTest, ReportsFullPathWhenUnderRate) {
  const Topology t = build_clos(cfg3tier());
  EcmpRouter router(t);
  TracerouteService tracer(router, 100.0);
  FiveTuple tuple;
  tuple.src_ip = t.rnic(RnicId{0}).ip;
  tuple.dst_ip = t.rnic(RnicId{7}).ip;
  tuple.src_port = 5;
  const auto r = tracer.trace(RnicId{0}, RnicId{7}, tuple, sec(1));
  EXPECT_TRUE(r.all_responded);
  EXPECT_TRUE(r.path.complete);
}

TEST(TracerouteTest, SwitchCpuRateLimitSuppressesResponses) {
  const Topology t = build_clos(cfg3tier());
  EcmpRouter router(t);
  TracerouteService tracer(router, 2.0);  // 2 responses/s per switch
  FiveTuple tuple;
  tuple.src_ip = t.rnic(RnicId{0}).ip;
  tuple.dst_ip = t.rnic(RnicId{7}).ip;
  tuple.src_port = 5;
  // Burst of traces at the same instant: only the first two get answers
  // from each switch.
  int full = 0, partial = 0;
  for (int i = 0; i < 6; ++i) {
    const auto r = tracer.trace(RnicId{0}, RnicId{7}, tuple, sec(1));
    (r.all_responded ? full : partial)++;
  }
  EXPECT_EQ(full, 2);
  EXPECT_EQ(partial, 4);
}

TEST(TracerouteTest, TokensRefillOverTime) {
  const Topology t = build_clos(cfg3tier());
  EcmpRouter router(t);
  TracerouteService tracer(router, 1.0);
  FiveTuple tuple;
  tuple.src_ip = t.rnic(RnicId{0}).ip;
  tuple.dst_ip = t.rnic(RnicId{7}).ip;
  EXPECT_TRUE(tracer.trace(RnicId{0}, RnicId{7}, tuple, sec(1)).all_responded);
  EXPECT_FALSE(tracer.trace(RnicId{0}, RnicId{7}, tuple, sec(1)).all_responded);
  EXPECT_TRUE(tracer.trace(RnicId{0}, RnicId{7}, tuple, sec(3)).all_responded);
}

TEST(TracerouteTest, RejectsNonPositiveRate) {
  const Topology t = build_clos(cfg3tier());
  EcmpRouter router(t);
  EXPECT_THROW(TracerouteService(router, 0.0), std::invalid_argument);
}

// Property sweep: every (src, dst) RNIC pair resolves to a complete,
// loop-free path in a healthy fabric.
class AllPairsTest : public ::testing::TestWithParam<std::uint16_t> {};

TEST_P(AllPairsTest, CompleteAndLoopFree) {
  const Topology t = build_clos(cfg3tier());
  const EcmpRouter router(t);
  const std::uint16_t port = GetParam();
  for (std::uint32_t s = 0; s < t.num_rnics(); ++s) {
    for (std::uint32_t d = 0; d < t.num_rnics(); ++d) {
      if (s == d) continue;
      FiveTuple tuple;
      tuple.src_ip = t.rnic(RnicId{s}).ip;
      tuple.dst_ip = t.rnic(RnicId{d}).ip;
      tuple.src_port = port;
      const Path p = router.resolve(RnicId{s}, RnicId{d}, tuple);
      ASSERT_TRUE(p.complete) << s << "->" << d;
      const std::vector<SwitchId> sw = switches_of(t, p);
      const std::set<SwitchId> seen(sw.begin(), sw.end());
      EXPECT_EQ(seen.size(), sw.size()) << "loop in path";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ports, AllPairsTest,
                         ::testing::Values(1000, 2173, 40000, 65535));

}  // namespace
}  // namespace rpm::routing
