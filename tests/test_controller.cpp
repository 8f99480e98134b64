// Tests for the Controller: Equation (1), parallel-path counting, registry
// semantics (QPN freshness), and pinglist construction.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/controller.h"
#include "rnic/rnic.h"
#include "routing/ecmp.h"
#include "topo/topology.h"

namespace rpm::core {
namespace {

topo::ClosConfig clos_cfg() {
  topo::ClosConfig cfg;
  cfg.num_pods = 2;
  cfg.tors_per_pod = 2;
  cfg.aggs_per_pod = 2;
  cfg.spines_per_plane = 2;
  cfg.hosts_per_tor = 2;
  cfg.rnics_per_host = 2;
  return cfg;
}

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest()
      : topo_(topo::build_clos(clos_cfg())),
        router_(topo_),
        ctrl_(topo_, router_) {}

  void register_all() {
    for (const topo::HostInfo& h : topo_.hosts()) {
      std::vector<RnicCommInfo> infos;
      for (RnicId r : h.rnics) {
        infos.push_back(RnicCommInfo{r, topo_.rnic(r).ip, rnic::gid_of(r),
                                     Qpn{0x100 + r.value}});
      }
      ctrl_.register_agent(h.id, infos);
    }
  }

  topo::Topology topo_;
  routing::EcmpRouter router_;
  Controller ctrl_;
};

TEST(Equation1, MatchesBruteForceMonteCarlo) {
  // For small N, verify the analytic k against a Monte-Carlo coverage
  // estimate: k tuples must cover all N paths with probability >= P.
  Rng rng(7);
  for (std::uint32_t n : {2u, 4u, 8u}) {
    const std::uint32_t k = equation1_min_tuples(n, 0.99);
    ASSERT_GE(k, n);
    int covered = 0;
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
      std::set<std::uint32_t> seen;
      for (std::uint32_t i = 0; i < k; ++i) {
        seen.insert(static_cast<std::uint32_t>(rng.uniform_int(0, n - 1)));
      }
      if (seen.size() == n) ++covered;
    }
    EXPECT_GE(static_cast<double>(covered) / trials, 0.985) << "N=" << n;
  }
}

// Independent implementation of the inclusion-exclusion sum of Equation (1),
// used to verify arg-min minimality analytically (a Monte-Carlo check at the
// boundary would be flaky by construction).
double uncovered_prob_reference(std::uint32_t n, std::uint32_t k) {
  double sum = 0.0;
  double binom = 1.0;  // C(n, i), updated incrementally
  for (std::uint32_t i = 1; i <= n; ++i) {
    binom *= static_cast<double>(n - i + 1) / static_cast<double>(i);
    const double term =
        binom * std::pow(1.0 - static_cast<double>(i) / n,
                         static_cast<double>(k));
    sum += (i % 2 == 1) ? term : -term;
  }
  return sum;
}

TEST(Equation1, MinimalityAtBoundary) {
  // k satisfies the bound; k-1 must not (k is the arg-min subject to k>=N).
  for (std::uint32_t n : {2u, 3u, 4u, 8u, 16u, 32u}) {
    const std::uint32_t k = equation1_min_tuples(n, 0.99);
    EXPECT_LE(uncovered_prob_reference(n, k), 0.01) << "N=" << n;
    if (k > n) {
      EXPECT_GT(uncovered_prob_reference(n, k - 1), 0.01) << "N=" << n;
    }
  }
}

TEST(Equation1, MonotonicInN) {
  std::uint32_t prev = 0;
  for (std::uint32_t n = 1; n <= 64; n *= 2) {
    const std::uint32_t k = equation1_min_tuples(n, 0.99);
    EXPECT_GE(k, prev);
    prev = k;
  }
}

TEST(Equation1, MonotonicInP) {
  EXPECT_LE(equation1_min_tuples(8, 0.9), equation1_min_tuples(8, 0.99));
  EXPECT_LE(equation1_min_tuples(8, 0.99), equation1_min_tuples(8, 0.999));
}

TEST(Equation1, EdgeCases) {
  EXPECT_EQ(equation1_min_tuples(1, 0.99), 1u);
  EXPECT_THROW(equation1_min_tuples(0, 0.99), std::invalid_argument);
  EXPECT_THROW(equation1_min_tuples(4, 0.0), std::invalid_argument);
  EXPECT_THROW(equation1_min_tuples(4, 1.0), std::invalid_argument);
}

TEST_F(ControllerTest, ParallelPathCount) {
  const auto& tors = topo_.tor_switches();
  // Same pod: aggs_per_pod = 2 paths; cross pod: 2 * 2 = 4.
  EXPECT_EQ(count_parallel_paths(router_, tors[0], tors[1]), 2u);
  EXPECT_EQ(count_parallel_paths(router_, tors[0], tors[2]), 4u);
  EXPECT_EQ(count_parallel_paths(router_, tors[0], tors[0]), 1u);
}

TEST_F(ControllerTest, TuplesPerTorUsesWorstCaseN) {
  // N = 4 (cross pod) dominates; Equation 1 with P=0.99 and N=4 gives k.
  const std::uint32_t expect_k = equation1_min_tuples(4, 0.99);
  for (SwitchId tor : topo_.tor_switches()) {
    EXPECT_EQ(ctrl_.tuples_for_tor(tor), expect_k);
  }
}

TEST_F(ControllerTest, RegistryStoresLatestQpn) {
  EXPECT_FALSE(ctrl_.comm_info(RnicId{0}).has_value());
  register_all();
  auto info = ctrl_.comm_info(RnicId{0});
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->qpn, Qpn{0x100});
  // Agent restart: re-register with a fresh QPN; Controller keeps the latest.
  ctrl_.register_agent(
      HostId{0}, {RnicCommInfo{RnicId{0}, topo_.rnic(RnicId{0}).ip,
                               rnic::gid_of(RnicId{0}), Qpn{0x900}}});
  EXPECT_EQ(ctrl_.comm_info(RnicId{0})->qpn, Qpn{0x900});
}

TEST_F(ControllerTest, RegisterRejectsForeignRnic) {
  // RNIC 0 belongs to host 0; registering it from host 1 is a bug.
  EXPECT_THROW(
      ctrl_.register_agent(HostId{1}, {RnicCommInfo{RnicId{0}, IpAddr{},
                                                    Gid{}, Qpn{1}}}),
      std::invalid_argument);
}

TEST_F(ControllerTest, CommInfoByIp) {
  register_all();
  const auto info = ctrl_.comm_info_by_ip(topo_.rnic(RnicId{3}).ip);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->rnic, RnicId{3});
  EXPECT_FALSE(ctrl_.comm_info_by_ip(IpAddr{1}).has_value());
}

TEST_F(ControllerTest, TorMeshPinglistCoversTorPeers) {
  register_all();
  const Pinglist pl = ctrl_.tormesh_pinglist(RnicId{0});
  // 2 hosts * 2 rnics under the ToR, minus self = 3 targets.
  EXPECT_EQ(pl.entries.size(), 3u);
  const SwitchId my_tor = topo_.rnic(RnicId{0}).tor;
  for (const PinglistEntry& e : pl.entries) {
    EXPECT_EQ(topo_.rnic(e.target).tor, my_tor);
    EXPECT_NE(e.target, RnicId{0});
    EXPECT_EQ(e.kind, ProbeKind::kTorMesh);
    EXPECT_TRUE(e.target_qpn.valid());
  }
  // 10 pps (§5).
  EXPECT_EQ(pl.probe_interval, msec(100));
}

TEST_F(ControllerTest, TorMeshSkipsUnregisteredPeers) {
  // Nothing registered: empty list (targets' QPNs are unknown).
  EXPECT_TRUE(ctrl_.tormesh_pinglist(RnicId{0}).entries.empty());
}

TEST_F(ControllerTest, InterTorTuplesStayWithinPlanAndCrossTors) {
  register_all();
  std::size_t total_entries = 0;
  for (const topo::RnicInfo& r : topo_.rnics()) {
    const Pinglist pl = ctrl_.intertor_pinglist(r.id);
    total_entries += pl.entries.size();
    for (const PinglistEntry& e : pl.entries) {
      EXPECT_NE(topo_.rnic(e.target).tor, r.tor) << "must cross ToRs";
      EXPECT_EQ(e.kind, ProbeKind::kInterTor);
      EXPECT_EQ(e.tuple.src_ip, r.ip);
    }
  }
  // Every ToR contributed exactly k tuples, distributed over its RNICs.
  const std::uint32_t k = equation1_min_tuples(4, 0.99);
  EXPECT_EQ(total_entries, static_cast<std::size_t>(k) *
                               topo_.tor_switches().size());
}

TEST_F(ControllerTest, InterTorTuplesCoverAllParallelPaths) {
  register_all();
  // Gather the tuples of one ToR and check ECMP spreads them over all 4
  // cross-pod paths with the Equation-1 guarantee (P=0.99; this topology and
  // seed should just cover).
  std::set<std::vector<LinkId>> paths_hit;
  for (const topo::RnicInfo& r : topo_.rnics()) {
    if (r.tor != topo_.tor_switches()[0]) continue;
    for (const PinglistEntry& e : ctrl_.intertor_pinglist(r.id).entries) {
      if (topo_.switch_info(topo_.rnic(e.target).tor).pod ==
          topo_.switch_info(r.tor).pod) {
        continue;  // same-pod tuples exercise only 2 paths
      }
      const auto path = router_.resolve(r.id, e.target, e.tuple);
      // Identify the path by its fabric links (strip host edges).
      std::vector<LinkId> mid(path.links.begin() + 1, path.links.end() - 1);
      paths_hit.insert(mid);
    }
  }
  EXPECT_GE(paths_hit.size(), 3u);  // probabilistic, but 0.99 coverage
}

TEST_F(ControllerTest, RotationReplacesSomeTuples) {
  register_all();
  auto snapshot = [&] {
    std::set<std::pair<std::uint32_t, std::uint16_t>> s;
    for (const topo::RnicInfo& r : topo_.rnics()) {
      for (const PinglistEntry& e : ctrl_.intertor_pinglist(r.id).entries) {
        s.insert({e.target.value, e.tuple.src_port});
      }
    }
    return s;
  };
  const auto before = snapshot();
  ctrl_.rotate_intertor_tuples();
  const auto after = snapshot();
  EXPECT_NE(before, after);
  // Total tuple count is conserved.
  EXPECT_EQ(before.size(), after.size());
}

}  // namespace
}  // namespace rpm::core
