// Tests for the two §7.4/§7.5 extensions: INT-based path tracing and the
// root-cause advisor.
#include <gtest/gtest.h>

#include "core/rootcause.h"
#include "core/rpingmesh.h"
#include "fabric/int_telemetry.h"
#include "faults/faults.h"

namespace rpm {
namespace {

topo::ClosConfig clos_cfg() {
  topo::ClosConfig cfg;
  cfg.num_pods = 2;
  cfg.tors_per_pod = 2;
  cfg.aggs_per_pod = 2;
  cfg.spines_per_plane = 2;
  cfg.hosts_per_tor = 2;
  cfg.rnics_per_host = 2;
  cfg.host_link.capacity_gbps = 100.0;
  cfg.fabric_link.capacity_gbps = 100.0;
  return cfg;
}

class ExtensionsTest : public ::testing::Test {
 protected:
  ExtensionsTest() : cluster_(topo::build_clos(clos_cfg())) {}
  host::Cluster cluster_;
};

TEST_F(ExtensionsTest, IntTraceMatchesCurrentEcmpPath) {
  FiveTuple t;
  t.src_ip = cluster_.topology().rnic(RnicId{0}).ip;
  t.dst_ip = cluster_.topology().rnic(RnicId{12}).ip;
  t.src_port = 4242;
  const auto r = cluster_.int_telemetry().trace(RnicId{0}, RnicId{12}, t);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.hops.size(), r.path.links.size());
  EXPECT_EQ(r.path.links,
            cluster_.fabric().current_path(RnicId{0}, RnicId{12}, t).links);
}

TEST_F(ExtensionsTest, IntReportsPerHopQueues) {
  // Congest one downlink and check INT sees the queue exactly there.
  fabric::FlowSpec f;
  f.src = RnicId{0};
  f.dst = RnicId{12};
  f.tuple.src_ip = cluster_.topology().rnic(f.src).ip;
  f.tuple.dst_ip = cluster_.topology().rnic(f.dst).ip;
  f.tuple.src_port = 9;
  f.demand_Bps = gbps_to_Bps(90);
  cluster_.fabric().add_flow(f);
  fabric::FlowSpec g = f;
  g.src = RnicId{2};
  g.tuple.src_ip = cluster_.topology().rnic(g.src).ip;
  g.tuple.src_port = 10;
  cluster_.fabric().add_flow(g);
  cluster_.run_for(msec(10));

  const auto r = cluster_.int_telemetry().trace(RnicId{0}, RnicId{12}, f.tuple);
  ASSERT_TRUE(r.complete);
  const LinkId hot = cluster_.topology().rnic(RnicId{12}).downlink;
  bool saw_queue = false;
  for (const auto& hop : r.hops) {
    if (hop.link == hot) {
      EXPECT_GT(hop.queue_bytes, 0);
      EXPECT_GT(hop.queue_delay, 0);
      saw_queue = true;
    }
  }
  EXPECT_TRUE(saw_queue);
}

TEST_F(ExtensionsTest, IntHasNoRateLimitUnlikeTraceroute) {
  FiveTuple t;
  t.src_ip = cluster_.topology().rnic(RnicId{0}).ip;
  t.dst_ip = cluster_.topology().rnic(RnicId{12}).ip;
  t.src_port = 1;
  // Hammer both tracers at one instant.
  int traceroute_complete = 0, int_complete = 0;
  for (int i = 0; i < 300; ++i) {
    if (cluster_.traceroute()
            .trace(RnicId{0}, RnicId{12}, t, sec(1))
            .all_responded) {
      ++traceroute_complete;
    }
    if (cluster_.int_telemetry().trace(RnicId{0}, RnicId{12}, t).complete) {
      ++int_complete;
    }
  }
  EXPECT_LT(traceroute_complete, 300);  // switch CPU budget exhausted
  EXPECT_EQ(int_complete, 300);         // data plane never says no
}

TEST_F(ExtensionsTest, AgentWithIntAlwaysKnowsPaths) {
  core::RPingmeshConfig cfg;
  cfg.agent.use_int_telemetry = true;
  core::RPingmesh rpm(cluster_, cfg);
  std::size_t with_path = 0, total = 0;
  rpm.analyzer().set_record_tap([&](const core::ProbeRecord& r) {
    ++total;
    if (r.path_known) ++with_path;
  });
  rpm.start();
  cluster_.run_for(sec(12));
  EXPECT_GT(total, 500u);
  EXPECT_EQ(with_path, total) << "INT-traced paths are never rate-limited";
  rpm.stop();
}

class RootCauseTest : public ExtensionsTest {
 protected:
  RootCauseTest() : rpm_(cluster_), advisor_(cluster_), faults_(cluster_) {
    rpm_.start();
  }

  /// Runs warmup, snapshots counters, runs the faulted window, returns the
  /// advisor's top hint for the first problem of `cat`.
  std::vector<core::RootCauseHint> run_and_advise(
      core::ProblemCategory cat, const std::function<void()>& inject) {
    cluster_.run_for(sec(21));
    advisor_.snapshot_baseline();
    inject();
    cluster_.run_for(sec(41));
    const auto* rep = rpm_.analyzer().last_report();
    for (const auto& p : rep->problems) {
      if (p.category == cat) return advisor_.advise(p);
    }
    return {};
  }

  core::RPingmesh rpm_;
  core::RootCauseAdvisor advisor_;
  faults::FaultInjector faults_;
};

TEST_F(RootCauseTest, CorruptionHintedFromCrcCounters) {
  const auto hints = run_and_advise(
      core::ProblemCategory::kSwitchNetworkProblem, [this] {
        LinkId fabric_link;
        for (const topo::Link& l : cluster_.topology().links()) {
          if (l.from.is_switch() && l.to.is_switch()) {
            fabric_link = l.id;
            break;
          }
        }
        faults_.inject_corruption(fabric_link, 0.5);
      });
  ASSERT_FALSE(hints.empty());
  EXPECT_NE(hints.front().cause.find("corruption"), std::string::npos)
      << hints.front().cause;
  EXPECT_GT(hints.front().confidence, 0.5);
  EXPECT_FALSE(hints.front().evidence.empty());
}

TEST_F(RootCauseTest, FlappingHintedFromDownDrops) {
  const auto hints = run_and_advise(
      core::ProblemCategory::kSwitchNetworkProblem, [this] {
        LinkId fabric_link;
        std::size_t seen = 0;
        for (const topo::Link& l : cluster_.topology().links()) {
          if (l.from.is_switch() && l.to.is_switch() && seen++ == 3) {
            fabric_link = l.id;
            break;
          }
        }
        faults_.inject_switch_port_flapping(fabric_link, msec(400), msec(400));
      });
  ASSERT_FALSE(hints.empty());
  EXPECT_NE(hints.front().cause.find("flapping"), std::string::npos)
      << hints.front().cause;
}

TEST_F(RootCauseTest, DeadlockHintedFromLinkState) {
  const auto hints = run_and_advise(
      core::ProblemCategory::kSwitchNetworkProblem, [this] {
        LinkId fabric_link;
        std::size_t seen = 0;
        for (const topo::Link& l : cluster_.topology().links()) {
          if (l.from.is_switch() && l.to.is_switch() && seen++ == 5) {
            fabric_link = l.id;
            break;
          }
        }
        faults_.inject_pfc_deadlock(fabric_link);
      });
  ASSERT_FALSE(hints.empty());
  EXPECT_NE(hints.front().cause.find("deadlock"), std::string::npos)
      << hints.front().cause;
}

TEST_F(RootCauseTest, MisconfigHintedFromRnicCounters) {
  const auto hints =
      run_and_advise(core::ProblemCategory::kRnicProblem, [this] {
        faults_.inject_gid_index_missing(RnicId{6});
      });
  ASSERT_FALSE(hints.empty());
  EXPECT_NE(hints.front().cause.find("misconfiguration"), std::string::npos)
      << hints.front().cause;
}

TEST_F(RootCauseTest, RnicDownHinted) {
  const auto hints =
      run_and_advise(core::ProblemCategory::kRnicProblem, [this] {
        faults_.inject_rnic_down(RnicId{6});
      });
  ASSERT_FALSE(hints.empty());
  EXPECT_NE(hints.front().cause.find("RNIC down"), std::string::npos)
      << hints.front().cause;
}

TEST_F(RootCauseTest, HostDownHinted) {
  const auto hints =
      run_and_advise(core::ProblemCategory::kHostDown, [this] {
        faults_.inject_host_down(HostId{3});
      });
  ASSERT_FALSE(hints.empty());
  EXPECT_NE(hints.front().cause.find("host power"), std::string::npos);
}

TEST_F(RootCauseTest, CpuOverloadHinted) {
  const auto hints =
      run_and_advise(core::ProblemCategory::kHighProcessingDelay, [this] {
        faults_.inject_cpu_overload(HostId{1}, 0.97);
      });
  ASSERT_FALSE(hints.empty());
  EXPECT_NE(hints.front().cause.find("CPU overload"), std::string::npos);
}

TEST_F(RootCauseTest, HintsAreRankedAndDeduplicated) {
  const auto hints = run_and_advise(
      core::ProblemCategory::kSwitchNetworkProblem, [this] {
        LinkId fabric_link;
        for (const topo::Link& l : cluster_.topology().links()) {
          if (l.from.is_switch() && l.to.is_switch()) {
            fabric_link = l.id;
            break;
          }
        }
        faults_.inject_corruption(fabric_link, 0.5);
      });
  for (std::size_t i = 1; i < hints.size(); ++i) {
    EXPECT_GE(hints[i - 1].confidence, hints[i].confidence);
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(hints[i].cause, hints[j].cause);
    }
  }
}

TEST(RootCauseHintsJson, EscapesControlCharacters) {
  const std::string j = core::hints_json({{"c\t\r\x01", 0.5, "e\t\r\x01"}});
  EXPECT_EQ(j,
            "[{\"cause\":\"c\\t\\r\\u0001\",\"confidence\":0.500,"
            "\"evidence\":\"e\\t\\r\\u0001\"}]");
}

}  // namespace
}  // namespace rpm
