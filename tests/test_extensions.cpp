// Tests for the two §7.4/§7.5 extensions: INT-mode path tracing (the
// fabric's current path, with no switch CPU in the loop) and the root-cause
// advisor.
#include <gtest/gtest.h>

#include "core/rootcause.h"
#include "core/rpingmesh.h"
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
    if (cluster_.fabric().current_path(RnicId{0}, RnicId{12}, t).complete) {
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
  std::size_t with_path = 0, total = 0, current = 0;
  rpm.analyzer().set_record_tap([&](const core::ProbeRecord& r) {
    ++total;
    if (r.path_known) ++with_path;
    // No link changes state here, so a cached path is the current one.
    if (r.fwd_path.links ==
        cluster_.fabric().current_path(r.prober, r.target, r.tuple).links) {
      ++current;
    }
  });
  rpm.start();
  cluster_.run_for(sec(12));
  EXPECT_GT(total, 500u);
  EXPECT_EQ(with_path, total) << "INT-traced paths are never rate-limited";
  EXPECT_EQ(current, total);
  rpm.stop();
}

/// Counts update() calls. The flow's zero demand clamps whatever it returns.
class CountingCc : public fabric::RateController {
 public:
  double reset(std::uint32_t, double, double) override { return 0.0; }
  double update(std::uint32_t, const fabric::CcFeedback&, double) override {
    ++calls;
    return 1.0;
  }
  [[nodiscard]] std::string name() const override { return "counting"; }
  std::uint64_t calls = 0;
};

TEST_F(ExtensionsTest, ReadsNeverWakeAQuietPlane) {
  // A zero-demand CC flow on a drained fabric: after its first step the
  // plane is quiet and defers CC calls until a fluid input changes. The
  // INT-mode path read and the root-cause advisor only read link state, so
  // they must not wake it (a wake replays the deferred calls).
  CountingCc cc;
  fabric::FlowSpec f;
  f.src = RnicId{0};
  f.dst = RnicId{12};
  f.tuple.src_ip = cluster_.topology().rnic(f.src).ip;
  f.tuple.dst_ip = cluster_.topology().rnic(f.dst).ip;
  f.tuple.src_port = 9;
  f.controller = &cc;
  const FlowId id = cluster_.fabric().add_flow(f);
  cluster_.run_for(msec(10));
  ASSERT_EQ(cc.calls, 1u) << "only the first step runs in full";

  core::RootCauseAdvisor advisor(cluster_);
  advisor.snapshot_baseline();
  core::Problem p;
  p.category = core::ProblemCategory::kSwitchNetworkProblem;
  const routing::LinkList& links = cluster_.fabric().flow_path(id).links;
  p.suspect_links.assign(links.begin(), links.end());
  EXPECT_TRUE(advisor.advise(p).empty());
  EXPECT_TRUE(cluster_.fabric().current_path(f.src, f.dst, f.tuple).complete);
  EXPECT_EQ(cc.calls, 1u) << "a read woke the plane";

  cluster_.fabric().set_flow_demand(id, 0.0);  // a write does wake it
  EXPECT_GT(cc.calls, 1u);
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
        faults_.inject(faults::FaultSpec::corruption(fabric_link, 0.5));
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
        faults_.inject(faults::FaultSpec::switch_port_flapping(
            fabric_link, msec(400), msec(400)));
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
        faults_.inject(faults::FaultSpec::pfc_deadlock(fabric_link));
      });
  ASSERT_FALSE(hints.empty());
  EXPECT_NE(hints.front().cause.find("deadlock"), std::string::npos)
      << hints.front().cause;
}

TEST_F(RootCauseTest, MisconfigHintedFromRnicCounters) {
  const auto hints =
      run_and_advise(core::ProblemCategory::kRnicProblem, [this] {
        faults_.inject(faults::FaultSpec::gid_index_missing(RnicId{6}));
      });
  ASSERT_FALSE(hints.empty());
  EXPECT_NE(hints.front().cause.find("misconfiguration"), std::string::npos)
      << hints.front().cause;
}

TEST_F(RootCauseTest, RnicDownHinted) {
  const auto hints =
      run_and_advise(core::ProblemCategory::kRnicProblem, [this] {
        faults_.inject(faults::FaultSpec::rnic_down(RnicId{6}));
      });
  ASSERT_FALSE(hints.empty());
  EXPECT_NE(hints.front().cause.find("RNIC down"), std::string::npos)
      << hints.front().cause;
}

TEST_F(RootCauseTest, HostDownHinted) {
  const auto hints =
      run_and_advise(core::ProblemCategory::kHostDown, [this] {
        faults_.inject(faults::FaultSpec::host_down(HostId{3}));
      });
  ASSERT_FALSE(hints.empty());
  EXPECT_NE(hints.front().cause.find("host power"), std::string::npos);
}

TEST_F(RootCauseTest, CpuOverloadHinted) {
  const auto hints =
      run_and_advise(core::ProblemCategory::kHighProcessingDelay, [this] {
        faults_.inject(faults::FaultSpec::cpu_overload(HostId{1}, 0.97));
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
        faults_.inject(faults::FaultSpec::corruption(fabric_link, 0.5));
      });
  for (std::size_t i = 1; i < hints.size(); ++i) {
    EXPECT_GE(hints[i - 1].confidence, hints[i].confidence);
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(hints[i].cause, hints[j].cause);
    }
  }
}

}  // namespace
}  // namespace rpm
