// Tests for the chaos harness: the acceptance campaign (control-plane
// blackouts layered over real faults must produce zero false switch
// localizations while the real fault is still found), deterministic
// byte-identical reports, and the plan/runner plumbing.
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "chaos/chaos.h"
#include "core/rpingmesh.h"
#include "faults/faults.h"
#include "host/cluster.h"
#include "topo/topology.h"

namespace rpm::chaos {
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

/// A deployment with 5 s analysis periods so a 160 s campaign yields enough
/// periods to score recovery.
struct Deployment {
  explicit Deployment(std::uint64_t seed = 7, bool sketch_on = false)
      : cluster(topo::build_clos(clos_cfg()),
                [seed] {
                  host::ClusterConfig c;
                  c.seed = seed;
                  return c;
                }()),
        rpm(cluster,
            [sketch_on] {
              core::RPingmeshConfig c;
              c.analyzer.period = sec(5);
              c.analyzer.sketch_mode = sketch_on ? core::SketchMode::kOn
                                                 : core::SketchMode::kOff;
              return c;
            }()),
        injector(cluster) {
    rpm.start();
  }
  host::Cluster cluster;
  core::RPingmesh rpm;
  faults::FaultInjector injector;

  [[nodiscard]] LinkId first_fabric_link() const {
    for (const topo::Link& l : cluster.topology().links()) {
      if (l.from.is_switch() && l.to.is_switch()) return l.id;
    }
    return LinkId{};
  }
};

/// The acceptance campaign from the issue: Controller crash + restart, an
/// Agent restart into the dead Controller, an Analyzer brownout, a host
/// failure that clears, and a corrupting fabric link that does not.
ChaosPlan acceptance_plan(std::uint64_t seed, LinkId fabric_link) {
  ChaosPlan plan;
  plan.seed = seed;
  plan.duration = sec(160);
  plan.controller_crash(sec(30))
      .agent_restart(sec(32), HostId{1})
      .controller_restart(sec(50))
      .analyzer_outage(sec(55), sec(73))
      .inject(sec(75), "host3-down", faults::FaultSpec::host_down(HostId{3}))
      .clear(sec(95), "host3-down")
      .inject(sec(100), "fabric-corruption",
              faults::FaultSpec::corruption(fabric_link, 0.5));
  return plan;
}

TEST(Chaos, AcceptanceCampaignSurvivesControlPlaneEvents) {
  Deployment d;
  ChaosRunner runner(d.cluster, d.rpm, d.injector);
  const ChaosReport rep = runner.run(acceptance_plan(7, d.first_fabric_link()));

  // Control-plane events never masquerade as network faults.
  EXPECT_EQ(rep.switch_false_positives, 0u);
  EXPECT_EQ(rep.outage_false_positives, 0u);
  EXPECT_EQ(rep.false_positives, 0u);
  EXPECT_EQ(rep.mislocalized, 0u);
  EXPECT_DOUBLE_EQ(rep.precision, 1.0);

  // The real faults are still found through the noise.
  ASSERT_EQ(rep.ground_truths.size(), 3u);
  EXPECT_EQ(rep.ground_truths[0].label, "agent-restart/h1");
  EXPECT_FALSE(rep.ground_truths[0].scored);  // QPN reset: noise by design
  EXPECT_EQ(rep.ground_truths[1].label, "host3-down");
  EXPECT_TRUE(rep.ground_truths[1].matched);
  EXPECT_EQ(rep.ground_truths[2].label, "fabric-corruption");
  EXPECT_TRUE(rep.ground_truths[2].matched);
  EXPECT_EQ(rep.ground_truths[2].cleared_at, kNoTime);  // active at the end
  EXPECT_DOUBLE_EQ(rep.recall, 1.0);

  // The stale-QPN burst after the Agent restarted into the dead Controller
  // surfaced as noise, not as a verdict.
  EXPECT_GT(rep.noise_problems, 0u);

  // Bounded recovery: after every control-plane event the Analyzer is back
  // to clean full-SLA periods within a handful of 5 s periods.
  ASSERT_EQ(rep.recoveries.size(), 4u);
  for (const ChaosReport::Recovery& r : rep.recoveries) {
    EXPECT_NE(r.periods_to_recover, -1) << r.event << " never recovered";
    EXPECT_LE(r.periods_to_recover, 8) << r.event;
  }

  // Lease machinery fired on every host (the 20 s blackout outlives the
  // 15 s lease) and every upload was acked once the Analyzer came back: the
  // campaign ends on an upload tick, so only the batches sent at that very
  // instant are still in flight.
  // Host 1 sat out: its Agent process restarted mid-blackout, so it came
  // back through a *fresh* registration, not a lease-expiry re-registration.
  for (std::size_t h = 0; h < d.cluster.num_hosts(); ++h) {
    const core::Agent& agent = d.rpm.agent(HostId{static_cast<std::uint32_t>(h)});
    if (h != 1) {
      EXPECT_GT(agent.lease_expiries(), 0u) << "host " << h;
      EXPECT_GT(agent.reregistrations(), 0u) << "host " << h;
    }
    EXPECT_EQ(agent.upload_wait(), 0) << "host " << h;
  }
  EXPECT_EQ(d.rpm.controller().num_registered_agents(), d.cluster.num_hosts());
}

TEST(Chaos, NoPhantomVerdictsAcrossSeeds) {
  // The zero-phantom property must hold for any RNG trajectory, not one
  // lucky seed: across seeds, every unmatched claim the campaign provokes
  // happens while a real injected fault is in flight (mislocalization of a
  // real event), never out of thin air during a control-plane blackout.
  for (const std::uint64_t seed : {std::uint64_t{13}, std::uint64_t{29}}) {
    Deployment d(seed);
    ChaosRunner runner(d.cluster, d.rpm, d.injector);
    const ChaosReport rep =
        runner.run(acceptance_plan(seed, d.first_fabric_link()));
    EXPECT_EQ(rep.false_positives, 0u) << "seed " << seed;
    EXPECT_EQ(rep.switch_false_positives, 0u) << "seed " << seed;
    EXPECT_EQ(rep.outage_false_positives, 0u) << "seed " << seed;
    EXPECT_DOUBLE_EQ(rep.recall, 1.0) << "seed " << seed;
  }
}

TEST(Chaos, SameSeedYieldsByteIdenticalReports) {
  // Two fresh deployments, same seed, same plan: the JSON scorecard must be
  // byte-for-byte identical (CI enforces the same property on the example
  // binary).
  std::string first;
  for (int run = 0; run < 2; ++run) {
    Deployment d(11);
    ChaosRunner runner(d.cluster, d.rpm, d.injector);
    const std::string json =
        runner.run(acceptance_plan(11, d.first_fabric_link())).to_json();
    if (run == 0) {
      first = json;
    } else {
      EXPECT_EQ(json, first);
    }
  }
  EXPECT_FALSE(first.empty());
}

TEST(Chaos, SketchModeMatchesRawVerdictsOnChaosGroundTruth) {
  // Sketch-driven analysis must not trade correctness for upload volume:
  // on the acceptance campaign's ground truth, sketch_mode=on reaches the
  // same precision/recall and the same per-fault matched flags as the raw
  // pipeline (every timeout still rides the wire raw, so detection and
  // localization see the same evidence).
  const auto run_campaign = [](bool sketch_on) {
    Deployment d(7, sketch_on);
    ChaosRunner runner(d.cluster, d.rpm, d.injector);
    return runner.run(acceptance_plan(7, d.first_fabric_link()));
  };
  const ChaosReport off = run_campaign(false);
  const ChaosReport on = run_campaign(true);

  EXPECT_DOUBLE_EQ(on.precision, off.precision);
  EXPECT_DOUBLE_EQ(on.recall, off.recall);
  EXPECT_EQ(on.false_positives, off.false_positives);
  EXPECT_EQ(on.switch_false_positives, off.switch_false_positives);
  EXPECT_EQ(on.outage_false_positives, off.outage_false_positives);
  EXPECT_EQ(on.mislocalized, off.mislocalized);
  ASSERT_EQ(on.ground_truths.size(), off.ground_truths.size());
  for (std::size_t i = 0; i < on.ground_truths.size(); ++i) {
    EXPECT_EQ(on.ground_truths[i].label, off.ground_truths[i].label);
    EXPECT_EQ(on.ground_truths[i].matched, off.ground_truths[i].matched)
        << off.ground_truths[i].label;
  }
}

TEST(Chaos, SketchModeReportBytesIdenticalAcrossRuns) {
  // sketch_mode=on must be deterministically reproducible: same seed =>
  // byte-identical ChaosReport JSON across repeated runs (the fixed-boundary
  // sketches merge bucket-wise — no order sensitivity).
  std::string first;
  for (int run = 0; run < 2; ++run) {
    Deployment d(11, /*sketch_on=*/true);
    ChaosRunner runner(d.cluster, d.rpm, d.injector);
    const std::string json =
        runner.run(acceptance_plan(11, d.first_fabric_link())).to_json();
    if (run == 0) {
      first = json;
    } else {
      EXPECT_EQ(json, first);
    }
  }
  EXPECT_FALSE(first.empty());
}

TEST(Chaos, StepNamesAndPlanValidation) {
  EXPECT_STREQ(chaos_step_name(ChaosStep::Kind::kControllerCrash),
               "controller-crash");
  EXPECT_STREQ(chaos_step_name(ChaosStep::Kind::kAnalyzerOutageEnd),
               "analyzer-outage-end");
  ChaosPlan plan;
  EXPECT_THROW(plan.analyzer_outage(sec(10), sec(10)), std::invalid_argument);
  EXPECT_THROW(plan.inject(sec(1), "x", faults::FaultSpec{}),
               std::invalid_argument);
}

TEST(Chaos, ReportEscapesControlCharactersInLabels) {
  // Plan labels arrive from corpus and replay files; a control character in
  // one must come out escaped, or the report is not JSON.
  ChaosReport rep;
  ChaosReport::GroundTruthScore g;
  g.label = "l\t\r\x01";
  g.kind = "k\t\r\x01";
  rep.ground_truths.push_back(g);
  ChaosReport::Recovery r;
  r.event = "e\t\r\x01";
  rep.recoveries.push_back(r);
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"label\": \"l\\t\\r\\u0001\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"k\\t\\r\\u0001\""), std::string::npos);
  EXPECT_NE(json.find("\"event\": \"e\\t\\r\\u0001\""), std::string::npos);
  for (const char c : json) {
    if (c == '\n') continue;  // the report's own line breaks
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << json;
  }
}

TEST(Chaos, ClearOfUnknownLabelThrows) {
  Deployment d;
  ChaosRunner runner(d.cluster, d.rpm, d.injector);
  ChaosPlan plan;
  plan.duration = sec(10);
  plan.clear(sec(1), "never-injected");
  EXPECT_THROW(runner.run(plan), std::logic_error);
}

TEST(Chaos, EmptyPlanOnHealthyClusterIsClean) {
  Deployment d;
  ChaosRunner runner(d.cluster, d.rpm, d.injector);
  ChaosPlan plan;
  plan.duration = sec(30);
  const ChaosReport rep = runner.run(plan);
  EXPECT_EQ(rep.false_positives, 0u);
  EXPECT_EQ(rep.problems_total, rep.noise_problems + rep.unscored_problems);
  EXPECT_DOUBLE_EQ(rep.precision, 1.0);
  EXPECT_DOUBLE_EQ(rep.recall, 1.0);  // nothing injected, nothing missed
  EXPECT_GT(rep.periods, 0u);
}

}  // namespace
}  // namespace rpm::chaos
