// Tests for the property-based chaos fuzzing stack: the FaultSpec JSON
// codec, CampaignGen determinism + validity envelope (every generated
// inject applies to an injector), the
// ChaosRunner same-`at` tie-break, the invariant oracles, ddmin shrinking
// (a deliberately broken oracle must reduce a ~20-step generated plan to a
// minimal counterexample), the run_fuzz loop's corpus artifacts, replay of
// the checked-in tests/chaos_corpus/, and the journal's CRC fallback.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/chaos.h"
#include "chaos/fuzz.h"
#include "chaos/gen.h"
#include "chaos/oracle.h"
#include "chaos/plan_io.h"
#include "chaos/shrink.h"
#include "common/codec.h"
#include "common/json.h"
#include "faults/catalog.h"
#include "faults/faults.h"
#include "host/cluster.h"
#include "topo/topology.h"

namespace rpm::chaos {
namespace {

topo::ClosConfig small_clos() {
  return DeploymentSpec{}.clos();  // the fuzzer's default 8-host fabric
}

LinkId first_fabric_link(const topo::Topology& topo) {
  for (const topo::Link& l : topo.links()) {
    if (l.from.is_switch() && l.to.is_switch()) return l.id;
  }
  return LinkId{};
}

// ---- FaultSpec JSON ----

TEST(FaultSpecJson, EveryConstructorRoundTrips) {
  const std::vector<faults::FaultSpec> specs = {
      faults::FaultSpec::rnic_flapping(RnicId{3}, msec(200), msec(800)),
      faults::FaultSpec::switch_port_flapping(LinkId{5}, msec(100), msec(400)),
      faults::FaultSpec::corruption(LinkId{7}, 0.25),
      faults::FaultSpec::rnic_down(RnicId{2}),
      faults::FaultSpec::host_down(HostId{4}),
      faults::FaultSpec::pfc_deadlock(LinkId{9}),
      faults::FaultSpec::route_missing(RnicId{1}),
      faults::FaultSpec::gid_index_missing(RnicId{6}),
      faults::FaultSpec::acl_error(SwitchId{8}),
      faults::FaultSpec::acl_error(SwitchId{8}, IpAddr{0x0a000001},
                                   IpAddr{0x0a000102}),
      faults::FaultSpec::pfc_misconfigured(LinkId{3}),
      faults::FaultSpec::cpu_overload(HostId{2}, 0.95),
      faults::FaultSpec::pcie_downgrade(RnicId{4}, 0.5),
      faults::FaultSpec::agent_cpu_occupation(HostId{1}),
      faults::FaultSpec::control_plane_degradation(msec(5), 0.1),
      faults::FaultSpec::qpn_reset(HostId{0}),
  };
  for (const faults::FaultSpec& s : specs) {
    ASSERT_TRUE(s.valid());
    const std::string text = faults::spec_to_value(s).dump();
    const faults::FaultSpec back =
        faults::spec_from_value(json::Value::parse(text));
    EXPECT_EQ(back.kind, s.kind) << text;
    EXPECT_EQ(back.rnic, s.rnic) << text;
    EXPECT_EQ(back.host, s.host) << text;
    EXPECT_EQ(back.link, s.link) << text;
    EXPECT_EQ(back.sw, s.sw) << text;
    EXPECT_EQ(back.src_ip, s.src_ip) << text;
    EXPECT_EQ(back.dst_ip, s.dst_ip) << text;
    EXPECT_EQ(back.down_time, s.down_time) << text;
    EXPECT_EQ(back.up_time, s.up_time) << text;
    EXPECT_EQ(back.extra_latency, s.extra_latency) << text;
    EXPECT_DOUBLE_EQ(back.prob, s.prob) << text;
    EXPECT_DOUBLE_EQ(back.factor, s.factor) << text;
    EXPECT_DOUBLE_EQ(back.load, s.load) << text;
    EXPECT_DOUBLE_EQ(back.extra_loss, s.extra_loss) << text;
  }
}

TEST(FaultSpecJson, AclAddressesAreWrittenOnlyWhenSet) {
  EXPECT_EQ(faults::spec_to_value(faults::FaultSpec::acl_error(SwitchId{8}))
                .dump(),
            R"({"ctor":"acl-error","switch":8})");
  EXPECT_EQ(faults::spec_to_value(
                faults::FaultSpec::acl_error(SwitchId{8}, IpAddr{}, IpAddr{7}))
                .dump(),
            R"({"ctor":"acl-error","switch":8,"dst_ip":7})");
}

TEST(FaultSpecJson, UnknownNamesAndWideIdsAreRejected) {
  EXPECT_THROW(faults::spec_from_value(
                   json::Value::parse(R"({"ctor": "no-such-fault"})")),
               std::runtime_error);
  EXPECT_THROW(faults::spec_from_value(json::Value::parse(R"({"host": 1})")),
               std::runtime_error);
  // An id that does not fit 32 bits is rejected, not truncated.
  EXPECT_THROW(faults::spec_from_value(json::Value::parse(
                   R"({"ctor": "host-down", "host": 4294967298})")),
               std::runtime_error);
  EXPECT_THROW(faults::spec_from_value(json::Value::parse(
                   R"({"ctor": "host-down", "host": -1})")),
               std::runtime_error);
  // A plan passes the spec's error on.
  EXPECT_THROW(plan_from_json(R"({"steps": [{"kind": "inject", "at_ns": 1,
      "label": "x", "spec": {"ctor": "no-such-fault"}}]})"),
               std::runtime_error);
}

// ---- ChaosPlan JSON ----

TEST(PlanJson, AllStepKindsRoundTripByteIdentically) {
  ChaosPlan plan;
  plan.seed = 99;
  plan.duration = sec(150);
  plan.controller_crash(sec(20))
      .controller_restart(sec(35))
      .analyzer_outage(sec(40), sec(55))
      .agent_restart(sec(60), HostId{2})
      .pod_analyzer_crash(sec(65), 1)
      .pod_analyzer_restart(sec(75), 1)
      .inject(sec(80), "h3", faults::FaultSpec::host_down(HostId{3}))
      .clear(sec(100), "h3")
      .inject(sec(105), "corr", faults::FaultSpec::corruption(LinkId{4}, 0.5));
  const std::string text = plan_to_json(plan);
  EXPECT_EQ(plan_to_json(plan_from_json(text)), text);
}

TEST(PlanJson, MalformedInputThrows) {
  EXPECT_THROW(plan_from_json("not json"), std::runtime_error);
  EXPECT_THROW(plan_from_json("[1, 2]"), std::runtime_error);
  // kInject without its spec.
  EXPECT_THROW(
      plan_from_json(R"({"steps": [{"kind": "inject", "at_ns": 1}]})"),
      std::runtime_error);
  // Unknown step name.
  EXPECT_THROW(
      plan_from_json(R"({"steps": [{"kind": "meteor-strike", "at_ns": 1}]})"),
      std::invalid_argument);
}

TEST(PlanJson, StepIdsOutsideThirtyTwoBitsAreRejected) {
  // A restart's host and a pod step's pod are rejected, not truncated:
  // 4294967298 would otherwise restart host 2.
  for (const char* kind :
       {"agent-restart", "pod-analyzer-crash", "pod-analyzer-restart"}) {
    const std::string key =
        std::string(kind) == "agent-restart" ? "host" : "pod";
    const auto step = [&](const char* id) {
      return std::string(R"({"steps": [{"kind": ")") + kind +
             R"(", "at_ns": 1, ")" + key + "\": " + id + "}]}";
    };
    EXPECT_THROW(plan_from_json(step("4294967298")), std::runtime_error)
        << kind;
    EXPECT_THROW(plan_from_json(step("-1")), std::runtime_error) << kind;
    const ChaosPlan ok = plan_from_json(step("4294967295"));
    ASSERT_EQ(ok.steps.size(), 1u) << kind;
    EXPECT_EQ(key == "host" ? ok.steps[0].host.value : ok.steps[0].pod,
              4294967295u)
        << kind;
  }
}

TEST(PlanJson, GeneratedPlansAndTheCorpusRoundTrip) {
  const topo::Topology topo = topo::build_clos(small_clos());
  for (const std::size_t pods : {std::size_t{0}, std::size_t{3}}) {
    CampaignGenConfig cfg;
    cfg.pods = pods;
    const CampaignGen gen(cfg);
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      const std::string text = plan_to_json(gen.generate(seed, topo));
      EXPECT_EQ(plan_to_json(plan_from_json(text)), text)
          << "pods " << pods << " seed " << seed;
    }
  }
  for (const auto& e :
       std::filesystem::directory_iterator(RPM_CHAOS_CORPUS_DIR)) {
    if (e.path().extension() != ".json") continue;
    std::ifstream in(e.path());
    std::stringstream buf;
    buf << in.rdbuf();
    const json::Value artifact = json::Value::parse(buf.str());
    const json::Value* plan = artifact.find("plan");
    ASSERT_NE(plan, nullptr) << e.path().filename();
    // An artifact may omit defaulted fields, so compare the decoded plan's
    // own encoding with its re-decoded one.
    const std::string text = plan_to_json(plan_from_value(*plan));
    EXPECT_EQ(plan_to_json(plan_from_json(text)), text) << e.path().filename();
  }
}

// ---- CampaignGen ----

TEST(CampaignGen, SameSeedYieldsByteIdenticalPlans) {
  const topo::Topology topo = topo::build_clos(small_clos());
  const CampaignGen gen;
  std::set<std::string> distinct;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::string a = plan_to_json(gen.generate(seed, topo));
    const std::string b = plan_to_json(gen.generate(seed, topo));
    EXPECT_EQ(a, b) << "seed " << seed;
    distinct.insert(a);
  }
  EXPECT_GE(distinct.size(), 2u) << "seeds produce indistinguishable plans";
}

TEST(CampaignGen, PlansStayInsideTheValidityEnvelope) {
  const topo::Topology topo = topo::build_clos(small_clos());
  CampaignGenConfig cfg;  // flat: pods = 0 disables pod-bounce
  const CampaignGen gen(cfg);
  const TimeNs lo = cfg.period;
  const TimeNs hi = cfg.duration - sec(35);  // the settle tail
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const ChaosPlan plan = gen.generate(seed, topo);
    EXPECT_LE(plan.steps.size(),
              static_cast<std::size_t>(2 * cfg.max_events));
    std::set<std::string> injected;
    for (const ChaosStep& s : plan.steps) {
      EXPECT_GE(s.at, lo) << "seed " << seed;
      EXPECT_LE(s.at, hi) << "seed " << seed;
      EXPECT_EQ(s.at % sec(1), 0) << "seed " << seed;  // the time grid
      EXPECT_NE(s.kind, ChaosStep::Kind::kPodAnalyzerCrash);
      EXPECT_NE(s.kind, ChaosStep::Kind::kPodAnalyzerRestart);
      if (s.kind == ChaosStep::Kind::kInject) {
        EXPECT_TRUE(s.spec.valid());
        EXPECT_FALSE(s.label.empty());
        injected.insert(s.label);
      } else if (s.kind == ChaosStep::Kind::kClear) {
        // Insertion order puts every inject before its clear.
        EXPECT_TRUE(injected.contains(s.clear_ref))
            << "seed " << seed << ": clear of '" << s.clear_ref
            << "' precedes its inject";
      }
    }
  }
}

TEST(CampaignGen, EveryGeneratedInjectAppliesToAnInjector) {
  const topo::Topology topo = topo::build_clos(small_clos());
  host::Cluster cluster(topo::build_clos(small_clos()), host::ClusterConfig{});
  faults::FaultInjector injector(cluster);
  std::set<faults::FaultKind> drawn;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const ChaosStep& s : CampaignGen{}.generate(seed, topo).steps) {
      if (s.kind != ChaosStep::Kind::kInject) continue;
      // Labels carry the spec's JSON name.
      EXPECT_TRUE(s.label.ends_with(std::string("-") +
                                    faults::spec_name(s.spec.kind)))
          << s.label;
      const int h = injector.inject(s.spec);
      EXPECT_EQ(injector.record(h).kind, s.spec.kind) << s.label;
      drawn.insert(s.spec.kind);
    }
  }
  EXPECT_EQ(drawn.size(), 6u);  // every kind on the generator's menu
  injector.clear_all();
}

TEST(CampaignGen, FederatedConfigEmitsPodBouncesWithValidPodIds) {
  const topo::Topology topo = topo::build_clos(small_clos());
  CampaignGenConfig cfg;
  cfg.pods = 3;
  const CampaignGen gen(cfg);
  bool saw_pod_bounce = false;
  for (std::uint64_t seed = 1; seed <= 30 && !saw_pod_bounce; ++seed) {
    for (const ChaosStep& s : gen.generate(seed, topo).steps) {
      if (s.kind == ChaosStep::Kind::kPodAnalyzerCrash ||
          s.kind == ChaosStep::Kind::kPodAnalyzerRestart) {
        saw_pod_bounce = true;
        EXPECT_LT(s.pod, cfg.pods);
      }
    }
  }
  EXPECT_TRUE(saw_pod_bounce);
}

// ---- ChaosRunner tie-break (same-`at` steps) ----

TEST(ChaosRunnerTieBreak, SameTimestampStepsExecuteInInsertionOrder) {
  // inject and clear of the SAME label at the SAME tick: only the stable
  // insertion-order tie-break makes this legal (clear-before-inject would
  // target a fault that does not exist yet). Generated plans collide on the
  // snap grid all the time, so this must hold, deterministically.
  DeploymentSpec spec;
  const topo::Topology topo = topo::build_clos(spec.clos());
  ChaosPlan plan;
  plan.duration = sec(40);
  plan.controller_crash(sec(10)).controller_restart(sec(10));
  plan.agent_restart(sec(15), HostId{1});
  plan.agent_restart(sec(15), HostId{2});
  plan.inject(sec(20), "corr",
              faults::FaultSpec::corruption(first_fabric_link(topo), 0.5));
  plan.clear(sec(20), "corr");

  const CampaignResult first = run_campaign(spec, plan, OracleConfig{});
  // Agent restarts record their own qpn-reset ground truths; find the
  // injected fault's entry by label.
  const auto truths = first.report.ground_truths;
  const auto it = std::find_if(
      truths.begin(), truths.end(),
      [](const ChaosReport::GroundTruthScore& g) { return g.label == "corr"; });
  ASSERT_NE(it, truths.end());
  EXPECT_EQ(it->injected_at, sec(20));
  EXPECT_EQ(it->cleared_at, sec(20));

  const CampaignResult second = run_campaign(spec, plan, OracleConfig{});
  EXPECT_EQ(first.report.to_json(), second.report.to_json());
}

// ---- invariant oracles ----

TEST(Oracle, FlagsEachViolationClassAndPassesCleanRuns) {
  DeploymentSpec spec;
  host::ClusterConfig ccfg;
  ccfg.seed = spec.cluster_seed;
  host::Cluster cluster(topo::build_clos(spec.clos()), ccfg);
  core::RPingmeshConfig rcfg;
  rcfg.analyzer.period = spec.period;
  core::RPingmesh rpm(cluster, rcfg);
  faults::FaultInjector injector(cluster);
  rpm.start();
  ChaosPlan quiet;
  quiet.duration = sec(25);
  const ChaosReport rep = ChaosRunner(cluster, rpm, injector).run(quiet);

  OracleConfig cfg;
  cfg.period = spec.period;
  EXPECT_TRUE(check_invariants(rep, rpm, cfg).ok());

  const auto has = [](const OracleReport& r, const std::string& name) {
    return std::any_of(
        r.violations.begin(), r.violations.end(),
        [&](const InvariantViolation& v) { return v.oracle == name; });
  };

  ChaosReport bad = rep;
  bad.false_positives = 1;
  bad.switch_false_positives = 1;
  bad.outage_false_positives = 1;
  const OracleReport judged = check_invariants(bad, rpm, cfg);
  EXPECT_TRUE(has(judged, "phantom-verdict"));
  EXPECT_TRUE(has(judged, "phantom-switch"));
  EXPECT_TRUE(has(judged, "outage-false-positive"));

  // Recovery: enforced only when the campaign leaves room to observe the
  // budget; -1 ("never recovered") inside the observable window violates.
  ChaosReport slow = rep;
  cfg.max_recovery_periods = 2;  // deadline = at + 3 periods = at + 15 s
  slow.recoveries.push_back({"controller-restart", sec(5), -1});
  EXPECT_TRUE(has(check_invariants(slow, rpm, cfg), "recovery"));
  slow.recoveries[0] = {"controller-restart", sec(20), -1};  // deadline 35 s
  EXPECT_FALSE(has(check_invariants(slow, rpm, cfg), "recovery"))
      << "an event with no room to observe recovery must not be scored";
}

// ---- Shrinker ----

TEST(Shrinker, PropertyMustHoldOnEntry) {
  ChaosPlan plan;
  plan.controller_crash(sec(10)).controller_restart(sec(20));
  EXPECT_THROW((void)Shrinker().shrink(plan, [](const ChaosPlan&) {
    return false;
  }),
               std::invalid_argument);
  EXPECT_THROW((void)Shrinker().shrink(plan, PropertyFn{}),
               std::invalid_argument);
}

TEST(Shrinker, BrokenOracleReducesTwentyStepPlanToMinimalCounterexample) {
  // The acceptance scenario: a deliberately broken oracle (here: "any plan
  // containing a controller crash plus this specific fault label fails")
  // must shrink a ~20-step generated campaign to <= 5 steps while the
  // violation keeps reproducing.
  const topo::Topology topo = topo::build_clos(small_clos());
  CampaignGenConfig cfg;
  cfg.duration = sec(600);
  cfg.min_events = 12;
  cfg.max_events = 12;
  cfg.pods = 2;
  const CampaignGen gen(cfg);

  ChaosPlan plan;
  std::string needed_label;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const ChaosPlan candidate = gen.generate(seed, topo);
    if (candidate.steps.size() < 18) continue;
    bool crash = false;
    std::string label;
    for (const ChaosStep& s : candidate.steps) {
      if (s.kind == ChaosStep::Kind::kControllerCrash) crash = true;
      if (s.kind == ChaosStep::Kind::kInject && label.empty()) {
        label = s.label;
      }
    }
    if (crash && !label.empty()) {
      plan = candidate;
      needed_label = label;
      break;
    }
  }
  ASSERT_GE(plan.steps.size(), 18u) << "no dense-enough generated plan found";

  const PropertyFn broken_oracle = [&](const ChaosPlan& candidate) {
    bool crash = false;
    bool fault = false;
    for (const ChaosStep& s : candidate.steps) {
      if (s.kind == ChaosStep::Kind::kControllerCrash) crash = true;
      if (s.kind == ChaosStep::Kind::kInject && s.label == needed_label) {
        fault = true;
      }
    }
    return crash && fault;
  };

  const ShrinkResult res = Shrinker().shrink(plan, broken_oracle);
  EXPECT_GE(res.steps_before, 18u);
  EXPECT_LE(res.steps_after, 5u);  // crash(+restart) + inject(+clear)
  EXPECT_TRUE(broken_oracle(res.plan));
  EXPECT_LE(res.trials, ShrinkConfig{}.max_trials);
  // The duration-trim mutation applies (the property is time-independent).
  EXPECT_LT(res.plan.duration, plan.duration);
}

// ---- run_fuzz: broken oracle => shrunk corpus artifact ----

TEST(Fuzz, BrokenRecoveryBudgetShrinksAndWritesReplayableArtifact) {
  // With max_recovery_periods = 0 every control-plane event violates the
  // recovery oracle, so the fuzz loop must flag the seed, ddmin the plan
  // down (re-running real campaigns), and land a {deployment, plan}
  // artifact that replays to the same violation.
  const std::string dir = ::testing::TempDir() + "fuzz_corpus";
  std::filesystem::create_directories(dir);

  FuzzConfig cfg;
  cfg.num_seeds = 1;
  cfg.base_seed = 1;
  cfg.alternate_pods = 0;
  cfg.check_determinism = false;  // covered by CI's byte-diff; save the time
  cfg.gen.duration = sec(80);
  cfg.gen.min_events = 3;
  cfg.gen.max_events = 5;
  cfg.oracle.max_recovery_periods = 0;  // deliberately broken budget
  cfg.shrink_cfg.max_trials = 32;
  cfg.corpus_dir = dir;

  // Pick the first seed whose generated plan contains a control-plane event
  // (the broken budget only fires on recovery entries).
  const topo::Topology topo = topo::build_clos(cfg.deployment.clos());
  for (; cfg.base_seed < 64; ++cfg.base_seed) {
    CampaignGenConfig gcfg = cfg.gen;
    gcfg.pods = cfg.deployment.pods;
    bool control_plane = false;
    for (const ChaosStep& s :
         CampaignGen(gcfg).generate(cfg.base_seed, topo).steps) {
      control_plane = s.kind != ChaosStep::Kind::kInject &&
                      s.kind != ChaosStep::Kind::kClear;
      if (control_plane) break;
    }
    if (control_plane) break;
  }
  ASSERT_LT(cfg.base_seed, 64u);

  const FuzzReport rep = run_fuzz(cfg);
  EXPECT_EQ(rep.failures, 1);
  ASSERT_EQ(rep.seeds.size(), 1u);
  const FuzzReport::SeedResult& sr = rep.seeds[0];
  ASSERT_FALSE(sr.violations.empty());
  EXPECT_EQ(sr.violations[0].oracle, "recovery");
  ASSERT_FALSE(sr.minimal_plan_json.empty());
  EXPECT_GT(sr.shrink_trials, 0u);
  const ChaosPlan minimal = plan_from_json(sr.minimal_plan_json);
  EXPECT_LE(minimal.steps.size(), 5u);
  EXPECT_LT(minimal.steps.size(), sr.steps);

  const std::string path =
      dir + "/seed" + std::to_string(sr.seed) + ".json";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const CampaignResult replay = replay_artifact(buf.str(), cfg.oracle);
  ASSERT_FALSE(replay.oracle.violations.empty());
  EXPECT_EQ(replay.oracle.violations[0].oracle, "recovery");

  // The report itself is parseable, deterministic JSON.
  EXPECT_EQ(json::Value::parse(rep.to_json()).dump(2) + "\n", rep.to_json());
}

TEST(Fuzz, DeploymentSpecIgnoresUnknownKeys) {
  // Artifacts written by older builds may carry deployment keys this build
  // no longer reads (a retired ingest thread count, for one); they must
  // still load, with those keys ignored.
  const DeploymentSpec spec = DeploymentSpec::from_value(json::Value::parse(
      R"({"cluster_seed": 9, "pods": 2, "retired_knob": 4})"));
  EXPECT_EQ(spec.cluster_seed, 9u);
  EXPECT_EQ(spec.pods, 2u);
  EXPECT_EQ(spec.to_value().find("retired_knob"), nullptr);
}

TEST(Fuzz, DeploymentSpecRejectsOutOfRangeFields) {
  // A negative or zero dimension must be a load error naming the key, not a
  // value that wraps to ~2^32 hosts per ToR and hangs the replay.
  const auto rejects = [](const std::string& text, const std::string& key) {
    try {
      (void)DeploymentSpec::from_value(json::Value::parse(text));
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << text << ": " << e.what();
      return;
    }
    ADD_FAILURE() << text << " loaded";
  };
  for (const char* key : {"clos_pods", "tors_per_pod", "aggs_per_pod",
                          "spines_per_plane", "hosts_per_tor",
                          "rnics_per_host"}) {
    const std::string k = key;
    rejects(R"({")" + k + R"(": -1})", k);
    rejects(R"({")" + k + R"(": 0})", k);
    rejects(R"({")" + k + R"(": 4294967296})", k);
  }
  rejects(R"({"pods": -1})", "pods");
  rejects(R"({"pods": 0})", "pods");
  rejects(R"({"pods": 3})", "pods");  // more than the default 2 Clos pods
  rejects(R"({"period_ns": 0})", "period_ns");
  rejects(R"({"period_ns": -5000000000})", "period_ns");

  // The bounds themselves load.
  const DeploymentSpec spec = DeploymentSpec::from_value(json::Value::parse(
      R"({"clos_pods": 4, "pods": 4, "hosts_per_tor": 1,
          "rnics_per_host": 4294967295, "period_ns": 1})"));
  EXPECT_EQ(spec.pods, 4u);
  EXPECT_EQ(spec.hosts_per_tor, 1u);
  EXPECT_EQ(spec.rnics_per_host, 4294967295u);
  EXPECT_EQ(spec.period, 1);
}

// ---- regression corpus replay ----

TEST(Fuzz, CheckedInCorpusReplaysCleanly) {
  // Every artifact in tests/chaos_corpus/ is a once-failing (or
  // representative) campaign that must now pass every invariant oracle.
  const std::filesystem::path dir(RPM_CHAOS_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::vector<std::filesystem::path> artifacts;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".json") artifacts.push_back(e.path());
  }
  std::sort(artifacts.begin(), artifacts.end());
  ASSERT_GE(artifacts.size(), 3u);
  for (const std::filesystem::path& p : artifacts) {
    std::ifstream in(p);
    ASSERT_TRUE(in.is_open()) << p;
    std::stringstream buf;
    buf << in.rdbuf();
    const CampaignResult res = replay_artifact(buf.str());
    EXPECT_TRUE(res.oracle.ok())
        << p.filename() << ": " << res.oracle.summary();
    EXPECT_GT(res.report.periods, 0u) << p.filename();
  }
}

// ---- journal CRC fallback (the fuzzer's at-rest corruption hook) ----

TEST(JournalCorruption, BitFlipFallsBackToCleanStartAndIsCounted) {
  core::StateJournal journal;
  core::AnalyzerCheckpoint cp;
  cp.last_period_end = sec(10);
  cp.next_problem_id = 42;
  cp.next_evidence_id = 7;
  cp.last_upload = {{1, sec(8)}, {2, sec(9)}, {3, sec(10)}};
  cp.rnic_blamed_until = {{4, sec(9)}};
  cp.host_noise_until = {{2, sec(70)}};
  journal.save_checkpoint("analyzer", cp);

  const auto loaded = journal.load_checkpoint("analyzer");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->next_problem_id, 42u);
  EXPECT_EQ(loaded->last_upload, cp.last_upload);
  EXPECT_EQ(loaded->host_noise_until, cp.host_noise_until);
  EXPECT_EQ(journal.corrupt_total(), 0u);

  // One flipped bit anywhere in the stored bytes must fail the CRC and be
  // reported as "no checkpoint" (clean restart), never an exception.
  ASSERT_TRUE(journal.corrupt_checkpoint("analyzer", 123));
  EXPECT_FALSE(journal.load_checkpoint("analyzer").has_value());
  EXPECT_EQ(journal.corrupt_total(), 1u);

  // The next save overwrites the damage.
  journal.save_checkpoint("analyzer", cp);
  EXPECT_TRUE(journal.load_checkpoint("analyzer").has_value());
  EXPECT_FALSE(journal.corrupt_checkpoint("no-such-role", 0));
}

std::uint32_t crc32_ieee(const std::vector<std::uint8_t>& bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    crc ^= b;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(JournalCorruption, HugeCountWithValidCrcIsADecodeError) {
  // A CRC-valid payload whose length prefix claims 2^61 last_upload entries
  // must fail as std::runtime_error (the journal's clean-start contract),
  // not as an allocation failure.
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 61;
  std::vector<std::uint8_t> bytes;
  codec::put_u64(bytes, 0);      // last_period_end
  codec::put_u64(bytes, 1);      // next_problem_id
  codec::put_u64(bytes, 1);      // next_evidence_id
  codec::put_u64(bytes, kHuge);  // last_upload count
  codec::put_u32(bytes, crc32_ieee(bytes));
  ASSERT_EQ(bytes.size(), 36u);
  EXPECT_THROW(core::decode_checkpoint(bytes), std::runtime_error);

  // Same for every length prefix of an empty checkpoint: the three id-time
  // lists and both dedup-window lists (byte 56 is digest_seq).
  std::vector<std::uint8_t> empty;
  core::encode_checkpoint(core::AnalyzerCheckpoint{}, empty);
  ASSERT_EQ(empty.size(), 76u);
  for (const std::size_t at : {24u, 32u, 40u, 48u, 64u}) {
    std::vector<std::uint8_t> bad(empty.begin(), empty.begin() + at);
    codec::put_u64(bad, kHuge);
    bad.insert(bad.end(), empty.begin() + at + 8, empty.end() - 4);
    codec::put_u32(bad, crc32_ieee(bad));
    EXPECT_THROW(core::decode_checkpoint(bad), std::runtime_error)
        << "count at byte " << at;
  }
}

}  // namespace
}  // namespace rpm::chaos
