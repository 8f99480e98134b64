#include "chaos/fuzz.h"

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "chaos/plan_io.h"
#include "core/rpingmesh.h"
#include "faults/faults.h"
#include "host/cluster.h"

namespace rpm::chaos {

topo::ClosConfig DeploymentSpec::clos() const {
  topo::ClosConfig cfg;
  cfg.num_pods = clos_pods;
  cfg.tors_per_pod = tors_per_pod;
  cfg.aggs_per_pod = aggs_per_pod;
  cfg.spines_per_plane = spines_per_plane;
  cfg.hosts_per_tor = hosts_per_tor;
  cfg.rnics_per_host = rnics_per_host;
  cfg.host_link.capacity_gbps = 100.0;
  cfg.fabric_link.capacity_gbps = 100.0;
  return cfg;
}

json::Value DeploymentSpec::to_value() const {
  json::Value v{json::Object{}};
  v.set("cluster_seed", cluster_seed);
  v.set("pods", static_cast<std::uint64_t>(pods));
  v.set("period_ns", period);
  v.set("clos_pods", clos_pods);
  v.set("tors_per_pod", tors_per_pod);
  v.set("aggs_per_pod", aggs_per_pod);
  v.set("spines_per_plane", spines_per_plane);
  v.set("hosts_per_tor", hosts_per_tor);
  v.set("rnics_per_host", rnics_per_host);
  return v;
}

DeploymentSpec DeploymentSpec::from_value(const json::Value& v) {
  if (!v.is_object()) throw std::runtime_error("DeploymentSpec: not an object");
  DeploymentSpec s;
  s.cluster_seed = static_cast<std::uint64_t>(
      v.get_int("cluster_seed", static_cast<std::int64_t>(s.cluster_seed)));
  // Range-check every field before narrowing it: a negative int would wrap
  // to a huge unsigned dimension, and replay would try to build it.
  const auto ranged = [&](const char* key, std::int64_t dflt, std::int64_t lo,
                          std::int64_t hi) {
    const std::int64_t x = v.get_int(key, dflt);
    if (x < lo || x > hi) {
      throw std::runtime_error("DeploymentSpec: " + std::string(key) + " = " +
                               std::to_string(x) + " outside [" +
                               std::to_string(lo) + ", " + std::to_string(hi) +
                               "]");
    }
    return x;
  };
  const auto dim = [&](const char* key, std::uint32_t dflt) {
    return static_cast<std::uint32_t>(
        ranged(key, dflt, 1, std::numeric_limits<std::uint32_t>::max()));
  };
  s.clos_pods = dim("clos_pods", s.clos_pods);
  s.tors_per_pod = dim("tors_per_pod", s.tors_per_pod);
  s.aggs_per_pod = dim("aggs_per_pod", s.aggs_per_pod);
  s.spines_per_plane = dim("spines_per_plane", s.spines_per_plane);
  s.hosts_per_tor = dim("hosts_per_tor", s.hosts_per_tor);
  s.rnics_per_host = dim("rnics_per_host", s.rnics_per_host);
  s.pods = static_cast<std::size_t>(ranged("pods", 1, 1, s.clos_pods));
  s.period = ranged("period_ns", s.period, 1,
                    std::numeric_limits<std::int64_t>::max());
  return s;
}

CampaignResult run_campaign(const DeploymentSpec& spec, const ChaosPlan& plan,
                            const OracleConfig& ocfg) {
  host::ClusterConfig ccfg;
  ccfg.seed = spec.cluster_seed;
  host::Cluster cluster(topo::build_clos(spec.clos()), ccfg);
  core::RPingmeshConfig rcfg;
  rcfg.analyzer.period = spec.period;
  rcfg.federation.pods = spec.pods;
  core::RPingmesh rpm(cluster, rcfg);
  faults::FaultInjector injector(cluster);
  rpm.start();

  CampaignResult res;
  res.report = ChaosRunner(cluster, rpm, injector).run(plan);
  res.oracle = check_invariants(res.report, rpm, ocfg);
  return res;
}

namespace {

bool violates_any(const OracleReport& oracle,
                  const std::vector<InvariantViolation>& original) {
  for (const InvariantViolation& v : oracle.violations) {
    for (const InvariantViolation& o : original) {
      if (v.oracle == o.oracle) return true;
    }
  }
  return false;
}

}  // namespace

FuzzReport run_fuzz(const FuzzConfig& cfg) {
  FuzzReport rep;
  rep.base_seed = cfg.base_seed;
  rep.num_seeds = cfg.num_seeds;

  for (int i = 0; i < cfg.num_seeds; ++i) {
    const std::uint64_t seed = cfg.base_seed + static_cast<std::uint64_t>(i);

    DeploymentSpec spec = cfg.deployment;
    if (cfg.alternate_pods >= 2 && i % 2 == 1) spec.pods = cfg.alternate_pods;

    CampaignGenConfig gcfg = cfg.gen;
    gcfg.pods = spec.pods;
    gcfg.period = spec.period;
    const CampaignGen gen(gcfg);

    // Generation only needs topology shape; build it once, cheaply.
    const topo::Topology topo = topo::build_clos(spec.clos());
    const ChaosPlan plan = gen.generate(seed, topo);

    FuzzReport::SeedResult sr;
    sr.seed = seed;
    sr.pods = spec.pods;
    sr.steps = plan.steps.size();

    CampaignResult first = run_campaign(spec, plan, cfg.oracle);
    if (cfg.check_determinism) {
      const CampaignResult second = run_campaign(spec, plan, cfg.oracle);
      sr.deterministic =
          first.report.to_json() == second.report.to_json();
      if (!sr.deterministic) {
        first.oracle.violations.push_back(
            {"determinism", "same-seed reruns produced different reports"});
      }
    }
    sr.periods = first.report.periods;
    sr.problems = first.report.problems_total;
    sr.true_positives = first.report.true_positives;
    sr.false_positives = first.report.false_positives;
    sr.precision = first.report.precision;
    sr.recall = first.report.recall;
    sr.violations = first.oracle.violations;

    if (!first.oracle.ok()) {
      ++rep.failures;
      if (!plan.steps.empty()) {
        const std::vector<InvariantViolation> original =
            first.oracle.violations;
        ShrinkConfig scfg = cfg.shrink_cfg;
        scfg.period = spec.period;
        const PropertyFn property = [&](const ChaosPlan& candidate) {
          return violates_any(
              run_campaign(spec, candidate, cfg.oracle).oracle, original);
        };
        try {
          const ShrinkResult shrunk = Shrinker(scfg).shrink(plan, property);
          sr.minimal_plan_json = plan_to_json(shrunk.plan);
          sr.shrink_trials = shrunk.trials;
          if (!cfg.corpus_dir.empty()) {
            json::Value artifact{json::Object{}};
            artifact.set("deployment", spec.to_value());
            artifact.set("plan", plan_to_value(shrunk.plan));
            const std::string path =
                cfg.corpus_dir + "/seed" + std::to_string(seed) + ".json";
            if (!json::write_file(path, json::Layout::kPretty,
                                  [&artifact](json::Writer& w) {
                                    w.value(artifact).newline();
                                  })) {
              throw std::runtime_error("cannot write " + path);
            }
          }
        } catch (const std::invalid_argument&) {
          // The failure did not reproduce under the shrinker (e.g. a pure
          // determinism flake); keep the unshrunk violation record.
        }
      }
    }
    rep.seeds.push_back(std::move(sr));
  }
  return rep;
}

CampaignResult replay_artifact(const std::string& artifact_json,
                               const OracleConfig& ocfg) {
  const json::Value v = json::Value::parse(artifact_json);
  const json::Value* dep = v.find("deployment");
  const json::Value* plan = v.find("plan");
  if (dep == nullptr || plan == nullptr) {
    throw std::runtime_error("artifact: needs deployment + plan");
  }
  return run_campaign(DeploymentSpec::from_value(*dep), plan_from_value(*plan),
                      ocfg);
}

json::Value FuzzReport::to_value() const {
  json::Value v{json::Object{}};
  v.set("base_seed", base_seed);
  v.set("num_seeds", static_cast<std::int64_t>(num_seeds));
  v.set("failures", static_cast<std::int64_t>(failures));
  json::Array arr;
  arr.reserve(seeds.size());
  for (const SeedResult& s : seeds) {
    json::Value sv{json::Object{}};
    sv.set("seed", s.seed);
    sv.set("pods", static_cast<std::uint64_t>(s.pods));
    sv.set("steps", static_cast<std::uint64_t>(s.steps));
    sv.set("periods", static_cast<std::uint64_t>(s.periods));
    sv.set("problems", static_cast<std::uint64_t>(s.problems));
    sv.set("true_positives", static_cast<std::uint64_t>(s.true_positives));
    sv.set("false_positives", static_cast<std::uint64_t>(s.false_positives));
    sv.set("precision", s.precision);
    sv.set("recall", s.recall);
    sv.set("deterministic", s.deterministic);
    json::Array viols;
    for (const InvariantViolation& iv : s.violations) {
      json::Value vv{json::Object{}};
      vv.set("oracle", iv.oracle);
      vv.set("detail", iv.detail);
      viols.push_back(std::move(vv));
    }
    sv.set("violations", json::Value(std::move(viols)));
    if (!s.minimal_plan_json.empty()) {
      sv.set("minimal_plan", json::Value::parse(s.minimal_plan_json));
      sv.set("shrink_trials", static_cast<std::uint64_t>(s.shrink_trials));
    }
    arr.push_back(std::move(sv));
  }
  v.set("seeds", json::Value(std::move(arr)));
  return v;
}

std::string FuzzReport::to_json() const { return to_value().dump(2) + "\n"; }

bool FuzzReport::write_file(const std::string& path) const {
  return json::write_file(path, json::Layout::kPretty, [this](json::Writer& w) {
    w.value(to_value()).newline();
  });
}

}  // namespace rpm::chaos
