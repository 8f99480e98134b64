// chaos fuzzing harness: seed batches -> generated campaigns -> oracles ->
// shrinking -> corpus artifacts. The top of the property-based chaos stack
// (CampaignGen samples, ChaosRunner executes, oracle.h judges, Shrinker
// minimizes); this file owns the loop and the deterministic FuzzReport JSON
// that CI byte-diffs across two runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "chaos/gen.h"
#include "chaos/oracle.h"
#include "chaos/shrink.h"
#include "common/json.h"
#include "topo/topology.h"

namespace rpm::chaos {

/// Everything needed to rebuild the deployment a plan ran against — stored
/// next to the plan in corpus artifacts so a counterexample replays on the
/// topology that provoked it.
struct DeploymentSpec {
  std::uint64_t cluster_seed = 7;
  std::size_t pods = 1;  // 1 = flat, >= 2 federated
  TimeNs period = sec(5);
  // Clos dimensions (kept small: a fuzz campaign runs dozens of these).
  std::uint32_t clos_pods = 2;
  std::uint32_t tors_per_pod = 2;
  std::uint32_t aggs_per_pod = 2;
  std::uint32_t spines_per_plane = 2;
  std::uint32_t hosts_per_tor = 2;
  std::uint32_t rnics_per_host = 2;

  [[nodiscard]] topo::ClosConfig clos() const;
  [[nodiscard]] json::Value to_value() const;
  static DeploymentSpec from_value(const json::Value& v);
};

/// Build a fresh deployment from `spec`, run `plan` on it, and judge the
/// result. Deterministic: same (spec, plan) => byte-identical report JSON.
struct CampaignResult {
  ChaosReport report;
  OracleReport oracle;
};
CampaignResult run_campaign(const DeploymentSpec& spec, const ChaosPlan& plan,
                            const OracleConfig& ocfg);

struct FuzzConfig {
  std::uint64_t base_seed = 1;
  int num_seeds = 25;
  DeploymentSpec deployment;
  /// Odd seeds run federated with this many pods (0 disables alternation).
  std::size_t alternate_pods = 2;
  CampaignGenConfig gen;
  OracleConfig oracle;
  /// Run every seed twice and require byte-identical ChaosReport JSON.
  bool check_determinism = true;
  /// Failing plans are shrunk; their {deployment, plan} JSON artifacts go
  /// here (empty = no artifacts).
  ShrinkConfig shrink_cfg;
  std::string corpus_dir;
};

struct FuzzReport {
  struct SeedResult {
    std::uint64_t seed = 0;
    std::size_t pods = 1;
    std::size_t steps = 0;
    std::size_t periods = 0;
    std::size_t problems = 0;
    std::size_t true_positives = 0;
    std::size_t false_positives = 0;
    double precision = 1.0;
    double recall = 1.0;
    bool deterministic = true;
    std::vector<InvariantViolation> violations;
    /// Present only when the seed failed and shrinking ran.
    std::string minimal_plan_json;
    std::size_t shrink_trials = 0;
  };
  std::uint64_t base_seed = 0;
  int num_seeds = 0;
  int failures = 0;
  std::vector<SeedResult> seeds;

  [[nodiscard]] bool ok() const { return failures == 0; }
  [[nodiscard]] json::Value to_value() const;
  /// Deterministic pretty JSON with trailing newline (CI byte-diffs it).
  [[nodiscard]] std::string to_json() const;
  /// to_json()'s bytes, streamed to `path`; false when not fully written.
  [[nodiscard]] bool write_file(const std::string& path) const;
};

/// The fuzz loop. Writes one corpus artifact per failing seed when
/// cfg.corpus_dir is non-empty; throws std::runtime_error when one cannot be
/// written.
FuzzReport run_fuzz(const FuzzConfig& cfg);

/// Replay one corpus artifact ({"deployment": ..., "plan": ...}); returns
/// the judged result so tests can assert the oracles stay clean (or a
/// regression stays fixed).
CampaignResult replay_artifact(const std::string& artifact_json,
                               const OracleConfig& ocfg = {});

}  // namespace rpm::chaos
