// chaos::CampaignGen — seeded random ChaosPlan generator (the ROADMAP's
// "randomized chaos generator (seeded event times/targets + shrinking)").
//
// Samples a *valid* campaign from a weighted step menu: controller
// crash/restart pairs, Analyzer outage windows, Agent restarts, pod-Analyzer
// bounces (federated deployments), and fault injections: a FaultSpec of one
// of six kinds, each drawn by its own sampler (host down, corruption, RNIC
// down, CPU overload, Agent-CPU occupation, control-plane degradation).
// Validity constraints keep generated plans inside the
// envelope the scoring rubric defines — the point is to randomize *within*
// the supported behaviour space so every oracle violation is a real bug,
// not a malformed plan:
//
//  * control-plane events serialize: each window (crash..restart,
//    outage begin..end) reserves [start, end + 15 s] on a shared timeline,
//    so recovery from one event is observable before the next;
//  * events land on a coarse 1 s grid (deliberately colliding timestamps —
//    the runner's insertion-order tie-break is part of what's under test);
//  * everything lands in [period, duration - 35 s]: the deployment has
//    warmed up, and the 35 s settle tail leaves room for recovery scoring;
//  * injected faults are cleared before the tail or left active to the end
//    (both matchable states; a clear inside the tail would race scoring).
//
// Same (seed, config, topology) => identical plan, byte for byte through
// plan_to_json — the fuzzer's reproducibility contract.
#pragma once

#include <cstddef>

#include "chaos/chaos.h"
#include "common/rng.h"
#include "common/types.h"
#include "topo/topology.h"

namespace rpm::chaos {

struct CampaignGenConfig {
  /// Campaign length; it must exceed the 35 s settle tail plus one period.
  TimeNs duration = sec(120);
  /// Analyzer period of the target deployment (aligns the settle math).
  TimeNs period = sec(5);
  int min_events = 4;
  int max_events = 9;
  /// Pod count of the target deployment; < 2 disables pod-bounce steps.
  std::size_t pods = 0;
};

class CampaignGen {
 public:
  explicit CampaignGen(CampaignGenConfig cfg = {});

  /// Deterministic: same (seed, config, topology) => identical plan.
  [[nodiscard]] ChaosPlan generate(std::uint64_t seed,
                                   const topo::Topology& topo) const;

  [[nodiscard]] const CampaignGenConfig& config() const { return cfg_; }

 private:
  CampaignGenConfig cfg_;
};

}  // namespace rpm::chaos
