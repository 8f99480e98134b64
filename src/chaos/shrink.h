// chaos::Shrinker — delta-debugging for failing ChaosPlans.
//
// When a generated campaign violates an oracle, the raw plan is a poor
// artifact: a dozen interleaved events, most irrelevant to the bug. The
// shrinker reduces it while a caller-supplied property ("still violates")
// keeps holding:
//
//   1. ddmin over step GROUPS. Steps that only make sense together stay
//      together — controller crash + its restart, outage begin + end,
//      pod crash + same-pod restart, inject + its clear — so every
//      candidate plan is still valid (no crash without restart, no clear
//      of a missing label).
//   2. Time mutations on the survivor: trim the duration to the last step
//      plus a settle tail, halve outage windows, snap step times to period
//      boundaries. Each mutation is kept only if the property still holds.
//
// The property is re-evaluated by actually re-running the plan, so the
// result is a true minimal counterexample, not a syntactic guess. Budgeted:
// at most max_trials property evaluations.
#pragma once

#include <cstddef>
#include <functional>

#include "chaos/chaos.h"
#include "common/types.h"

namespace rpm::chaos {

struct ShrinkConfig {
  /// Property-evaluation budget (each evaluation replays a campaign).
  std::size_t max_trials = 128;
  /// Period boundary for the snap-times mutation.
  TimeNs period = sec(5);
};

/// True when the candidate plan still exhibits the failure being minimized.
using PropertyFn = std::function<bool(const ChaosPlan&)>;

struct ShrinkResult {
  ChaosPlan plan;              // minimal failing plan found
  std::size_t trials = 0;      // property evaluations spent
  std::size_t steps_before = 0;
  std::size_t steps_after = 0;
};

class Shrinker {
 public:
  explicit Shrinker(ShrinkConfig cfg = {}) : cfg_(cfg) {}

  /// Requires property(plan) == true on entry (the caller observed the
  /// failure); throws std::invalid_argument otherwise. The returned plan
  /// always satisfies the property.
  [[nodiscard]] ShrinkResult shrink(const ChaosPlan& plan,
                                    const PropertyFn& property) const;

 private:
  ShrinkConfig cfg_;
};

}  // namespace rpm::chaos
