#include "chaos/shrink.h"

#include <algorithm>
#include <stdexcept>

namespace rpm::chaos {

namespace {

constexpr TimeNs kMinWindow = sec(5);    // outage windows never shrink below
constexpr TimeNs kSettleTail = sec(35);  // kept after the last step

using Group = std::vector<std::size_t>;  // step indices, ascending

/// Steps that only make sense together shrink together. Pairing is by plan
/// order: a crash adopts the first later unpaired restart (same pod for pod
/// bounces), an inject adopts its label's clear.
std::vector<Group> build_groups(const ChaosPlan& plan) {
  const std::size_t n = plan.steps.size();
  std::vector<bool> used(n, false);
  std::vector<Group> groups;
  const auto adopt = [&](std::size_t i, auto&& wanted) {
    Group g{i};
    used[i] = true;
    for (std::size_t j = 0; j < n; ++j) {
      if (!used[j] && wanted(plan.steps[j])) {
        g.push_back(j);
        used[j] = true;
        break;
      }
    }
    groups.push_back(std::move(g));
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (used[i]) continue;
    const ChaosStep& s = plan.steps[i];
    switch (s.kind) {
      case ChaosStep::Kind::kControllerCrash:
        adopt(i, [&](const ChaosStep& t) {
          return t.kind == ChaosStep::Kind::kControllerRestart && t.at >= s.at;
        });
        break;
      case ChaosStep::Kind::kAnalyzerOutageBegin:
        adopt(i, [&](const ChaosStep& t) {
          return t.kind == ChaosStep::Kind::kAnalyzerOutageEnd && t.at >= s.at;
        });
        break;
      case ChaosStep::Kind::kPodAnalyzerCrash:
        adopt(i, [&](const ChaosStep& t) {
          return t.kind == ChaosStep::Kind::kPodAnalyzerRestart &&
                 t.pod == s.pod && t.at >= s.at;
        });
        break;
      case ChaosStep::Kind::kInject:
        adopt(i, [&](const ChaosStep& t) {
          return t.kind == ChaosStep::Kind::kClear && t.clear_ref == s.label;
        });
        break;
      default:
        used[i] = true;
        groups.push_back({i});
        break;
    }
  }
  return groups;
}

ChaosPlan subset(const ChaosPlan& plan, const std::vector<Group>& groups) {
  std::vector<std::size_t> keep;
  for (const Group& g : groups) keep.insert(keep.end(), g.begin(), g.end());
  std::sort(keep.begin(), keep.end());
  ChaosPlan out;
  out.duration = plan.duration;
  out.seed = plan.seed;
  out.match_grace = plan.match_grace;
  out.outage_grace = plan.outage_grace;
  for (const std::size_t i : keep) out.steps.push_back(plan.steps[i]);
  return out;
}

/// The begin step of each paired window in `plan` with its end index.
std::vector<std::pair<std::size_t, std::size_t>> window_pairs(
    const ChaosPlan& plan) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (const Group& g : build_groups(plan)) {
    if (g.size() != 2) continue;
    const ChaosStep::Kind k = plan.steps[g[0]].kind;
    if (k == ChaosStep::Kind::kControllerCrash ||
        k == ChaosStep::Kind::kAnalyzerOutageBegin ||
        k == ChaosStep::Kind::kPodAnalyzerCrash) {
      pairs.emplace_back(g[0], g[1]);
    }
  }
  return pairs;
}

}  // namespace

ShrinkResult Shrinker::shrink(const ChaosPlan& plan,
                              const PropertyFn& property) const {
  if (!property) throw std::invalid_argument("Shrinker: property required");
  ShrinkResult res;
  res.steps_before = plan.steps.size();
  const auto eval = [&](const ChaosPlan& candidate) {
    if (res.trials >= cfg_.max_trials) return false;
    ++res.trials;
    return property(candidate);
  };
  if (!eval(plan)) {
    throw std::invalid_argument(
        "Shrinker: property does not hold on the input plan");
  }

  // ---- ddmin over step groups (complement reduction) ----

  std::vector<Group> cur = build_groups(plan);
  std::size_t granularity = 2;
  while (cur.size() >= 2 && granularity <= cur.size() &&
         res.trials < cfg_.max_trials) {
    const std::size_t chunk =
        (cur.size() + granularity - 1) / granularity;  // ceil
    bool reduced = false;
    for (std::size_t c = 0; c * chunk < cur.size(); ++c) {
      std::vector<Group> complement;
      for (std::size_t i = 0; i < cur.size(); ++i) {
        if (i < c * chunk || i >= (c + 1) * chunk) complement.push_back(cur[i]);
      }
      if (complement.empty()) continue;
      if (eval(subset(plan, complement))) {
        cur = std::move(complement);
        granularity = std::max<std::size_t>(2, granularity - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (granularity >= cur.size()) break;
      granularity = std::min(cur.size(), granularity * 2);
    }
  }
  ChaosPlan best = subset(plan, cur);

  // ---- time mutations: keep each only if the failure still reproduces ----

  const auto try_mutation = [&](const ChaosPlan& candidate) {
    if (eval(candidate)) best = candidate;
  };

  // Trim the duration to the last step plus the settle tail.
  {
    TimeNs last = 0;
    for (const ChaosStep& s : best.steps) last = std::max(last, s.at);
    const TimeNs trimmed = last + kSettleTail;
    if (trimmed < best.duration) {
      ChaosPlan candidate = best;
      candidate.duration = trimmed;
      try_mutation(candidate);
    }
  }

  // Halve each outage window down to kMinWindow.
  for (bool changed = true; changed && res.trials < cfg_.max_trials;) {
    changed = false;
    for (const auto& [bi, ei] : window_pairs(best)) {
      const TimeNs len = best.steps[ei].at - best.steps[bi].at;
      const TimeNs halved = std::max(kMinWindow, len / 2);
      if (halved >= len) continue;
      ChaosPlan candidate = best;
      candidate.steps[ei].at = candidate.steps[bi].at + halved;
      if (eval(candidate)) {
        best = std::move(candidate);
        changed = true;
      }
    }
  }

  // Snap every step time to a period boundary.
  {
    ChaosPlan candidate = best;
    bool any = false;
    for (ChaosStep& s : candidate.steps) {
      const TimeNs snapped = (s.at / cfg_.period) * cfg_.period;
      if (snapped != s.at) {
        s.at = snapped;
        any = true;
      }
    }
    if (any) try_mutation(candidate);
  }

  res.plan = std::move(best);
  res.steps_after = res.plan.steps.size();
  return res;
}

}  // namespace rpm::chaos
