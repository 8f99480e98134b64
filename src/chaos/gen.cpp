#include "chaos/gen.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "faults/catalog.h"

namespace rpm::chaos {

namespace {

constexpr TimeNs kTimeGrid = sec(1);  // event times snap to this grid
static_assert(kTimeGrid > 0, "CampaignGen: time_grid must be positive");
constexpr TimeNs kMinOutage = sec(8);
constexpr TimeNs kMaxOutage = sec(20);
// Quiet tail before the campaign's end, reserved for recovery scoring.
constexpr TimeNs kSettleTail = sec(35);
// Gap reserved after each control-plane window before the next may start.
constexpr TimeNs kWindowSpacing = sec(15);
constexpr TimeNs kMinFaultHold = sec(15);
constexpr TimeNs kMaxFaultHold = sec(30);
// Probability an injected fault gets a mid-campaign clear() step (the rest
// stay active to the end).
constexpr double kClearFaultProb = 0.6;
// The weighted step menu.
constexpr std::pair<const char*, int> kStepWeights[] = {
    {"controller-bounce", 2}, {"analyzer-outage", 2}, {"agent-restart", 2},
    {"pod-bounce", 2},        {"inject", 5},
};

RnicId pick_rnic(Rng& rng, const topo::Topology& topo) {
  return RnicId{static_cast<std::uint32_t>(rng.index(topo.num_rnics()))};
}

HostId pick_host(Rng& rng, const topo::Topology& topo) {
  return HostId{static_cast<std::uint32_t>(rng.index(topo.num_hosts()))};
}

/// Switch-to-switch links only: faulting a host uplink is indistinguishable
/// from an RNIC fault at the Analyzer's granularity, so the generator keeps
/// link faults on the fabric where switch localization is well-defined.
LinkId pick_fabric_link(Rng& rng, const topo::Topology& topo) {
  std::vector<LinkId> fabric;
  for (const topo::Link& l : topo.links()) {
    if (l.from.is_switch() && l.to.is_switch()) fabric.push_back(l.id);
  }
  if (fabric.empty()) {
    // Degenerate single-switch topology: fall back to any link.
    return topo.links().at(rng.index(topo.num_links())).id;
  }
  return fabric[rng.index(fabric.size())];
}

// The faults an "inject" step draws from, each with its sampler: the kinds
// whose verdicts the scoring rubric fully attributes. All of them are
// clearable. The order is part of every generated plan (the menu index is a
// draw), and so is each sampler's draw order, which statements fix: the
// evaluation order of a call's arguments is unspecified.
using Sampler = faults::FaultSpec (*)(Rng&, const topo::Topology&);
constexpr Sampler kFaultMenu[] = {
    [](Rng& rng, const topo::Topology& topo) {
      return faults::FaultSpec::host_down(pick_host(rng, topo));
    },
    [](Rng& rng, const topo::Topology& topo) {
      const double prob = 0.3 + 0.4 * rng.uniform();
      return faults::FaultSpec::corruption(pick_fabric_link(rng, topo), prob);
    },
    [](Rng& rng, const topo::Topology& topo) {
      return faults::FaultSpec::rnic_down(pick_rnic(rng, topo));
    },
    [](Rng& rng, const topo::Topology& topo) {
      const double load = 0.90 + 0.09 * rng.uniform();
      return faults::FaultSpec::cpu_overload(pick_host(rng, topo), load);
    },
    [](Rng& rng, const topo::Topology& topo) {
      return faults::FaultSpec::agent_cpu_occupation(pick_host(rng, topo));
    },
    [](Rng& rng, const topo::Topology&) {
      const double loss = 0.05 + 0.15 * rng.uniform();
      return faults::FaultSpec::control_plane_degradation(
          msec(rng.uniform_int(10, 50)), loss);
    },
};

struct Window {
  TimeNs from = 0;
  TimeNs to = 0;
};

bool overlaps(const std::vector<Window>& reserved, TimeNs from, TimeNs to) {
  return std::any_of(reserved.begin(), reserved.end(), [&](const Window& w) {
    return from <= w.to && to >= w.from;
  });
}

}  // namespace

CampaignGen::CampaignGen(CampaignGenConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.duration <= kSettleTail + cfg_.period) {
    throw std::invalid_argument("CampaignGen: duration too short for tail");
  }
}

ChaosPlan CampaignGen::generate(std::uint64_t seed,
                                const topo::Topology& topo) const {
  Rng rng(seed);
  ChaosPlan plan;
  plan.seed = seed;
  plan.duration = cfg_.duration;

  const TimeNs lo = cfg_.period;                     // after first warm-up
  const TimeNs hi = cfg_.duration - kSettleTail;
  const auto snap = [&](TimeNs t) { return (t / kTimeGrid) * kTimeGrid; };
  const auto pick_time = [&](TimeNs latest) {
    return snap(rng.uniform_int(lo, std::max(lo, latest)));
  };

  // The weighted step menu, with pod-bounce removed on flat deployments.
  std::vector<std::pair<std::string, int>> menu;
  int total_weight = 0;
  for (const auto& [name, weight] : kStepWeights) {
    if (name == std::string_view("pod-bounce") && cfg_.pods < 2) continue;
    menu.emplace_back(name, weight);
    total_weight += weight;
  }

  const auto pick_step = [&]() -> const std::string& {
    int roll = static_cast<int>(rng.uniform_int(1, total_weight));
    for (const auto& [name, weight] : menu) {
      roll -= weight;
      if (roll <= 0) return name;
    }
    return menu.back().first;
  };

  // Control-plane windows reserve the shared timeline; the generator tries a
  // handful of placements and drops the event when the timeline is full
  // (dense short campaigns), keeping every emitted plan valid.
  std::vector<Window> reserved;
  const auto reserve_window = [&](TimeNs len) -> TimeNs {
    for (int attempt = 0; attempt < 16; ++attempt) {
      if (hi - len < lo) return kNoTime;
      const TimeNs start = snap(rng.uniform_int(lo, hi - len));
      const TimeNs end = start + len + kWindowSpacing;
      if (overlaps(reserved, start, end)) continue;
      reserved.push_back({start, end});
      return start;
    }
    return kNoTime;
  };

  const int events =
      static_cast<int>(rng.uniform_int(cfg_.min_events, cfg_.max_events));
  int fault_idx = 0;
  for (int i = 0; i < events; ++i) {
    const std::string& step = pick_step();
    if (step == "controller-bounce" || step == "analyzer-outage" ||
        step == "pod-bounce") {
      const TimeNs len = snap(rng.uniform_int(kMinOutage, kMaxOutage));
      const TimeNs start = reserve_window(len);
      if (start == kNoTime) continue;
      if (step == "controller-bounce") {
        plan.controller_crash(start).controller_restart(start + len);
      } else if (step == "analyzer-outage") {
        plan.analyzer_outage(start, start + len);
      } else {
        const std::size_t pod = rng.index(cfg_.pods);
        plan.pod_analyzer_crash(start, pod)
            .pod_analyzer_restart(start + len, pod);
      }
    } else if (step == "agent-restart") {
      // A restart's silence shadow is short; reserve a point window so two
      // restarts (or a restart inside an outage) don't stack.
      const TimeNs at = reserve_window(0);
      if (at == kNoTime) continue;
      plan.agent_restart(
          at, HostId{static_cast<std::uint32_t>(rng.index(topo.num_hosts()))});
    } else {  // "inject"
      const Sampler sample = kFaultMenu[rng.index(std::size(kFaultMenu))];
      const TimeNs hold = snap(rng.uniform_int(kMinFaultHold, kMaxFaultHold));
      const TimeNs at = pick_time(hi - hold);
      faults::FaultSpec spec = sample(rng, topo);
      std::string label = "f";
      label += std::to_string(fault_idx++);
      label += '-';
      label += faults::spec_name(spec.kind);
      plan.inject(at, label, std::move(spec));
      if (rng.chance(kClearFaultProb)) {
        plan.clear(std::min(at + hold, hi), label);
      }
    }
  }
  return plan;
}

}  // namespace rpm::chaos
