// Chaos harness for control-plane survivability (ROADMAP "robustness").
//
// A ChaosPlan is a scripted timeline mixing real network faults (via
// faults::FaultInjector) with control-plane lifecycle events the paper's
// production deployment has to survive: Controller crashes/restarts,
// Analyzer brownouts, and Agent process restarts (QPN resets). ChaosRunner
// executes the plan against a deployed RPingmesh, then scores every
// Analyzer verdict produced during the campaign against the injector's
// FaultRecord ground truth:
//
//  * precision / recall of localization — a verdict is a true positive only
//    when it names the faulted entity (link either direction, RNIC, host)
//    while that fault was active;
//  * false positives inside control-plane outage windows — a Controller
//    crash or Analyzer brownout must never masquerade as a switch problem;
//  * host-down verdicts explainable by the blackout itself are reported as
//    `collateral` (visible, but not counted against precision);
//  * periods-to-full-recovery after each control-plane event — how many
//    analysis periods pass until the Analyzer produces a clean period
//    (records flowing, no false positive) again.
//
// The resulting ChaosReport serializes to JSON deterministically: same
// seed, same plan -> byte-identical bytes (CI diffs two runs). No wall
// clock, no unordered-container iteration order leaks into the output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "core/rpingmesh.h"
#include "faults/faults.h"
#include "host/cluster.h"

namespace rpm::chaos {

/// One scripted event on the chaos timeline (offsets relative to run()).
struct ChaosStep {
  enum class Kind : std::uint8_t {
    kControllerCrash,
    kControllerRestart,
    kAnalyzerOutageBegin,
    kAnalyzerOutageEnd,
    kAgentRestart,  // FaultSpec::qpn_reset ground truth + Agent::restart()
    kPodAnalyzerCrash,    // federated: crash pod `pod`'s Analyzer process
    kPodAnalyzerRestart,  // federated: journal-restore pod `pod`'s Analyzer
    kInject,        // FaultInjector::inject(spec)
    kClear,         // clear the kInject step labeled `clear_ref`
  };
  Kind kind{};
  TimeNs at = 0;
  std::string label;        // kInject: ground-truth key; others: display only
  HostId host;              // kAgentRestart
  std::size_t pod = 0;      // kPodAnalyzerCrash / kPodAnalyzerRestart
  faults::FaultSpec spec;   // kInject: named, serializable fault parameters
  std::string clear_ref;    // kClear
};

const char* chaos_step_name(ChaosStep::Kind k);
/// Inverse of chaos_step_name; throws std::invalid_argument on unknown.
ChaosStep::Kind chaos_step_kind_from_name(std::string_view name);

/// A scripted campaign. Build with the fluent helpers; steps may be added
/// in any order (the runner schedules by `at`).
struct ChaosPlan {
  TimeNs duration = sec(120);
  std::uint64_t seed = 0;  // echoed into the report (provenance only)
  /// A fault stays matchable this long after it is cleared: verdicts lag
  /// injection by up to a period plus the RNIC-blame window.
  TimeNs match_grace = sec(30);
  /// Outage windows extend this far past the recovery event: the first
  /// periods back digest history uploaded about the blackout.
  TimeNs outage_grace = sec(30);
  std::vector<ChaosStep> steps;

  ChaosPlan& controller_crash(TimeNs at);
  ChaosPlan& controller_restart(TimeNs at);
  ChaosPlan& analyzer_outage(TimeNs from, TimeNs to);
  ChaosPlan& agent_restart(TimeNs at, HostId host);
  ChaosPlan& pod_analyzer_crash(TimeNs at, std::size_t pod);
  ChaosPlan& pod_analyzer_restart(TimeNs at, std::size_t pod);
  ChaosPlan& inject(TimeNs at, std::string label, faults::FaultSpec spec);
  ChaosPlan& clear(TimeNs at, std::string label);
};

/// Campaign scorecard. All times are simulated nanoseconds relative to the
/// start of run().
struct ChaosReport {
  std::uint64_t seed = 0;
  TimeNs duration = 0;
  std::size_t periods = 0;          // analysis periods scored
  std::size_t problems_total = 0;   // all Problems emitted (noise included)
  std::size_t true_positives = 0;
  /// Phantom verdicts: claims made while NO scored fault was active — the
  /// only verdicts attributable to the control-plane campaign itself.
  std::size_t false_positives = 0;
  std::size_t switch_false_positives = 0;  // subset: switch localizations
  std::size_t outage_false_positives = 0;  // subset: inside outage windows
  /// Unmatched claims while a scored fault WAS active: the Analyzer saw a
  /// real event but named the wrong entity (or named it before the precise
  /// triage — e.g. a dead host's access links out-voted before the 20 s
  /// silence threshold fires). Localization quality, not a phantom; still
  /// counted against precision.
  std::size_t mislocalized = 0;
  std::size_t collateral_host_down = 0;    // blackout-explained host-downs
  std::size_t noise_problems = 0;          // QPN-reset / Agent-CPU noise
  std::size_t unscored_problems = 0;       // categories outside the rubric
  double precision = 1.0;  // tp / all claims; 1.0 when nothing was claimed
  double recall = 1.0;     // matched scored ground truths / scored GTs

  struct GroundTruthScore {
    std::string label;
    std::string kind;        // fault_kind_name
    bool scored = false;     // noise kinds are reported but not recalled
    bool matched = false;
    TimeNs injected_at = 0;
    TimeNs cleared_at = kNoTime;  // kNoTime: still active at campaign end
  };
  std::vector<GroundTruthScore> ground_truths;  // plan order

  struct Recovery {
    std::string event;  // chaos_step_name
    TimeNs at = 0;
    /// Analysis periods produced from `at` until the first clean period
    /// (records flowing, zero false positives); -1 if never recovered.
    int periods_to_recover = -1;
  };
  std::vector<Recovery> recoveries;  // plan order (control-plane steps only)

  struct PeriodSummary {
    TimeNs period_end = 0;
    std::size_t records = 0;
    std::size_t problems = 0;
    std::size_t false_positives = 0;
    bool in_outage_window = false;
  };
  std::vector<PeriodSummary> period_summaries;  // chronological

  /// Deterministic JSON (two same-seed runs are byte-identical): one line
  /// per field and per array row (json::Layout::kPrettyRows), ending with a
  /// newline.
  [[nodiscard]] std::string to_json() const;
  /// to_json()'s bytes, streamed to `path`; false when not fully written.
  [[nodiscard]] bool write_file(const std::string& path) const;
};

/// Executes ChaosPlans against one deployment. The injector must target the
/// same cluster the RPingmesh is deployed on.
class ChaosRunner {
 public:
  ChaosRunner(host::Cluster& cluster, core::RPingmesh& rpm,
              faults::FaultInjector& injector);

  /// Schedule every step, run the cluster for plan.duration, then score the
  /// Analyzer periods produced during the campaign. The deployment must be
  /// started; faults still active at the end stay active (ground truth
  /// records them as uncleared).
  ChaosReport run(const ChaosPlan& plan);

 private:
  struct GroundTruth {
    std::string label;
    faults::FaultRecord rec;
    TimeNs injected_at = 0;
    TimeNs cleared_at = kNoTime;
  };

  host::Cluster& cluster_;
  core::RPingmesh& rpm_;
  faults::FaultInjector& injector_;
};

}  // namespace rpm::chaos
