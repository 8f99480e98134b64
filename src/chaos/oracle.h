// chaos invariant oracles — what "survived" means, beyond precision/recall.
//
// A ChaosReport already scores localization quality; the oracles pin down
// the properties that must hold for EVERY valid campaign, so a randomized
// fuzzer can flag a run as failing without a human reading the report:
//
//   phantom-verdict        no false positives at all: a control-plane
//                          campaign must never conjure a verdict;
//   phantom-switch         in particular, no phantom switch localizations
//                          (the paper's "don't page the network team" bar);
//   outage-false-positive  zero false positives inside outage windows;
//   recovery               every control-plane event recovers to a clean
//                          period within max_recovery_periods (when the
//                          campaign leaves room to observe it);
//   journal-digest-seq     a journal-restored pod never replays or reuses a
//                          digest seq: the global tier's max accepted seq
//                          stays <= what the pod actually sent;
//   upload-drain           at campaign end no Agent has an upload that has
//                          waited for its ack longer than
//                          kHostSilenceThreshold (no stranded history);
//   journal-decode         every role's stored checkpoint decodes (save /
//                          load round-trips through the CRC'd codec).
//
// Post-state oracles inspect the deployment AFTER ChaosRunner::run() has
// returned, on the same RPingmesh instance the plan ran against.
#pragma once

#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "common/types.h"
#include "core/rpingmesh.h"

namespace rpm::chaos {

struct OracleConfig {
  /// Analyzer period backing the report (recovery deadline arithmetic).
  TimeNs period = sec(5);
  /// A control-plane event must reach a clean period within this many
  /// periods — checked only when the campaign leaves enough room after the
  /// event to observe that many periods.
  int max_recovery_periods = 10;
};

struct InvariantViolation {
  std::string oracle;  // stable oracle name (see header comment)
  std::string detail;
};

struct OracleReport {
  std::vector<InvariantViolation> violations;
  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// "oracle: detail; oracle: detail" — log/CLI convenience.
  [[nodiscard]] std::string summary() const;
};

/// Score `rep` (produced by running a plan on `rpm`) plus the deployment's
/// post-campaign state against every oracle.
OracleReport check_invariants(const ChaosReport& rep, core::RPingmesh& rpm,
                              const OracleConfig& cfg = {});

}  // namespace rpm::chaos
