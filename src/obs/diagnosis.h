// Diagnosis explainability: evidence chains behind every Analyzer verdict.
//
// A `Problem`, an SLA violation, or a "network innocent" call is only as
// trustworthy as the evidence it rests on. Each period the Analyzer writes a
// `DiagnosisLog`: one `EvidenceChain` per verdict recording
//
//   * the input probe ids (capped sample + exact total),
//   * the Algorithm 1 vote tally per link and per switch,
//   * every threshold compared (configured value, observed value, outcome),
//   * the timeout-triage branch taken (§4.3.1: host down / QPN reset /
//     Agent-CPU noise / RNIC / switch).
//
// `Analyzer::explain(problem_id)` renders a chain as structured JSON;
// chains also cross-reference the flight recorder — any probe id listed
// here that was sampled has a full per-hop timeline in
// obs::recorder().
//
// This module is deliberately below src/core: plain ids only, no topology
// or record types, so fabric-/transport-level tooling can produce chains
// too.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/types.h"

namespace rpm::obs {

/// One threshold comparison backing a verdict.
struct ThresholdCheck {
  std::string name;        // AnalyzerConfig field (or derived quantity) name
  double threshold = 0.0;  // configured value
  double observed = 0.0;   // what this period measured
  bool exceeded = false;   // did the comparison trip
};

/// Vote tally entry (Algorithm 1): a link or switch id and its vote count.
struct VoteCount {
  std::uint32_t id = 0;
  std::size_t votes = 0;
};

struct EvidenceChain {
  std::uint64_t id = 0;          // EvidenceRef target, unique per Analyzer
  std::uint64_t problem_id = 0;  // 0 for non-Problem verdicts (SLA, innocent)
  std::string verdict;           // "switch-network-problem", "sla-violation",
                                 // "network-innocent", ...
  std::string triage_branch;     // §4.3.1 branch taken, human-readable
  std::uint32_t service = 0;     // service-scoped verdicts (0 = cluster)
  std::vector<std::uint64_t> probe_ids;  // input probes (capped sample)
  std::size_t total_probes = 0;          // exact count before the cap
  std::vector<VoteCount> link_votes;     // Algorithm 1, descending
  std::vector<VoteCount> switch_votes;   // Algorithm 1, descending
  std::vector<ThresholdCheck> thresholds;
  /// Recorder-driven auto-triage: where the evidence probes actually died,
  /// aggregated from their sampled flight timelines — e.g.
  /// "fabric-drop:corrupted@link42" or "timed-out:no-fabric-drop-observed"
  /// with a count each. Empty (and absent from the JSON) when the flight
  /// recorder is disabled or no evidence probe was sampled.
  std::vector<std::pair<std::string, std::uint64_t>> drop_sites;
  std::string summary;
};

/// Everything one analysis period concluded, with receipts.
struct DiagnosisLog {
  TimeNs period_start = 0;
  TimeNs period_end = 0;
  std::vector<EvidenceChain> chains;

  [[nodiscard]] const EvidenceChain* find(std::uint64_t evidence_id) const;
  [[nodiscard]] const EvidenceChain* find_problem(
      std::uint64_t problem_id) const;
};

/// How many probe ids a chain retains verbatim; `total_probes` keeps the
/// exact count when the evidence set is larger.
inline constexpr std::size_t kEvidenceProbeIdCap = 32;

/// {"evidence_id":N,...,"summary":"..."}; "problem_id", "service" and
/// "drop_sites" only when set.
void write_json(json::Writer& w, const EvidenceChain& c);
/// {"period_start":N,"period_end":N,"chains":[...]}
void write_json(json::Writer& w, const DiagnosisLog& log);
/// write_json() into a string.
std::string to_json(const EvidenceChain& c);
std::string to_json(const DiagnosisLog& log);

}  // namespace rpm::obs
