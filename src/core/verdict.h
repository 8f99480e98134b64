// The verdict steps both Analyzer tiers share (§4.3).
//
// The flat/pod Analyzer (core/analyzer.h) judges probe records; the
// GlobalAnalyzer (core/federation.h) judges pod digests. Everything past
// the input side is the same pipeline and lives here, written once:
//
//   TriageSets    the §4.3.1 host-down / agent-CPU-noise / RNIC-blame sets
//                 and the one classify() that routes a timeout through them;
//   VoteTally     Algorithm 1 (§4.3.3): link and switch votes, one decide();
//   VerdictLog    the verdict history and DiagnosisLogs (retention, journal
//                 archive spill, explain()), the monotone problem/evidence
//                 ids, the watched services, the §4.3.4 P0/P1/P2 impact
//                 pass, and the verdict chains both tiers emit (SLA
//                 violation, network innocent).
//
// Each tier fills TriageSets from its own inputs: the flat tier from its
// liveness clocks, RNIC blame windows and Fig. 6 filters; the global tier
// from the union of every pod's digest.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/digest.h"
#include "core/journal.h"
#include "core/types.h"
#include "obs/diagnosis.h"

namespace rpm::core {

/// Whether Agents fold their healthy records before uploading.
///
///   kOff  every probe record ships raw.
///   kOn   Agents fold healthy OK records into mergeable HostSummary
///         sketches and ship raw only the probes that carry diagnostic
///         signal (timeouts, service tracing, outliers).
///
/// The Analyzer never reads the mode: its SLA tables and Fig.-6 /
/// bottleneck statistics always come from QuantileSketches over the raw
/// records plus whatever summaries arrive (none under kOff), so the same
/// records give the same report in either mode. Same seed =>
/// byte-identical verdicts in each mode; the two modes differ only where
/// folding changes what the Analyzer receives.
enum class SketchMode : std::uint8_t { kOff, kOn };

struct AnalyzerConfig {
  TimeNs period = sec(20);                     // §5
  TimeNs high_rtt_threshold = usec(500);       // congestion flag
  bool enable_cpu_noise_filters = true;        // Fig. 6 improvements
  std::size_t history_limit = 512;
  /// Sketch-driven analysis (see SketchMode above). Agents fold uploads
  /// only when kOn; the summary rides in the same UploadBatches, so the
  /// mode adds no channel and no timer.
  SketchMode sketch_mode = SketchMode::kOff;
};

// The §5 analysis constants read outside the flat Analyzer's pipeline; the
// rest live in analysis_core.cpp and verdict.cpp.
/// A host with no upload for this long is down (§5: 20 s).
inline constexpr TimeNs kHostSilenceThreshold = sec(20);
/// Evidence floor: fewer anomalies than this raise no problem.
inline constexpr std::size_t kMinAnomaliesForProblem = 3;
/// CPU-overload flag on responder processing delay. Sketch-mode Agents keep
/// OK records above it raw, for the Analyzer's outlier triage.
inline constexpr TimeNs kHighProcDelayThreshold = msec(5);

/// How the Analyzer watches a service's key performance metric (§4.3.4):
/// `metric` returns the current relative performance in [0,1].
struct ServiceBinding {
  ServiceId id;
  std::function<double()> metric;
};

// ---- evidence helpers ----

void add_threshold(obs::EvidenceChain& c, const char* name, double threshold,
                   double observed);
/// Keeps `id` in `c.probe_ids` when it is among the kEvidenceProbeIdCap
/// smallest ids offered so far; the sample stays ascending. The sample is a
/// function of the set of ids offered, not of their order.
void sample_probe(obs::EvidenceChain& c, std::uint64_t id);
/// Counts the probe in `c.total_probes` and samples it (sample_probe).
void add_probe(obs::EvidenceChain& c, std::uint64_t id);

/// §4.3.1 timeout triage state. A timeout is explained, in this order, by
/// its target host being down, by agent-CPU noise on either end, by a
/// blamed RNIC on either end, and only then by the switch network.
struct TriageSets {
  std::unordered_set<std::uint32_t> down_hosts;
  /// Hosts whose Agent is (or was recently) starved by the service.
  std::unordered_set<std::uint32_t> cpu_noise_hosts;
  /// RNIC -> end of its blame window; blamed while >= period_start.
  std::unordered_map<std::uint32_t, TimeNs> blamed_rnics;
  TimeNs period_start = 0;

  [[nodiscard]] bool noisy(HostId h) const {
    return cpu_noise_hosts.contains(h.value);
  }
  [[nodiscard]] bool blamed(RnicId r) const {
    const auto it = blamed_rnics.find(r.value);
    return it != blamed_rnics.end() && it->second >= period_start;
  }
  [[nodiscard]] AnomalyCause classify(HostId target_host, HostId prober_host,
                                      RnicId target, RnicId prober) const;
};

/// Algorithm 1 (§4.3.3): count traversals of each link and switch over the
/// anomalous probes' paths; the most-voted are the suspects.
class VoteTally {
 public:
  void add_link(std::uint32_t link, std::size_t votes = 1) {
    links_[link] += votes;
  }
  void add_switch(std::uint32_t sw, std::size_t votes = 1) {
    switches_[sw] += votes;
  }

  /// Write the winners (every id at the top count, ascending) into
  /// `p.suspect_links` / `p.suspect_switches`, the top 10 links (votes
  /// descending, then id ascending) into `p.top_link_votes`, and — with a
  /// chain — both tallies in the same order, capped at 64 entries each.
  void decide(Problem& p, obs::EvidenceChain* chain) const;

 private:
  std::unordered_map<std::uint32_t, std::size_t> links_;
  std::unordered_map<std::uint32_t, std::size_t> switches_;
};

/// Verdict history shared by both tiers. Analyzer and GlobalAnalyzer derive
/// from it, so their read surface (history, explain, evidence, ...) is one.
class VerdictLog {
 public:
  /// Watch a service's metric for impact assessment (§4.3.4). Throws
  /// std::invalid_argument when the binding has no metric.
  void register_service(ServiceBinding binding);

  [[nodiscard]] const std::deque<PeriodReport>& history() const {
    return history_;
  }
  [[nodiscard]] const PeriodReport* last_report() const {
    return history_.empty() ? nullptr : &history_.back();
  }

  /// §4.3.4: true when the last period shows no P0/P1 problem affecting
  /// this service — the network is innocent of the service's woes.
  [[nodiscard]] bool network_innocent(ServiceId service) const;

  /// Render the evidence chain behind a Problem as structured JSON: input
  /// probe ids, Algorithm 1 vote tally, thresholds compared, triage branch.
  /// Searches newest-first; empty string when the id is unknown (with a
  /// journal attached, aged-out periods are searched in its archive too).
  [[nodiscard]] std::string explain(std::uint64_t problem_id) const;

  /// Resolve an EvidenceRef (Problem::evidence, SlaReport::evidence).
  [[nodiscard]] const obs::EvidenceChain* evidence(EvidenceRef ref) const;

  [[nodiscard]] const obs::DiagnosisLog* last_diagnosis() const {
    return diagnosis_.empty() ? nullptr : &diagnosis_.back();
  }
  [[nodiscard]] const std::deque<obs::DiagnosisLog>& diagnosis_history()
      const {
    return diagnosis_;
  }

 protected:
  using ServiceRecords =
      std::unordered_map<std::uint32_t, std::vector<const ProbeRecord*>>;

  explicit VerdictLog(std::string role) : role_(std::move(role)) {}

  /// §4.3.4 impact: P2 outside every service network; inside one, P0 when
  /// the watched service's metric sits below the degradation threshold
  /// (0.5), else P1. A problem lands in the FIRST network of `nets` it
  /// touches; both tiers pass `nets` lowest service id first, so that is
  /// the lowest service it touches. Noise keeps its priority.
  void assess_impact(std::vector<Problem>& problems,
                     const std::vector<ServiceNetDigest>& nets) const;

  /// Draw the next problem and evidence ids and cross-link `p` and `c`.
  /// Call once p.summary is final.
  void attach_evidence(Problem& p, obs::EvidenceChain& c);

  /// Append the cluster SLA-violation chain to `dlog` when `sla` shows
  /// network-attributed drops and link it from sla.evidence. Returns it so
  /// the caller can sample the offending probe ids; nullptr otherwise.
  obs::EvidenceChain* sla_violation(SlaReport& sla, const AnalyzerConfig& cfg,
                                    obs::DiagnosisLog& dlog);

  /// One "network-innocent" chain per watched service with no P0/P1 problem
  /// among `problems`, citing the service's probes when `records` has them.
  void innocent_chains(const std::vector<Problem>& problems,
                       obs::DiagnosisLog& dlog, const ServiceRecords* records);

  /// Keep the period's report and DiagnosisLog, trimming both to
  /// `history_limit`; aged-out logs spill into the journal archive.
  const PeriodReport& retain(PeriodReport&& rep, obs::DiagnosisLog&& dlog,
                             std::size_t history_limit);

  /// Crash: history, DiagnosisLogs and id counters die with the process.
  void forget();
  void save_ids(AnalyzerCheckpoint& cp) const {
    cp.next_problem_id = next_problem_id_;
    cp.next_evidence_id = next_evidence_id_;
  }
  void restore_ids(const AnalyzerCheckpoint& cp) {
    next_problem_id_ = cp.next_problem_id;
    next_evidence_id_ = cp.next_evidence_id;
  }

  std::uint64_t next_problem_id_ = 1;
  std::uint64_t next_evidence_id_ = 1;
  // Checkpoints save/load and aged-out DiagnosisLogs archive under role_.
  StateJournal* journal_ = nullptr;
  std::string role_;

 private:
  std::vector<ServiceBinding> services_;
  std::deque<PeriodReport> history_;
  // One DiagnosisLog per period, trimmed in lockstep with history_.
  std::deque<obs::DiagnosisLog> diagnosis_;
};

}  // namespace rpm::core
