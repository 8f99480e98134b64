// The Analyzer's §4.3 pipeline as a reusable engine (ROADMAP "Hierarchical
// federation").
//
// AnalysisCore owns the seven-stage period pipeline — timeout triage,
// anomalous-RNIC detection, Algorithm 1 voting, bottleneck scans, SLA
// tables, impact assessment — plus all the state it threads across periods
// (host liveness clocks, RNIC blame windows, verdict/diagnosis history,
// monotone problem/evidence ids). It deliberately does NOT own ingestion,
// scheduling, or outage handling: those stay in the `Analyzer` facade
// (core/analyzer.h), which drives the core once per period. That split is
// what lets three roles share one pipeline:
//
//   flat Analyzer   the pre-federation deployment — one core fed by one
//                   IngestSink (byte-identical to the historical pipeline);
//   PodAnalyzer     a core scoped to one pod's hosts, emitting a PodDigest
//                   per period (core/federation.h);
//   GlobalAnalyzer  no core at all — it merges digests, but reuses the
//                   core's voting/SLA shapes via core/digest.h.
//
// Federation hooks are opt-in via FederationScratch: when a scratch is
// passed to analyze_period(), timeouts whose target host is outside the
// local set are *deferred* (exported as ForeignTimeouts) instead of being
// voted locally — a pod cannot tell a dead foreign host from a switch drop,
// and misvoting those paths is exactly the false-positive mode federation
// must not introduce. With a null scratch the pipeline is byte-identical to
// the pre-federation Analyzer.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/controller.h"
#include "core/digest.h"
#include "core/journal.h"
#include "core/types.h"
#include "obs/diagnosis.h"
#include "sketch/sketch.h"
#include "telemetry/metrics.h"
#include "topo/topology.h"

namespace rpm::core {

/// How the Analyzer sources its SLA tables and triage statistics (ROADMAP
/// "Switch-side sketch summaries").
///
///   kOff  raw probe records only — byte-identical to the historical
///         pipeline (the repo-wide same-seed guarantee holds against the
///         pre-sketch baseline).
///   kOn   Agents fold healthy OK records into mergeable HostSummary
///         sketches and switches export per-link sketches; SLA percentiles
///         and the Fig.-6 / bottleneck statistics are computed from the
///         merged sketches, with raw records kept only for probes that
///         carry diagnostic signal (timeouts, service tracing, outliers).
///         Deterministically reproducible: same seed => byte-identical
///         verdicts, but NOT byte-identical to kOff (percentiles come from
///         sketch buckets, not exact order statistics).
enum class SketchMode : std::uint8_t { kOff, kOn };

struct AnalyzerConfig {
  TimeNs period = sec(20);                     // §5
  double rnic_timeout_threshold = 0.10;        // §5: >10% ToR-mesh timeouts
  TimeNs rnic_blame_window = sec(60);          // §5: blame RNIC for 1 min
  TimeNs host_silence_threshold = sec(20);     // §5: no upload for 20 s
  std::size_t min_anomalies_for_problem = 3;   // evidence floor
  TimeNs high_rtt_threshold = usec(500);       // congestion flag
  TimeNs high_proc_delay_threshold = msec(5);  // CPU-overload flag
  TimeNs starve_delay_threshold = msec(100);   // Fig. 6 responder-delay test
  // Once the Fig. 6 filter flags a host, keep filtering its timeouts as
  // agent-CPU noise for this long: a starved prober drains its observation
  // backlog for several periods after the service releases the CPU, and
  // those straggler records must not reach Algorithm-1 voting. Mirrors the
  // §5 rnic_blame_window hangover on the noise side.
  TimeNs cpu_noise_window = sec(60);
  double degradation_threshold = 0.5;          // metric below => severe (P0)
  bool enable_cpu_noise_filters = true;        // Fig. 6 improvements
  std::size_t history_limit = 512;
  /// Sketch-driven analysis (see SketchMode above). RPingmesh propagates
  /// this to its Agents (upload thinning) and wires the switch-side sketch
  /// exporter only when kOn, so kOff leaves the whole schedule untouched.
  SketchMode sketch_mode = SketchMode::kOff;
};

/// How the Analyzer watches a service's key performance metric (§4.3.4):
/// `metric` returns the current relative performance in [0,1].
struct ServiceBinding {
  ServiceId id;
  std::function<double()> metric;
};

/// Per-period federation exchange. The caller (PodAnalyzer) fills
/// `local_hosts` once; analyze_period() clears and refills every output
/// field each call — together with the PeriodReport and DiagnosisLog they
/// are exactly the material a PodDigest carries.
struct FederationScratch {
  /// Hosts this pod's Agents upload for. Timeouts targeting hosts outside
  /// this set are deferred to the global tier instead of triaged locally.
  std::unordered_set<std::uint32_t> local_hosts;

  // Outputs (rebuilt per analyze_period call):
  std::vector<ForeignTimeout> foreign;
  std::vector<std::uint32_t> down_hosts;                           // sorted
  std::vector<std::pair<std::uint32_t, TimeNs>> blamed_rnics;      // sorted
  std::vector<std::uint32_t> cpu_noise_hosts;                      // sorted
  SlaDigest cluster_sla;
  std::vector<std::pair<std::uint32_t, SlaDigest>> service_slas;   // sorted
  std::vector<ServiceNetDigest> service_nets;                      // sorted
};

/// The §4.3 pipeline engine. All calls on the sim thread. Drive it with
/// analyze_period() once per period boundary; feed liveness via
/// note_host_alive() as uploads arrive.
class AnalysisCore {
 public:
  /// `directory` answers comm_info() for QPN-reset triage. It may be
  /// retargeted later (set_directory) when a standby Controller takes over.
  AnalysisCore(const topo::Topology& topo, const Controller* directory,
               AnalyzerConfig cfg);

  void set_directory(const Controller* directory) { directory_ = directory; }

  /// Receipt of ANY upload — duplicate included — proves the host alive.
  void note_host_alive(HostId h, TimeNs now) {
    last_upload_[h.value] = now;
    known_hosts_.insert(h.value);
  }

  /// Outage recovery: every known host's silence clock restarts at `now`
  /// so the blackout itself never reads as a wave of host-down verdicts.
  void forgive_silence(TimeNs now) {
    for (auto& [host, last] : last_upload_) last = std::max(last, now);
  }

  void set_period_boundary(TimeNs t) { last_period_end_ = t; }
  [[nodiscard]] TimeNs period_boundary() const { return last_period_end_; }

  void register_service(ServiceBinding binding);
  [[nodiscard]] const std::vector<ServiceBinding>& services() const {
    return services_;
  }

  /// Switch-side sketch ingestion (sketch_mode == kOn): deduplicated by
  /// (exporter, seq) and merged per link until the next period drains them.
  void ingest_sketch(sketch::SketchReport&& rep) {
    sketch_store_.ingest(std::move(rep));
  }
  [[nodiscard]] const sketch::SketchStore& sketch_store() const {
    return sketch_store_;
  }

  /// Run the seven-stage pipeline over one period's drained records and
  /// folded summary. `fed == nullptr` reproduces the pre-federation
  /// pipeline byte for byte; with a scratch, foreign-targeted timeouts are
  /// deferred and the digest outputs are filled (see FederationScratch).
  const PeriodReport& analyze_period(std::vector<ProbeRecord> records,
                                     const sketch::HostSummary& summary,
                                     TimeNs now, FederationScratch* fed);

  [[nodiscard]] const std::deque<PeriodReport>& history() const {
    return history_;
  }
  [[nodiscard]] const PeriodReport* last_report() const {
    return history_.empty() ? nullptr : &history_.back();
  }
  [[nodiscard]] bool network_innocent(ServiceId service) const;
  [[nodiscard]] std::string explain(std::uint64_t problem_id) const;
  [[nodiscard]] const obs::EvidenceChain* evidence(EvidenceRef ref) const;
  [[nodiscard]] const obs::DiagnosisLog* last_diagnosis() const {
    return diagnosis_.empty() ? nullptr : &diagnosis_.back();
  }
  [[nodiscard]] const std::deque<obs::DiagnosisLog>& diagnosis_history()
      const {
    return diagnosis_;
  }
  [[nodiscard]] const AnalyzerConfig& config() const { return cfg_; }

  // ---- persistence (core::StateJournal) ----

  /// DiagnosisLogs trimmed past history_limit spill into `journal`'s
  /// archive under `role` (explain() falls back to it), and checkpoints
  /// save/load under the same role.
  void attach_journal(StateJournal* journal, std::string role);
  [[nodiscard]] StateJournal* journal() const { return journal_; }
  [[nodiscard]] const std::string& journal_role() const { return role_; }

  /// Export the cross-period pipeline state a restart must not lose.
  void fill_checkpoint(AnalyzerCheckpoint& cp) const;
  /// Restore from a journaled checkpoint (restart path).
  void restore(const AnalyzerCheckpoint& cp);
  /// Crash: drop everything a process death loses (liveness clocks, blame
  /// windows, history, pending sketches, id counters). Journaled state is
  /// re-established by restore().
  void reset_volatile();

  // Self-observability stage names (telemetry labels; public so benches and
  // the GlobalAnalyzer reuse the same label vocabulary).
  static constexpr int kNumStages = 7;
  static const char* stage_name(int stage);

 private:
  void vote_paths(const std::vector<const ProbeRecord*>& records,
                  std::vector<LinkId>& out_links,
                  std::vector<SwitchId>& out_switches,
                  std::vector<std::pair<LinkId, std::size_t>>* top_votes =
                      nullptr,
                  obs::EvidenceChain* chain = nullptr) const;
  SlaReport make_sla(const std::vector<const ProbeRecord*>& records,
                     const std::unordered_set<std::uint64_t>& rnic_timeouts,
                     const std::unordered_set<std::uint64_t>& switch_timeouts)
      const;
  SlaReport make_sla_sketch(
      const std::vector<const ProbeRecord*>& records,
      const sketch::HostSummary& summary,
      const std::unordered_set<std::uint64_t>& rnic_timeouts,
      const std::unordered_set<std::uint64_t>& switch_timeouts) const;

  const topo::Topology& topo_;
  const Controller* directory_;
  AnalyzerConfig cfg_;

  std::unordered_map<std::uint32_t, TimeNs> last_upload_;  // by host id
  std::unordered_set<std::uint32_t> known_hosts_;
  std::unordered_map<std::uint32_t, TimeNs> rnic_blamed_until_;
  // Fig. 6 noise hangover: host id -> filtered-as-noise until (see
  // AnalyzerConfig::cpu_noise_window). Journaled like rnic_blamed_until_.
  std::unordered_map<std::uint32_t, TimeNs> host_noise_until_;
  std::vector<ServiceBinding> services_;
  std::deque<PeriodReport> history_;
  // One DiagnosisLog per period, trimmed in lockstep with history_.
  std::deque<obs::DiagnosisLog> diagnosis_;
  std::uint64_t next_evidence_id_ = 1;
  std::uint64_t next_problem_id_ = 1;
  // Switch-side sketch reports accumulated since the last period drain
  // (sketch_mode == kOn; idle otherwise).
  sketch::SketchStore sketch_store_;
  TimeNs last_period_end_ = 0;
  StateJournal* journal_ = nullptr;
  std::string role_ = "analyzer";

  // Self-observability: the 20 s pipeline is the Analyzer's hot path; each
  // stage's wall-clock cost is tracked so future sharding/batching PRs can
  // show where the time goes.
  struct Metrics {
    telemetry::Counter periods;
    telemetry::Histogram stage_ns[kNumStages];
    telemetry::Counter timeouts_by_cause[5];    // indexed by AnomalyCause
    telemetry::Counter problems_by_category[7];  // indexed by ProblemCategory
    telemetry::Counter problems_by_priority[4];  // indexed by Priority
    // Links whose period sketch showed drops — the links whose raw records
    // the sketch pipeline still wants verbatim (sketch_mode == kOn only).
    telemetry::Counter raw_fallback_links;
  };
  Metrics metrics_;
};

}  // namespace rpm::core
