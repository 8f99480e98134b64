// R-Pingmesh Analyzer (§4.3, §5).
//
// Every `period` (20 s in production) the Analyzer processes all records
// Agents uploaded during the period:
//
//  1. Rule out non-network timeouts and probe noise (§4.3.1):
//       host down   — the target's Agent stopped uploading (> 20 s silent);
//       QPN reset   — the probe addressed a stale QPN (compare against the
//                     Controller's freshest registration);
//       Agent-CPU   — (Figure 6 fix) probes to MULTIPLE RNICs of one host
//                     "dropped" simultaneously, or the responder showed
//                     huge processing delays: the Agent was starved, the
//                     network is innocent.
//  2. Detect anomalous RNICs from ToR-mesh probes (§4.3.2): an RNIC with
//     > 10% ToR-mesh timeouts is anomalous; every anomalous probe touching
//     it (this period and for the next minute) is attributed to the RNIC
//     and excluded from switch localization.
//  3. Localize switch network problems (§4.3.3, Algorithm 1): vote over the
//     forward+ACK paths of the remaining anomalous probes; the links (and
//     switches) with the most votes are the suspects. Cluster Monitoring
//     and each service's Service Tracing evidence are voted separately.
//  4. Detect performance bottlenecks: sustained high network RTT (switch
//     congestion) and sustained high end-host processing delay (CPU
//     overload, Figure 8).
//  5. Track SLAs (drop rates split RNIC/switch, RTT and processing-delay
//     P50..P999) for the cluster and for each service network.
//  6. Assess service impact (§4.3.4): P0 / P1 / P2 per problem, and the
//     "network innocent" verdict when a degraded service shows no P0/P1.
//
// The verdict steps it shares with the GlobalAnalyzer — triage sets,
// Algorithm 1, impact, the SLA and innocent chains, the verdict history —
// live in core/verdict.h. This class adds what works from records: the
// IngestSink, the per-period pipeline (analysis_core.cpp), the periodic
// schedule, outage/crash handling, and journal checkpointing. It is also
// the role the federation tier wraps per pod (core/federation.h).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/controller.h"
#include "core/digest.h"
#include "core/ingest.h"
#include "core/journal.h"
#include "core/types.h"
#include "core/verdict.h"
#include "obs/diagnosis.h"
#include "sim/scheduler.h"
#include "sketch/sketch.h"
#include "telemetry/metrics.h"
#include "topo/topology.h"

namespace rpm::core {

/// Per-period federation exchange. The caller (PodAnalyzer) fills
/// `local_hosts` once; every period close clears and refills every output
/// field — together with the PeriodReport and DiagnosisLog they are exactly
/// the material a PodDigest carries.
struct FederationScratch {
  /// Hosts this pod's Agents upload for. Timeouts targeting hosts outside
  /// this set are deferred to the global tier instead of triaged locally.
  std::unordered_set<std::uint32_t> local_hosts;

  // Outputs (rebuilt per period):
  std::vector<ForeignTimeout> foreign;
  std::vector<std::uint32_t> down_hosts;                           // sorted
  std::vector<std::pair<std::uint32_t, TimeNs>> blamed_rnics;      // sorted
  std::vector<std::uint32_t> cpu_noise_hosts;                      // sorted
  SlaDigest cluster_sla;
  std::vector<std::pair<std::uint32_t, SlaDigest>> service_slas;   // sorted
  std::vector<ServiceNetDigest> service_nets;                      // sorted
};

class Analyzer : public VerdictLog {
 public:
  /// `controller` answers comm_info() for QPN-reset triage; set_directory()
  /// retargets it when a standby Controller takes over.
  Analyzer(const topo::Topology& topo, const Controller& controller,
           sim::Scheduler& sched, AnalyzerConfig cfg = {});

  /// The ingestion endpoint. This is the Analyzer's entire public ingest
  /// surface: transport deliveries call sink().submit() (dedup by (host,
  /// seq); any batch — duplicate included — proves the host alive), trusted
  /// local producers call sink().submit_trusted() or the upload()
  /// convenience below. The sink owns duplicate suppression and the
  /// period's record buffer (core/ingest.h).
  [[nodiscard]] IngestSink& sink() { return sink_; }

  /// Trusted local ingestion (tests, benches, co-located producers): no
  /// duplicate suppression, no batch seq — records go straight into the
  /// period's buffer. Convenience for sink().submit_trusted().
  void upload(HostId host, std::vector<ProbeRecord> records) {
    sink_.submit_trusted(host, std::move(records));
  }

  /// Optional observer invoked for every uploaded record (monitoring UIs,
  /// benches plotting per-probe series). Not used by the analysis itself.
  void set_record_tap(std::function<void(const ProbeRecord&)> tap) {
    tap_ = std::move(tap);
  }

  /// Switch-side sketch ingestion (sketch_mode == kOn): SketchReports from
  /// the fabric exporter land here, deduplicated by (exporter, seq) and
  /// merged per link until the period drains them. Dropped during outage —
  /// matching the record path, a blacked-out Analyzer hears nothing.
  void ingest_sketch(sketch::SketchReport&& rep);

  /// The sketch store (tests / diagnostics).
  [[nodiscard]] const sketch::SketchStore& sketch_store() const {
    return sketch_store_;
  }

  /// Begin periodic analysis.
  void start();
  void stop();

  /// Analyzer process outage (control-plane survivability). While in
  /// outage, nothing is ingested and no periods run; leaving the outage
  /// forgives every host's upload silence (bumping its last-upload time to
  /// now) so the blackout itself never reads as a wave of host-down
  /// verdicts — hosts kept measuring, the Analyzer just could not hear them.
  void set_outage(bool outage);
  [[nodiscard]] bool in_outage() const { return outage_; }

  /// Run one analysis over everything buffered since the previous period.
  const PeriodReport& analyze_now();

  [[nodiscard]] const AnalyzerConfig& config() const { return cfg_; }

  // ---- federation hooks (core/federation.h) ----

  /// Retarget QPN-reset triage at a different Controller (standby failover).
  void set_directory(const Controller* directory) { directory_ = directory; }

  /// Restrict cause attribution to `scratch->local_hosts` and export
  /// digest material per period (see FederationScratch): timeouts whose
  /// target host is outside the local set are deferred as ForeignTimeouts
  /// instead of voted — a pod cannot tell a dead foreign host from a switch
  /// drop. Null restores the flat pipeline.
  void set_federation_scratch(FederationScratch* scratch) { fed_ = scratch; }

  /// Invoked after every completed period with the report and its
  /// DiagnosisLog — the PodAnalyzer builds and sends its digest here.
  void set_period_hook(
      std::function<void(const PeriodReport&, const obs::DiagnosisLog&)>
          hook) {
    period_hook_ = std::move(hook);
  }

  // ---- persistence (core::StateJournal) ----

  /// Checkpoint after every period under `role`, spill aged-out
  /// DiagnosisLogs into the journal archive (explain() falls back to it),
  /// and allow restore_from_journal() after a crash.
  void attach_journal(StateJournal* journal, std::string role);

  /// Lets the owner stamp extra fields (e.g. the PodAnalyzer's digest_seq)
  /// into every saved checkpoint.
  void set_checkpoint_hook(std::function<void(AnalyzerCheckpoint&)> hook) {
    checkpoint_hook_ = std::move(hook);
  }

  /// Process crash: volatile pipeline state is lost — liveness clocks,
  /// blame windows, history, pending sketches, id counters — and ingestion
  /// stops (the sink is rebuilt empty and paused). Journaled state survives
  /// for restore_from_journal().
  void crash();

  /// Restart after crash(): reload the journaled checkpoint — (host, seq)
  /// dedup windows, period boundary, id counters, liveness clocks — so
  /// drained history is never re-counted. Returns false when no checkpoint
  /// was ever saved (cold start: the Analyzer still leaves the outage, with
  /// fresh state). Upload silence across the downtime is forgiven either
  /// way.
  bool restore_from_journal();

 private:
  IngestHooks sink_hooks();
  void save_checkpoint();
  /// Every known host's silence clock and the period boundary restart at
  /// `now`, so downtime never reads as host-down verdicts or one long
  /// period.
  void forgive_silence(TimeNs now);
  /// The pipeline over one period's drained records and folded summary
  /// (analysis_core.cpp). Its report is a function of the record multiset:
  /// the order of `records` never reaches a verdict.
  const PeriodReport& analyze_period(const std::vector<ProbeRecord>& records,
                                     const sketch::HostSummary& summary,
                                     TimeNs now);

  const topo::Topology& topo_;
  const Controller* directory_;
  sim::Scheduler& sched_;
  AnalyzerConfig cfg_;

  std::function<void(const ProbeRecord&)> tap_;
  std::function<void(const PeriodReport&, const obs::DiagnosisLog&)>
      period_hook_;
  std::function<void(AnalyzerCheckpoint&)> checkpoint_hook_;
  FederationScratch* fed_ = nullptr;
  bool outage_ = false;

  // Cross-period pipeline state (journaled in AnalyzerCheckpoint).
  std::unordered_map<std::uint32_t, TimeNs> last_upload_;  // by host id
  std::unordered_set<std::uint32_t> known_hosts_;
  std::unordered_map<std::uint32_t, TimeNs> rnic_blamed_until_;
  // Fig. 6 noise hangover: host id -> filtered-as-noise until (see
  // kCpuNoiseWindow in analysis_core.cpp).
  std::unordered_map<std::uint32_t, TimeNs> host_noise_until_;
  TimeNs last_period_end_ = 0;
  // Switch-side sketch reports accumulated since the last period drain
  // (sketch_mode == kOn; idle otherwise).
  sketch::SketchStore sketch_store_;

  // Self-observability: what the pipeline concluded, in sim-deterministic
  // counters. Its wall-clock cost per stage is the profiler's drain.* rows.
  struct Metrics {
    telemetry::Counter periods;
    telemetry::Counter timeouts_by_cause[5];    // indexed by AnomalyCause
    telemetry::Counter problems_by_category[7];  // indexed by ProblemCategory
    telemetry::Counter problems_by_priority[4];  // indexed by Priority
    // Links whose period sketch showed drops — the links whose raw records
    // the sketch pipeline still wants verbatim (sketch_mode == kOn only).
    telemetry::Counter raw_fallback_links;
  };
  // The sink is declared (and registers its series) before the pipeline's
  // metrics: the exporter lists series in registration order.
  IngestSink sink_;
  Metrics metrics_;
  std::unique_ptr<sim::PeriodicTask> period_task_;
};

}  // namespace rpm::core
