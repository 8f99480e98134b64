// R-Pingmesh Analyzer (§4.3, §5) — the deployment facade over AnalysisCore.
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
// The pipeline itself lives in AnalysisCore (core/analysis_core.h); this
// class owns what a *deployment* of the pipeline needs — the IngestSink, the
// periodic schedule, outage/crash handling, and journal checkpointing — and
// is the role the federation tier wraps per pod (core/federation.h).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/analysis_core.h"
#include "core/controller.h"
#include "core/ingest.h"
#include "core/journal.h"
#include "core/types.h"
#include "obs/diagnosis.h"
#include "sim/scheduler.h"
#include "sketch/sketch.h"
#include "topo/topology.h"

namespace rpm::core {

class Analyzer {
 public:
  Analyzer(const topo::Topology& topo, const Controller& controller,
           sim::Scheduler& sched, AnalyzerConfig cfg = {});

  /// The ingestion endpoint. This is the Analyzer's entire public ingest
  /// surface: transport deliveries call sink().submit() (dedup by (host,
  /// seq); any batch — duplicate included — proves the host alive), trusted
  /// local producers call sink().submit_trusted() or the upload()
  /// convenience below. The sink owns sharding and duplicate suppression
  /// (core/ingest.h).
  [[nodiscard]] IngestSink& sink() { return sink_; }

  /// Trusted local ingestion (tests, benches, co-located producers): no
  /// duplicate suppression, no batch seq — records go straight to a shard.
  /// Convenience for sink().submit_trusted().
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
    return core_->sketch_store();
  }

  void register_service(ServiceBinding binding) {
    core_->register_service(std::move(binding));
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

  [[nodiscard]] const std::deque<PeriodReport>& history() const {
    return core_->history();
  }
  [[nodiscard]] const PeriodReport* last_report() const {
    return core_->last_report();
  }

  /// §4.3.4: true when the last period shows no P0/P1 problem affecting
  /// this service — the network is innocent of the service's woes.
  [[nodiscard]] bool network_innocent(ServiceId service) const {
    return core_->network_innocent(service);
  }

  // ---- diagnosis explainability (src/obs) ----

  /// Render the evidence chain behind a Problem as structured JSON: input
  /// probe ids, Algorithm 1 vote tally, thresholds compared, triage branch.
  /// Searches newest-first; empty string when the id is unknown (with a
  /// journal attached, aged-out periods are searched in its archive too).
  [[nodiscard]] std::string explain(std::uint64_t problem_id) const {
    return core_->explain(problem_id);
  }

  /// Resolve an EvidenceRef (Problem::evidence, SlaReport::evidence).
  [[nodiscard]] const obs::EvidenceChain* evidence(EvidenceRef ref) const {
    return core_->evidence(ref);
  }

  [[nodiscard]] const obs::DiagnosisLog* last_diagnosis() const {
    return core_->last_diagnosis();
  }
  [[nodiscard]] const std::deque<obs::DiagnosisLog>& diagnosis_history()
      const {
    return core_->diagnosis_history();
  }

  [[nodiscard]] const AnalyzerConfig& config() const {
    return core_->config();
  }

  // ---- federation hooks (core/federation.h) ----

  /// Retarget QPN-reset triage at a different Controller (standby failover).
  void set_directory(const Controller* directory) {
    core_->set_directory(directory);
  }

  /// Restrict cause attribution to `scratch->local_hosts` and export
  /// digest material per period (see FederationScratch). Null restores the
  /// flat pipeline.
  void set_federation_scratch(FederationScratch* scratch) { fed_ = scratch; }

  /// Invoked after every completed period with the report and its
  /// DiagnosisLog — the PodAnalyzer builds and sends its digest here.
  void set_period_hook(
      std::function<void(const PeriodReport&, const obs::DiagnosisLog&)>
          hook) {
    period_hook_ = std::move(hook);
  }

  /// Direct pipeline access (federation roles, tests).
  [[nodiscard]] AnalysisCore& core() { return *core_; }
  [[nodiscard]] const AnalysisCore& core() const { return *core_; }

  // ---- persistence (core::StateJournal) ----

  /// Checkpoint after every period under `role`, spill aged-out
  /// DiagnosisLogs into the journal archive, and allow
  /// restore_from_journal() after a crash.
  void attach_journal(StateJournal* journal, std::string role);

  /// Lets the owner stamp extra fields (e.g. the PodAnalyzer's digest_seq)
  /// into every saved checkpoint.
  void set_checkpoint_hook(std::function<void(AnalyzerCheckpoint&)> hook) {
    checkpoint_hook_ = std::move(hook);
  }

  /// Process crash: volatile pipeline state is lost, ingestion stops (the
  /// sink is rebuilt empty and paused). Journaled state survives for
  /// restore_from_journal().
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

  const topo::Topology& topo_;
  sim::Scheduler& sched_;

  std::function<void(const ProbeRecord&)> tap_;
  std::function<void(const PeriodReport&, const obs::DiagnosisLog&)>
      period_hook_;
  std::function<void(AnalyzerCheckpoint&)> checkpoint_hook_;
  FederationScratch* fed_ = nullptr;
  StateJournal* journal_ = nullptr;
  std::string role_ = "analyzer";
  bool outage_ = false;
  // Declared before core_ so its metrics register first: the exporter
  // lists series in registration order.
  IngestSink sink_;
  std::unique_ptr<AnalysisCore> core_;
  std::unique_ptr<sim::PeriodicTask> period_task_;
};

}  // namespace rpm::core
