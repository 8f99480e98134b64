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
// IngestSink, the period tables every accepted batch is folded into as it
// arrives, the close that starts from them (analysis_core.cpp), the
// periodic schedule, outage/crash handling, and journal checkpointing. In a
// federated deployment each pod runs one Analyzer in its pod role
// (serve_pod): it defers foreign timeouts and sends a PodDigest per period
// to the GlobalAnalyzer (core/federation.h).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
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

namespace rpm::transport {
class Channel;
}  // namespace rpm::transport

namespace rpm::core {

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
  /// convenience below. The sink owns duplicate suppression and the id
  /// check (core/ingest.h); each batch it accepts is folded into this
  /// period's tables before submit returns.
  [[nodiscard]] IngestSink& sink() { return sink_; }

  /// Trusted local ingestion (tests, benches, co-located producers): no
  /// duplicate suppression, no batch seq — records are folded straight into
  /// the period's tables. Convenience for sink().submit_trusted().
  void upload(HostId host, std::vector<ProbeRecord> records) {
    sink_.submit_trusted(host, std::move(records));
  }

  /// Optional observer invoked for every uploaded record (monitoring UIs,
  /// benches plotting per-probe series). Not used by the analysis itself.
  void set_record_tap(std::function<void(const ProbeRecord&)> tap) {
    tap_ = std::move(tap);
  }

  /// Begin periodic analysis.
  void start();
  void stop();

  /// Analyzer outage (control-plane survivability). The Analyzer runs only
  /// while it is neither in an outage nor crashed; otherwise nothing is
  /// ingested and no periods run. Resuming forgives every host's upload
  /// silence (bumping its last-upload time to now) so the blackout itself
  /// never reads as a wave of host-down verdicts — hosts kept measuring,
  /// the Analyzer just could not hear them. Ending an outage leaves a
  /// crashed Analyzer down until restore_from_journal().
  void set_outage(bool outage);
  /// True while the Analyzer does not run: in an outage, or crashed.
  [[nodiscard]] bool in_outage() const { return outage_ || crashed_; }
  /// True from crash() until restore_from_journal().
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Close the period: run the analysis over the tables folded since the
  /// previous close, then empty them.
  const PeriodReport& analyze_now();

  [[nodiscard]] const AnalyzerConfig& config() const { return cfg_; }

  /// Retarget QPN-reset triage at a different Controller (standby failover).
  void set_directory(const Controller* directory) { directory_ = directory; }

  // ---- the pod role (federated deployments, core/federation.h) ----

  /// Serve pod `pod`: the hosts flagged in `hosts` (one flag per host id)
  /// upload here. A timeout whose target host is not flagged is deferred to
  /// the global tier in PodDigest::foreign instead of voted — a pod cannot
  /// tell a dead foreign host from a switch drop — and every period close
  /// sends one PodDigest over `channel` (wire bytes from
  /// pod_digest_wire_bytes; null builds and counts digests without sending
  /// them). Called once, before start().
  void serve_pod(std::uint32_t pod, std::vector<bool> hosts,
                 transport::Channel* channel);
  [[nodiscard]] std::uint32_t pod() const { return pod_; }
  /// Digests sent, which is the last digest's seq. It is journaled, so a
  /// restarted pod neither reuses nor skips a sequence number.
  [[nodiscard]] std::uint64_t digests_sent() const { return digest_seq_; }
  [[nodiscard]] std::size_t digest_bytes_sent() const {
    return digest_bytes_sent_;
  }

  // ---- persistence (core::StateJournal) ----

  /// Checkpoint after every period under `role`, spill aged-out
  /// DiagnosisLogs into the journal archive (explain() falls back to it),
  /// and allow restore_from_journal() after a crash.
  void attach_journal(StateJournal* journal, std::string role);

  /// Process crash, in or out of an outage: volatile pipeline state is lost
  /// — the period's tables, liveness clocks, blame windows, history, id
  /// counters, the digest seq — and ingestion stops (the sink is rebuilt
  /// empty and paused). Journaled state survives for
  /// restore_from_journal().
  void crash();

  /// Restart after crash(): reload the journaled checkpoint — (host, seq)
  /// dedup windows, period boundary, id counters, liveness clocks, blame
  /// and noise windows, the digest seq — so drained history is never
  /// re-counted. Returns false when no checkpoint was ever saved, or it
  /// fails to decode (cold start: fresh state and digest seq 0). Either
  /// way the Analyzer resumes at once, or when its outage ends, and upload
  /// silence across the downtime is forgiven then.
  bool restore_from_journal();

 private:
  /// What the greedy RNIC loop reads of a ToR-mesh record with no step-1
  /// cause.
  struct MeshRow {
    std::uint32_t prober;
    std::uint32_t target;
    bool timed_out;
  };
  /// One service's share of the period: its SLA digest, a sample of its
  /// probe ids, and its network — every link, RNIC and host its tracing
  /// probes touched, one flag per topology id.
  struct ServiceTally {
    explicit ServiceTally(const topo::Topology& topo)
        : links(topo.num_links()),
          rnics(topo.num_rnics()),
          hosts(topo.num_hosts()) {}
    SlaDigest sla;
    ProbeSample probes;
    std::vector<bool> links;
    std::vector<bool> rnics;
    std::vector<bool> hosts;
  };
  /// The period's tables: what fold() writes as batches arrive and the
  /// close reads. Each holds what a walk over the period's records at close
  /// would give it, whatever the batch boundaries and record order.
  /// Timeouts stay records, since step 1 reads host liveness and the QPN
  /// directory at close; so do hot-RTT records, whose paths Algorithm 1
  /// votes. Every other record leaves only counts, sketches and id samples.
  struct PeriodTables {
    explicit PeriodTables(const topo::Topology& topo)
        : ok_delay(topo.num_rnics()), host_ok_probes(topo.num_hosts()) {}
    /// Empty every table; the record and row vectors keep their capacity.
    void reset();

    std::size_t records = 0;  // raw records accepted
    // The SLA digests: folded records (sketch mode) seed the cluster
    // digest and never carry a service id.
    SlaDigest cluster_sla;
    std::map<std::uint32_t, ServiceTally> services;
    // Responder delay per RNIC over ALL completed probes, folded ones
    // included: the greedy loop excludes blamed RNICs from its stats, but
    // the Fig. 6 filter needs their delays.
    std::vector<sketch::QuantileSketch> ok_delay;  // by target RNIC id
    // The raw OK records whose delay entered a host's table, by target host
    // id: the processing-delay evidence.
    std::vector<ProbeSample> host_ok_probes;
    // OK ToR-mesh rows; close adds the rows of uncaused timeouts.
    std::vector<MeshRow> mesh;
    // Folded ToR-mesh OK counts by (prober, target) RNIC id.
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t>
        tormesh_ok;
    std::vector<ProbeRecord> timeouts;
    std::vector<ProbeRecord> hot_cluster;  // OK, RTT above the threshold
    std::map<std::uint32_t, std::vector<ProbeRecord>> hot_service;
  };

  IngestHooks sink_hooks();
  /// The sink's fold hook: one accepted batch into period_
  /// (analysis_core.cpp).
  void fold(const std::vector<ProbeRecord>& records,
            const sketch::HostSummary* summary);
  void save_checkpoint();
  /// Pause the sink while the Analyzer does not run; on resuming, every
  /// known host's silence clock and the period boundary restart at now, so
  /// downtime never reads as host-down verdicts or one long period.
  void pause_or_resume();
  /// The pipeline over the period's tables (analysis_core.cpp). Its report
  /// is a function of the period's record multiset: neither record order
  /// nor batch boundaries reach a verdict. A pod passes the digest it will
  /// send, and the pipeline writes the foreign timeouts, the triage sets and
  /// the SLA and service-network digests into it; a flat Analyzer passes
  /// null.
  const PeriodReport& analyze_period(TimeNs now, PodDigest* digest);
  /// Stamp the period's report and DiagnosisLog into `d` and send it.
  void send_digest(PodDigest&& d, const PeriodReport& rep);

  const topo::Topology& topo_;
  const Controller* directory_;
  sim::Scheduler& sched_;
  AnalyzerConfig cfg_;

  std::function<void(const ProbeRecord&)> tap_;
  bool outage_ = false;
  bool crashed_ = false;

  // Cross-period pipeline state (journaled in AnalyzerCheckpoint), indexed
  // by topology id; kNoTime marks an id with no entry.
  std::vector<TimeNs> last_upload_;  // by host id; kNoTime: never heard from
  std::vector<TimeNs> rnic_blamed_until_;  // by RNIC id
  // Fig. 6 noise hangover: by host id, filtered as noise until (see
  // kCpuNoiseWindow in analysis_core.cpp).
  std::vector<TimeNs> host_noise_until_;
  TimeNs last_period_end_ = 0;

  // The pod role (serve_pod). A flat Analyzer has no local-host flags.
  std::uint32_t pod_ = 0;
  std::vector<bool> local_hosts_;  // by host id
  transport::Channel* digest_channel_ = nullptr;
  std::uint64_t digest_seq_ = 0;  // digests sent; journaled across crashes
  std::size_t digest_bytes_sent_ = 0;
  telemetry::Counter digests_total_;
  telemetry::Counter digest_bytes_total_;

  // Self-observability: what the pipeline concluded, in sim-deterministic
  // counters. Its wall-clock cost per stage is the profiler's drain.* rows.
  struct Metrics {
    telemetry::Counter periods;
    telemetry::Counter timeouts_by_cause[5];    // indexed by AnomalyCause
    telemetry::Counter problems_by_category[7];  // indexed by ProblemCategory
    telemetry::Counter problems_by_priority[4];  // indexed by Priority
  };
  PeriodTables period_;
  IngestSink sink_;
  Metrics metrics_;
  std::unique_ptr<sim::PeriodicTask> period_task_;
};

}  // namespace rpm::core
