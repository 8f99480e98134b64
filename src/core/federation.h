// Hierarchical federation (ROADMAP): per-pod Analyzers + a global merge
// tier.
//
// At datacenter scale one Analyzer cannot hold every pod's record stream.
// The federation splits the §4.3 pipeline by pod:
//
//   pod Analyzer    a full Analyzer (IngestSink + record pipeline) in its pod
//                   role (Analyzer::serve_pod), scoped to the hosts of one
//                   pod. It triages locally — host-down, QPN reset,
//                   anomalous RNICs, Algorithm-1 voting over its own
//                   evidence — and once per period emits ONE compact
//                   PodDigest over a transport::Channel: problems, evidence
//                   chains, mergeable SLA sketches, service networks, and
//                   the foreign timeouts it could not triage (the target
//                   host lives in another pod, so "down" vs "switch drop"
//                   is unknowable locally).
//
//   GlobalAnalyzer  consumes PodDigests (deduplicated per pod by seq, the
//                   same window machinery the IngestSink uses per host),
//                   and once per period — offset after the pods fire, so
//                   digests have a control-plane flight's head start —
//                   merges them: union of down-host / blamed-RNIC / noise
//                   sets, triage + Algorithm-1 voting of the deferred
//                   foreign timeouts, cross-pod merge of same-category
//                   problems by suspect-link overlap, cluster/service SLA
//                   tables from the mergeable digests, and the §4.3.4
//                   P0/P1/P2 impact pass against the union service networks.
//                   Triage, voting, impact and the verdict history are the
//                   flat Analyzer's own steps (core/verdict.h).
//
// Wire volume is the point: a PodDigest costs O(problems + sketches), not
// O(records). bench_federation measures the ratio.
//
// Determinism: same seed => byte-identical verdicts for a given pod count;
// pods = 1 keeps the flat deployment, which is byte-identical to the
// pre-federation pipeline.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/digest.h"
#include "core/ingest.h"
#include "core/journal.h"
#include "core/verdict.h"
#include "sim/scheduler.h"
#include "telemetry/metrics.h"
#include "topo/topology.h"

namespace rpm::core {

/// The global merge tier. It never sees a ProbeRecord, only digests — but it
/// runs the same verdict steps and emits the same PeriodReport/DiagnosisLog
/// shapes, so ChaosRunner and the examples score it exactly like a flat
/// Analyzer.
class GlobalAnalyzer : public VerdictLog {
 public:
  /// `cfg` is the pods' own AnalyzerConfig: the period must match theirs so
  /// every merge tick sees one digest per live pod.
  GlobalAnalyzer(const topo::Topology& topo, sim::Scheduler& sched,
                 AnalyzerConfig cfg);

  /// Digest arrival (transport handler). Deduplicated per pod by seq;
  /// buffered until the next merge tick. Dropped during outage.
  void ingest_digest(PodDigest&& d);

  void start();
  void stop();

  /// Outage lifecycle, mirroring Analyzer's: nothing ingested, no merge
  /// ticks; recovery restarts the period boundary at `now`.
  void set_outage(bool outage);
  [[nodiscard]] bool in_outage() const { return outage_; }

  /// Run one merge over every digest buffered since the previous tick.
  const PeriodReport& merge_now();

  [[nodiscard]] const AnalyzerConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t merges() const { return merges_; }
  [[nodiscard]] std::uint64_t duplicate_digests() const {
    return duplicate_digests_;
  }
  /// Highest digest seq accepted from `pod` (0 when none seen) — the chaos
  /// oracle checks it never exceeds what the pod actually sent, i.e. a
  /// journal restore never fabricates or reuses a sequence number.
  [[nodiscard]] std::uint64_t max_digest_seq(std::uint32_t pod) const {
    auto it = digest_dedup_.find(pod);
    return it == digest_dedup_.end() ? 0 : it->second.max_seq;
  }

  /// Journal under role "global": checkpoints hold the per-pod digest dedup
  /// windows + period boundary + id counters; aged-out DiagnosisLogs spill
  /// into the archive.
  void attach_journal(StateJournal* journal);
  void crash();
  bool restart_from_journal();

 private:
  void save_checkpoint();

  const topo::Topology& topo_;
  sim::Scheduler& sched_;
  AnalyzerConfig cfg_;

  std::vector<PodDigest> pending_;
  DedupWindows digest_dedup_;  // by pod
  TimeNs last_period_end_ = 0;
  std::uint64_t merges_ = 0;
  std::uint64_t duplicate_digests_ = 0;
  bool outage_ = false;
  std::unique_ptr<sim::PeriodicTask> merge_task_;
  telemetry::Counter merges_total_;
  telemetry::Counter digests_merged_total_;
};

}  // namespace rpm::core
