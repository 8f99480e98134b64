// Federation wire types: the compact per-pod summary a PodAnalyzer flushes
// to the GlobalAnalyzer at every period close (ROADMAP "Hierarchical
// federation"). A PodDigest carries the pod's *verdicts* (Problems plus the
// evidence chains behind them), its mergeable SLA state (exact counts +
// DDSketch quantiles, so the global cluster table is byte-identical for any
// merge order), and the one class of raw data a pod cannot judge alone:
// timeouts whose target host lives in another pod ("foreign" timeouts, which
// the global tier triages against the union of every pod's down-host and
// blamed-RNIC sets, then runs Algorithm 1 voting over).
//
// Digests travel over an ordinary transport::Channel ("digest/p<N>") with
// declared wire bytes (pod_digest_wire_bytes), so rpm_transport_bytes_total
// shows the federation fan-in cost next to the raw upload volume —
// BENCH_federation.json graphs that ratio.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.h"
#include "obs/diagnosis.h"
#include "sketch/sketch.h"

namespace rpm::core {

/// Mergeable SLA state for one probe population (one Analyzer's cluster
/// records, or one service's records): every SLA table of both tiers is a
/// digest's to_report(). Counts are exact; distributions are DDSketches, so
/// merging pods in any grouping yields identical tables.
struct SlaDigest {
  std::size_t probes = 0;
  std::size_t timeouts = 0;
  std::size_t rnic_drops = 0;    // timeouts attributed to RNICs
  std::size_t switch_drops = 0;  // timeouts attributed to switches
  sketch::QuantileSketch rtt;    // network RTT of OK records
  sketch::QuantileSketch proc;   // responder delay of OK records

  void merge(const SlaDigest& other) {
    probes += other.probes;
    timeouts += other.timeouts;
    rnic_drops += other.rnic_drops;
    switch_drops += other.switch_drops;
    rtt.merge(other.rtt);
    proc.merge(other.proc);
  }
  /// Render as the SlaReport shape the PeriodReport carries (rates from the
  /// exact counts, tails from the sketches).
  [[nodiscard]] SlaReport to_report() const;
};

/// A timeout the pod could not triage locally: the target host belongs to
/// another pod, so host-down and target-RNIC blame are unknowable there.
/// Compact slice of the ProbeRecord — just what global triage + Algorithm 1
/// voting need (the 5-tuple traced path, not the payload timestamps).
struct ForeignTimeout {
  std::uint64_t probe_id = 0;
  ProbeKind kind = ProbeKind::kInterTor;
  RnicId prober;
  RnicId target;
  HostId prober_host;
  HostId target_host;
  ServiceId service;
  bool path_known = false;
  std::vector<std::uint32_t> path_links;     // fwd + rev, in path order
  std::vector<std::uint32_t> path_switches;  // fwd + rev, in path order
};

/// The links/RNICs/hosts one service's tracing probes touched inside the
/// pod, so the global impact stage can place *cross-pod* problems in a
/// service network that no single pod saw in full. Sorted, deduplicated.
struct ServiceNetDigest {
  std::uint32_t service = 0;
  std::vector<std::uint32_t> links;
  std::vector<std::uint32_t> rnics;
  std::vector<std::uint32_t> hosts;
};

/// One pod period, flushed by the PodAnalyzer after its local analyze pass.
/// `seq` is monotone per pod (journaled across restarts) so the global tier
/// dedups retried deliveries exactly like the Analyzer dedups UploadBatches.
struct PodDigest {
  std::uint32_t pod = 0;
  std::uint64_t seq = 0;
  TimeNs period_start = 0;
  TimeNs period_end = 0;
  std::size_t records_processed = 0;

  // Local verdicts (problem/evidence ids are pod-local; the global tier
  // re-ids them into its own monotone spaces).
  std::vector<Problem> problems;
  std::vector<obs::EvidenceChain> chains;

  // Pod-local liveness/blame state the global triage consults for OTHER
  // pods' foreign timeouts. Sorted by id for deterministic merging.
  std::vector<std::uint32_t> down_hosts;
  std::vector<std::pair<std::uint32_t, TimeNs>> blamed_rnics;  // blamed until
  // Hosts the pod's Fig. 6 filter flagged as agent-CPU noise this period:
  // cross-pod probes to them timed out because the service starved the
  // Agent, not because of the fabric — the global triage must not let them
  // reach Algorithm-1 voting.
  std::vector<std::uint32_t> cpu_noise_hosts;  // sorted

  // Locally-attributed timeout tallies (foreign ones excluded — the global
  // tier classifies those and adds its own tallies on top).
  std::size_t timeouts_host_down = 0;
  std::size_t timeouts_qpn_reset = 0;
  std::size_t timeouts_agent_cpu = 0;
  std::size_t timeouts_rnic = 0;
  std::size_t timeouts_switch = 0;

  std::vector<ForeignTimeout> foreign;

  SlaDigest cluster_sla;
  std::vector<std::pair<std::uint32_t, SlaDigest>> service_slas;  // sorted
  std::vector<ServiceNetDigest> service_nets;                     // sorted
};

/// Declared wire size for the transport byte accounting / bandwidth model.
/// Mirrors upload_batch_wire_bytes' role for UploadBatch: a deterministic
/// estimator, not a serializer.
[[nodiscard]] std::size_t pod_digest_wire_bytes(const PodDigest& d);

}  // namespace rpm::core
