// Shared vocabulary of the R-Pingmesh system: probe records, pinglists,
// communication info, problems, priorities, SLA reports.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/five_tuple.h"
#include "common/types.h"
#include "routing/ecmp.h"
#include "sketch/sketch.h"

namespace rpm::core {

/// Which probing task produced a probe (§3.2).
enum class ProbeKind : std::uint8_t {
  kTorMesh,         // Cluster Monitoring: all RNICs under the same ToR
  kInterTor,        // Cluster Monitoring: Equation-1-sized cross-ToR tuples
  kServiceTracing,  // probes reusing live service-flow 5-tuples
};

const char* probe_kind_name(ProbeKind k);

enum class ProbeStatus : std::uint8_t { kOk, kTimeout };

/// Latest communication info of an Agent-managed RNIC, as stored by the
/// Controller (§4.1). The QPN changes whenever the Agent (re)starts.
struct RnicCommInfo {
  RnicId rnic;
  IpAddr ip;
  Gid gid;
  Qpn qpn;
};

/// One entry of a pinglist: whom to probe and with which 5-tuple.
struct PinglistEntry {
  RnicId target;
  Gid target_gid;
  Qpn target_qpn;
  FiveTuple tuple;  // src_port chosen by the Controller / service monitor
  ProbeKind kind = ProbeKind::kTorMesh;
  ServiceId service;  // valid for service-tracing entries
};

/// A pinglist plus the probing cadence the Controller computed for it.
struct Pinglist {
  std::vector<PinglistEntry> entries;
  TimeNs probe_interval = msec(100);
};

/// One probe's outcome, as uploaded by the Agent to the Analyzer (§4.2.3).
struct ProbeRecord {
  std::uint64_t id = 0;
  ProbeKind kind = ProbeKind::kTorMesh;
  RnicId prober;
  RnicId target;
  HostId prober_host;
  FiveTuple tuple;
  Qpn target_qpn;       // the QPN the probe addressed (QPN-reset detection)
  ServiceId service;    // service-tracing probes only
  TimeNs sent_at = 0;   // upload bookkeeping (wall time)
  ProbeStatus status = ProbeStatus::kTimeout;
  // valid when status == kOk:
  TimeNs network_rtt = 0;       // (⑤-②)-(④-③)
  TimeNs responder_delay = 0;   // ④-③ (from the second ACK)
  TimeNs prober_delay = 0;      // (⑥-①)-(⑤-②)
  // most recent traced paths for this 5-tuple (may be stale; §4.2.3):
  routing::Path fwd_path;
  routing::Path rev_path;
  bool path_known = false;
  // Set at probe birth when the flight recorder sampled this probe: every
  // later layer (Analyzer ingest/verdict) records onto its timeline with a
  // single flag check instead of a hash lookup.
  bool flight_sampled = false;
};
// Paths keep their links inline, so a record owns no heap memory: uploads,
// transport batches and the ingest buffer move records as plain bytes.
static_assert(std::is_trivially_copyable_v<ProbeRecord>);

/// Final categorization of an anomalous probe (§4.3).
enum class AnomalyCause : std::uint8_t {
  kHostDown,       // non-network: target host stopped uploading
  kQpnReset,       // probe noise: stale QPN
  kAgentCpuNoise,  // probe noise: service starved the Agent (Fig. 6 right)
  kRnicProblem,    // network, RNIC side
  kSwitchProblem,  // network, switch/link side
};

const char* anomaly_cause_name(AnomalyCause c);

/// Problem priorities of §2.4 / §4.3.4.
enum class Priority : std::uint8_t {
  kP0,     // in service network + service metric degraded: fix NOW
  kP1,     // in service network, service still healthy: fix on benefit
  kP2,     // outside the service network
  kNoise,  // not a real problem (filtered probe noise)
};

const char* priority_name(Priority p);

enum class ProblemCategory : std::uint8_t {
  kHostDown,
  kRnicProblem,
  kSwitchNetworkProblem,
  kHighNetworkRtt,       // congestion-flavoured bottleneck
  kHighProcessingDelay,  // end-host (CPU) bottleneck
  kQpnResetNoise,
  kAgentCpuNoise,
};

const char* problem_category_name(ProblemCategory c);

/// Reference into the per-period obs::DiagnosisLog: the evidence chain
/// (input probe ids, Algorithm 1 vote tally, thresholds compared, triage
/// branch) behind a verdict. Resolve with Analyzer::evidence() or render
/// with Analyzer::explain(problem_id).
struct EvidenceRef {
  std::uint64_t id = 0;
  [[nodiscard]] bool valid() const { return id != 0; }
};

/// A detected-and-located problem emitted by the Analyzer each period.
struct Problem {
  /// Analyzer-unique id (monotone across periods); key for explain().
  std::uint64_t problem_id = 0;
  /// Evidence chain backing this verdict in the period's DiagnosisLog.
  EvidenceRef evidence;
  ProblemCategory category{};
  Priority priority = Priority::kP2;
  // Location (whichever fields apply):
  RnicId rnic;
  HostId host;
  std::vector<LinkId> suspect_links;      // Algorithm 1 winners
  std::vector<SwitchId> suspect_switches; // Algorithm 1 (switch granularity)
  // Top-10 of the Algorithm-1 vote histogram (descending), for operators who
  // want to compare suspicion across problems (e.g. two tenants fingering
  // the same congested link while tie-breaks differ).
  std::vector<std::pair<LinkId, std::size_t>> top_link_votes;
  // Evidence:
  std::size_t anomalous_probes = 0;
  bool in_service_network = false;
  ServiceId service;           // when attributable to one service
  bool detected_by_service_tracing = false;
  std::string summary;
};

/// Per-period SLA aggregate (cluster-wide or per service network), §5.
struct SlaReport {
  std::size_t probes = 0;
  std::size_t timeouts = 0;
  double rnic_drop_rate = 0.0;    // timeouts attributed to RNICs / probes
  double switch_drop_rate = 0.0;  // timeouts attributed to switches / probes
  // distributions in nanoseconds:
  double rtt_mean = 0;
  double rtt_p50 = 0, rtt_p90 = 0, rtt_p99 = 0, rtt_p999 = 0;
  double proc_p50 = 0, proc_p90 = 0, proc_p99 = 0, proc_p999 = 0;
  /// Set when this SLA window violated a target (network-attributed drops or
  /// RTT tail over threshold); points at the violation's evidence chain.
  EvidenceRef evidence;
};

// ---- control-plane wire messages (src/transport payloads) ----

/// One Agent upload: every record accumulated since the last flush, possibly
/// coalescing several 5 s periods and all of the host's RNICs (ROADMAP
/// "Batched Agent uploads"). `seq` is monotone per Agent so the Analyzer can
/// suppress duplicate deliveries of a retried batch.
struct UploadBatch {
  HostId host;
  std::uint64_t seq = 0;
  std::vector<ProbeRecord> records;
  /// Sketch-mode upload thinning (AnalyzerConfig::sketch_mode == kOn): the
  /// mergeable summary of the healthy probe records the Agent folded out of
  /// `records` instead of shipping raw. Empty in sketch_mode == kOff.
  sketch::HostSummary summary;
};

/// Estimated wire size of an upload batch for the transport bandwidth cost
/// model: a fixed per-record cost plus the traced paths riding along, plus
/// the folded summary's exact serialized size.
[[nodiscard]] std::size_t upload_batch_wire_bytes(const UploadBatch& b);

/// Agent -> Controller on (re)start: freshest comm info for every RNIC the
/// Agent manages.
struct AgentRegistration {
  HostId host;
  std::vector<RnicCommInfo> rnics;
};

/// Controller -> Agent reply to a registration: whether it was accepted
/// (a crashed Controller accepts nothing) and the lease the Agent must keep
/// refreshed by heartbeats.
struct RegistrationAck {
  bool accepted = false;
  std::uint64_t controller_epoch = 0;
  TimeNs lease_duration = 0;
};

/// Agent -> Controller heartbeat refreshing the registration lease.
struct AgentHeartbeat {
  HostId host;
};

/// Controller -> Agent heartbeat reply. `known == false` means the
/// Controller holds no registration for the host (it restarted and lost its
/// registry): the Agent must re-register immediately.
struct HeartbeatAck {
  bool known = false;
  std::uint64_t controller_epoch = 0;
};

/// Agent -> Controller every 5 minutes (§5): pinglists for the host's RNICs
/// plus refreshed comm info for its service-tracing targets.
struct PinglistPullRequest {
  HostId host;
  std::vector<RnicId> rnics;
  std::vector<RnicId> comm_targets;
};

struct PinglistPullResponse {
  struct PerRnic {
    RnicId rnic;
    Pinglist tormesh;
    Pinglist intertor;
  };
  std::vector<PerRnic> rnics;
  std::vector<RnicCommInfo> comm;  // answers for comm_targets (found only)
  /// Epoch of the Controller that served this response. Agents fence with
  /// it: a response carrying an epoch older than the newest one the Agent
  /// has heard (registration/heartbeat acks) is a stale pinglist from a
  /// deposed primary and must be discarded, not applied.
  std::uint64_t controller_epoch = 0;
};

/// Everything one 20 s analysis period produced.
struct PeriodReport {
  TimeNs period_start = 0;
  TimeNs period_end = 0;
  std::vector<Problem> problems;
  SlaReport cluster_sla;
  std::vector<std::pair<ServiceId, SlaReport>> service_slas;
  std::size_t records_processed = 0;
  // Per-cause anomalous-probe counts (diagnostics).
  std::size_t timeouts_host_down = 0;
  std::size_t timeouts_qpn_reset = 0;
  std::size_t timeouts_agent_cpu = 0;
  std::size_t timeouts_rnic = 0;
  std::size_t timeouts_switch = 0;
};

}  // namespace rpm::core
