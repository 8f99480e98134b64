// R-Pingmesh Agent (§4.2).
//
// One Agent runs per host and manages every RNIC on it. Per RNIC it keeps a
// single UD QP (connectionless: no QPC-cache pressure, Table 1) used for all
// four roles the paper implements as threads: ToR-mesh probing, inter-ToR
// probing, service-tracing probing, and responding.
//
// The measurement protocol is Figure 4's, faithfully:
//   ① prober application timestamp before posting    (host clock)
//   ② prober RNIC send CQE                            (prober RNIC clock)
//   ③ responder RNIC recv CQE                         (responder RNIC clock)
//   ④ responder RNIC send CQE of ACK1                 (responder RNIC clock)
//   ⑤ prober RNIC recv CQE of ACK1                    (prober RNIC clock)
//   ⑥ prober application timestamp when it sees ACK1  (host clock)
// ACK2 carries ④-③ (the responder cannot know ④ before ACK1 is on the
// wire, hence the second ACK). Then:
//   network RTT      = (⑤-②) - (④-③)
//   responder delay  = ④-③
//   prober delay     = (⑥-①) - (⑤-②)
// Every subtraction pairs readings of ONE clock, so the RNICs' and hosts'
// offsets/drift cancel. A probe missing either ACK at the 500 ms probe
// timeout (§5) is reported as a timeout.
//
// Service tracing (§4.2.2): the Agent attaches to the host's
// modify_qp/destroy_qp tracepoints; each RC connect contributes a pinglist
// entry reusing the service flow's exact 5-tuple (so ECMP routes probes onto
// the service's path); destroy removes it. The service pinglist is shuffled
// every round (§7.3: probe randomly to avoid phase-locking with the
// compute/communicate cycle). An RNIC's service-tracing task sleeps while it
// has no connection to trace (none live, none parked) and a connect wakes it
// on its original phase grid.
//
// Path tracing (§4.2.3): paths are traced continuously (not on failure),
// subject to the switches' Traceroute response rate limits.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/controller.h"
#include "core/types.h"
#include "core/verdict.h"
#include "host/cluster.h"
#include "sim/scheduler.h"
#include "telemetry/metrics.h"
#include "transport/transport.h"

namespace rpm::core {

struct AgentConfig {
  TimeNs service_probe_interval = msec(10);  // §5
  // §7.4: on fabrics that support INT, path tracing uses the data plane —
  // no switch-CPU rate limits, so traced paths are always fresh.
  bool use_int_telemetry = false;
  // Batched uploads (ROADMAP): hold the outbox for this many upload periods
  // before flushing one coalesced batch — unless it already holds 8,192
  // records, which flushes immediately. Must stay small enough that
  // coalesce_periods * the 5 s upload interval < kHostSilenceThreshold, or
  // healthy hosts read as down.
  std::uint32_t upload_coalesce_periods = 2;
};

class Agent {
 public:
  /// `directory` is a read-only comm-info lookup used synchronously on the
  /// service-connect tracepoint (production: a host-local read replica of
  /// the Controller's registry). Everything else — registration, pinglist
  /// pulls, uploads — rides the transport: `upload_ch` carries UploadBatch
  /// messages to the Analyzer, `ctrl_rpc` carries AgentRegistration and
  /// PinglistPullRequest calls to the Controller.
  ///
  /// `analysis` is the deployment's Analyzer config, from which the Agent
  /// derives its upload thinning: only under sketch_mode kOn does it fold
  /// healthy OK records into a mergeable HostSummary instead of shipping
  /// them raw. Records that carry diagnostic signal always stay raw: every
  /// timeout, every service-tracing probe, OK probes whose RTT exceeds the
  /// Analyzer's high_rtt_threshold or whose responder delay exceeds
  /// kHighProcDelayThreshold (they feed its outlier triage), and
  /// flight-sampled probes (their recorder timeline must stay resolvable).
  Agent(host::Cluster& cluster, HostId host, const Controller& directory,
        transport::Channel& upload_ch, transport::RpcChannel& ctrl_rpc,
        AgentConfig cfg = {}, const AnalyzerConfig& analysis = {});
  ~Agent();
  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  /// Create UD QPs, register comm info with the Controller, pull pinglists,
  /// attach service tracepoints, start all periodic tasks.
  void start();
  void stop();

  /// Simulate the Agent process restarting (e.g. host reboot): every UD QP
  /// is recreated with a fresh QPN and the Controller is re-registered.
  /// Other Agents' pinglists stay stale until their next refresh — the
  /// "QPN reset" noise source (§4.3.1).
  void restart();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] HostId host_id() const { return host_; }

  /// Trigger a pinglist pull RPC (normally every 5 minutes). The response
  /// applies asynchronously after a control-plane round trip.
  void refresh_pinglists();

  /// Epoch-fenced application of a pinglist pull response. A response
  /// stamped with an epoch OLDER than the newest this Agent has heard (via
  /// registration/heartbeat acks or a fresher pull) is a stale list from a
  /// deposed primary still draining its wire — counted and discarded, never
  /// applied. Public so tests can inject doctored responses.
  void deliver_pinglist_response(PinglistPullResponse rsp);

  /// Pinglist responses rejected by the epoch fence (lifetime count).
  [[nodiscard]] std::uint64_t stale_pinglists() const {
    return stale_pinglists_;
  }
  /// Newest Controller epoch heard on any ack or pull response.
  [[nodiscard]] std::uint64_t controller_epoch_seen() const {
    return ctrl_epoch_seen_;
  }

  /// Retarget the comm-info directory after a standby Controller takeover
  /// (production: the read replica re-syncs against the new primary).
  void set_directory(const Controller* directory) { directory_ = directory; }

  /// Number of service-tracing entries currently tracked (all RNICs).
  [[nodiscard]] std::size_t service_entries() const;

  /// Does this Agent believe its Controller lease is live? False between a
  /// lease expiry (Controller crash) and the accepted re-registration.
  [[nodiscard]] bool registered() const { return registered_; }
  /// Upload batches the transport is still retrying (sent, not yet acked).
  [[nodiscard]] std::size_t uploads_in_flight() const {
    return upload_ch_.in_flight();
  }
  /// How long the oldest of those has waited for its ack; 0 when none.
  [[nodiscard]] TimeNs upload_wait() const;
  /// Accepted re-registrations after a lease loss (lifetime count).
  [[nodiscard]] std::uint64_t reregistrations() const {
    return reregistrations_;
  }
  /// Lease expiries observed (lifetime count).
  [[nodiscard]] std::uint64_t lease_expiries() const {
    return lease_expiries_;
  }

  /// Probes sent / responses issued, for overhead accounting (Figure 7).
  [[nodiscard]] std::uint64_t probes_sent() const { return probes_sent_; }
  [[nodiscard]] std::uint64_t responses_sent() const {
    return responses_sent_;
  }
  /// Approximate resident bytes of Agent state (Figure 7's memory metric).
  [[nodiscard]] std::size_t approx_memory_bytes() const;

 private:
  /// On-the-wire probe/ACK payload (50 B in production; fields below are
  /// what matters).
  struct Wire {
    std::uint64_t probe_id = 0;
    std::uint8_t msg = 0;  // 0 = probe, 1 = ACK1, 2 = ACK2
    TimeNs responder_delay = 0;  // ACK2 only: ④-③
    Qpn reply_qpn;               // probe only: where ACKs go
    std::uint32_t prober_rnic = 0;
    // Probe only: flight-recorder sampled. Lets the responder record its
    // side (③ recv, wakeup, ACK posts) onto the probe's timeline without a
    // recorder lookup for the unsampled common case.
    bool sampled = false;
  };

  struct PathCacheEntry {
    routing::Path fwd;
    routing::Path rev;
    bool known = false;
    TimeNs traced_at = kNoTime;
  };

  struct Pending {
    ProbeRecord record;
    TimeNs t1_host = 0;
    TimeNs t2_rnic = kNoTime;
    TimeNs t5_rnic = kNoTime;
    TimeNs t6_host = kNoTime;
    bool have_ack2 = false;
    bool done = false;
    std::uint32_t rnic_slot = 0;
  };

  struct RnicState {
    RnicId rnic;
    Qpn ud_qpn;
    Pinglist tormesh;
    Pinglist intertor;
    std::vector<PinglistEntry> service;
    std::size_t tormesh_next = 0;
    std::size_t intertor_next = 0;
    std::size_t service_next = 0;
    std::unordered_map<std::uint32_t, PinglistEntry> service_by_qpn;
    // Service connections made before their peer's Agent registered (no
    // comm info yet): retried on every service-tracing tick.
    std::vector<verbs::ModifyQpEvent> parked_services;
    // When service_task first fires: it ticks on service_origin + k *
    // service_probe_interval, also after sleeping.
    TimeNs service_origin = 0;
    std::unordered_map<std::uint64_t, PathCacheEntry> paths;  // by tuple hash
    std::unique_ptr<sim::PeriodicTask> tormesh_task;
    std::unique_ptr<sim::PeriodicTask> intertor_task;
    std::unique_ptr<sim::PeriodicTask> service_task;
  };

  void create_qps();
  void register_with_controller();
  /// Capped exponential backoff with per-agent jitter: base * 2^attempt up
  /// to max, plus uniform [0, jitter] from rng_.
  [[nodiscard]] TimeNs backoff_delay(std::uint32_t attempt);
  /// Periodic lease check: renews via AgentHeartbeat, detects expiry, and
  /// kicks the re-registration loop when the Controller forgot us.
  void heartbeat_tick();
  void begin_reregistration();
  void apply_pinglist_response(PinglistPullResponse rsp);
  void flush_outbox();
  /// Ship one batch on the upload channel and bind its sampled probe ids to
  /// the carrying channel message.
  void send_batch(UploadBatch&& batch);
  /// Channel on_expire: the transport evicted (drop-oldest window) or
  /// cancelled the batch; marks its sampled records dropped.
  void on_upload_expired(std::uint64_t chan_seq, std::any& payload);
  void attach_tracepoints();
  void detach_tracepoints();
  void probe_next(std::uint32_t slot, ProbeKind kind);
  void send_probe(std::uint32_t slot, const PinglistEntry& entry);
  void on_cqe(std::uint32_t slot, const rnic::Cqe& cqe);
  void handle_probe(std::uint32_t slot, const rnic::Cqe& cqe, const Wire& w);
  void handle_ack(std::uint32_t slot, const rnic::Cqe& cqe, const Wire& w);
  void finalize_if_complete(std::uint64_t probe_id);
  [[nodiscard]] bool foldable(const ProbeRecord& r) const;
  void fold_record(const ProbeRecord& r);
  void finalize_timeout(std::uint64_t probe_id);
  PathCacheEntry& traced_paths(std::uint32_t slot, const PinglistEntry& e);
  void upload_now();
  void on_service_connect(const verbs::ModifyQpEvent& e);
  /// Restart `st`'s sleeping service-tracing task at its next grid point
  /// after now, if it has a connection to trace.
  void wake_service_tracing(RnicState& st);
  /// Add the connection to `st`'s service pinglist; false (nothing added)
  /// while the directory has no comm info for its peer.
  bool track_service(RnicState& st, const verbs::ModifyQpEvent& e);
  void on_service_disconnect(const verbs::DestroyQpEvent& e);
  [[nodiscard]] bool host_down() const;

  host::Cluster& cluster_;
  HostId host_;
  const Controller* directory_;  // retargeted on standby failover
  transport::Channel& upload_ch_;
  transport::RpcChannel& ctrl_rpc_;
  AgentConfig cfg_;
  const bool fold_uploads_;       // analysis.sketch_mode == kOn
  const TimeNs keep_rtt_above_;   // analysis.high_rtt_threshold
  Rng rng_;

  bool running_ = false;
  // Bumped on stop(): RPC responses in flight across a restart carry the
  // old epoch and are discarded instead of resurrecting stale pinglists.
  std::uint64_t epoch_ = 0;
  std::uint64_t next_batch_seq_ = 1;  // monotone across restarts
  std::uint32_t periods_since_flush_ = 0;
  // Lease-based liveness (control-plane survivability).
  bool registered_ = false;
  TimeNs lease_expiry_ = kNoTime;   // simulated deadline of the held lease
  TimeNs lease_duration_ = 0;       // as granted in the RegistrationAck
  std::uint32_t reg_attempt_ = 0;   // consecutive unanswered registrations
  bool rereg_pending_ = false;      // current registration follows a lost lease
  // Epoch fencing (ControllerGroup failover): newest Controller epoch heard
  // and how many pinglist responses the fence rejected. The metric series
  // registers lazily on the first rejection so flat deployments (where the
  // fence never trips) add no telemetry output.
  std::uint64_t ctrl_epoch_seen_ = 0;
  std::uint64_t stale_pinglists_ = 0;
  telemetry::Counter stale_pinglists_total_;
  bool stale_metric_registered_ = false;
  std::uint64_t lease_expiries_ = 0;
  std::uint64_t reregistrations_ = 0;
  std::vector<RnicState> rnics_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::vector<ProbeRecord> outbox_;
  // Sketch-mode thinning accumulator: healthy OK records folded since the
  // last flush (empty, and never touched, when fold_uploads_ is off).
  sketch::HostSummary summary_;
  std::uint64_t next_probe_id_;
  std::uint64_t next_wr_id_ = 1;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t responses_sent_ = 0;
  int modify_handle_ = 0;
  int destroy_handle_ = 0;
  // responder-side context for ACK1 send CQEs, keyed by wr_id
  struct ResponderCtx {
    std::uint32_t slot = 0;
    TimeNs t3_rnic = 0;
    Gid prober_gid;
    Qpn prober_qpn;
    std::uint16_t src_port = 0;
    std::uint64_t probe_id = 0;
    bool sampled = false;  // probe is flight-recorded
  };
  std::unordered_map<std::uint64_t, ResponderCtx> responder_ctx_;
  std::unique_ptr<sim::PeriodicTask> upload_task_;
  std::unique_ptr<sim::PeriodicTask> refresh_task_;
  std::unique_ptr<sim::PeriodicTask> heartbeat_task_;

  // Self-observability handles, labeled {host, kind} and created once at
  // construction — hot paths only touch cached handles.
  struct Metrics {
    telemetry::Counter probes_sent[3];      // indexed by ProbeKind
    telemetry::Counter probes_completed[3];
    telemetry::Counter probe_timeouts[3];
    telemetry::Histogram rtt_ns[3];
    telemetry::Counter responses_sent;
    telemetry::Counter uploads;
    telemetry::Counter upload_records;
    telemetry::Counter upload_folded;   // records folded into HostSummary
    // Control-plane survivability.
    telemetry::Counter lease_expired;       // leases lost to missed renewals
    telemetry::Counter reregistrations;     // accepted re-registrations
    telemetry::Histogram backoff_delay_ns;  // reconnect backoff delays
  };
  Metrics metrics_;
};

}  // namespace rpm::core
