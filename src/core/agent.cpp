#include "core/agent.h"

#include <algorithm>

#include "obs/flight_recorder.h"
#include "rnic/rnic.h"

namespace rpm::core {

namespace {

constexpr TimeNs kUploadInterval = sec(5);      // §5: upload every 5 s
constexpr TimeNs kProbeTimeout = msec(500);     // §5
constexpr Bytes kProbePayloadBytes = 50;        // §5
constexpr TimeNs kPinglistRefresh = sec(300);   // §5: every 5 minutes
constexpr TimeNs kServiceProbeInterval = msec(10);  // §5
constexpr TimeNs kTraceRefresh = sec(2);        // per-tuple Traceroute cadence
// Batched uploads: the outbox is held for this many upload periods and then
// flushed as one coalesced batch, unless it already holds
// kUploadFlushRecords, which flushes at once.
constexpr std::uint32_t kUploadCoalescePeriods = 2;
constexpr std::size_t kUploadFlushRecords = 8192;
static_assert(kUploadCoalescePeriods * kUploadInterval < kHostSilenceThreshold,
              "a healthy host would read as down between coalesced uploads");
// Control-plane survivability. The lease the Controller granted at
// registration is renewed by heartbeats at this cadence; if renewal fails
// past the lease, the Agent re-registers with capped exponential backoff
// (base * 2^attempt up to max, plus uniform [0, jitter] from the Agent's
// own seeded Rng so a restarted Controller is not hit by every Agent at
// the same instant).
constexpr TimeNs kHeartbeatInterval = sec(5);
constexpr TimeNs kBackoffBase = msec(500);
constexpr TimeNs kBackoffMax = sec(8);
constexpr TimeNs kBackoffJitter = msec(250);

}  // namespace

Agent::Agent(host::Cluster& cluster, HostId host, const Controller& directory,
             transport::Channel& upload_ch, transport::RpcChannel& ctrl_rpc,
             AgentConfig cfg, const AnalyzerConfig& analysis)
    : cluster_(cluster),
      host_(host),
      directory_(&directory),
      upload_ch_(upload_ch),
      ctrl_rpc_(ctrl_rpc),
      cfg_(cfg),
      fold_uploads_(analysis.sketch_mode == SketchMode::kOn),
      keep_rtt_above_(analysis.high_rtt_threshold),
      rng_(cluster.fork_rng()),
      // Distinct id spaces per host so probe ids are globally unique (and
      // never collide with the small wr_ids used for ACK sends).
      next_probe_id_((static_cast<std::uint64_t>(host.value) + 1) << 40) {
  auto& reg = telemetry::registry();
  const std::string host_label = std::to_string(host_.value);
  for (std::uint8_t k = 0; k < 3; ++k) {
    const telemetry::Labels labels = {
        {"host", host_label},
        {"kind", probe_kind_name(static_cast<ProbeKind>(k))}};
    metrics_.probes_sent[k] =
        reg.counter("rpm_agent_probes_sent_total", "Probes posted", labels);
    metrics_.probes_completed[k] = reg.counter(
        "rpm_agent_probes_completed_total",
        "Probes with all four timestamps and ACK2", labels);
    metrics_.probe_timeouts[k] = reg.counter(
        "rpm_agent_probe_timeouts_total", "Probes missing an ACK at timeout",
        labels);
    metrics_.rtt_ns[k] = reg.histogram(
        "rpm_agent_network_rtt_ns", "Measured network RTT, (5-2)-(4-3)",
        labels);
  }
  metrics_.responses_sent = reg.counter("rpm_agent_responses_sent_total",
                                        "ACK1/ACK2 pairs issued as responder",
                                        {{"host", host_label}});
  metrics_.uploads = reg.counter("rpm_agent_uploads_total",
                                 "Record batches uploaded to the Analyzer",
                                 {{"host", host_label}});
  metrics_.upload_records = reg.counter("rpm_agent_upload_records_total",
                                        "Probe records uploaded",
                                        {{"host", host_label}});
  metrics_.upload_folded = reg.counter(
      "rpm_agent_upload_folded_total",
      "Healthy OK records folded into the batch HostSummary (sketch mode)",
      {{"host", host_label}});
  metrics_.lease_expired = reg.counter(
      "rpm_agent_lease_expired_total",
      "Controller leases lost to missed heartbeat renewals",
      {{"host", host_label}});
  metrics_.reregistrations = reg.counter(
      "rpm_agent_reregistrations_total",
      "Registrations accepted after a lost lease", {{"host", host_label}});
  metrics_.backoff_delay_ns = reg.histogram(
      "rpm_agent_reconnect_backoff_delay_ns",
      "Jittered backoff delays before re-registration retries",
      {{"host", host_label}});
  // Transport observers, fanning out to the flight recorder (no-ops while
  // it is disabled). The channel retries a batch until it is acked; it
  // hands one back only when evicting or cancelling it.
  upload_ch_.set_on_attempt([this](std::uint64_t seq, std::uint32_t attempt) {
    obs::recorder().batch_event(host_.value, seq,
                                obs::ProbeEventKind::kTransportAttempt,
                                attempt);
  });
  upload_ch_.set_on_acked([this](std::uint64_t seq) {
    obs::recorder().unbind_batch(host_.value, seq);
  });
  upload_ch_.set_on_expire([this](std::uint64_t seq, std::any& payload) {
    on_upload_expired(seq, payload);
  });
}

Agent::~Agent() {
  if (running_) stop();
  // The channel belongs to the cluster's ControlPlane and may outlive this
  // Agent; its callbacks must not dangle into freed state.
  upload_ch_.set_on_attempt(nullptr);
  upload_ch_.set_on_acked(nullptr);
  upload_ch_.set_on_expire(nullptr);
}

bool Agent::host_down() const { return cluster_.host(host_).is_down(); }

TimeNs Agent::upload_wait() const {
  const TimeNs sent = upload_ch_.oldest_unacked_sent();
  return sent == kNoTime ? 0 : cluster_.scheduler().now() - sent;
}

void Agent::create_qps() {
  rnics_.clear();
  const auto& host_info = cluster_.topology().host(host_);
  rnics_.reserve(host_info.rnics.size());
  for (RnicId r : host_info.rnics) {
    RnicState st;
    st.rnic = r;
    const auto slot = static_cast<std::uint32_t>(rnics_.size());
    rnic::QpConfig qcfg;
    qcfg.type = rnic::QpType::kUD;
    qcfg.on_cqe = [this, slot](const rnic::Cqe& c) { on_cqe(slot, c); };
    st.ud_qpn = cluster_.rnic_device(r).create_qp(qcfg);
    rnics_.push_back(std::move(st));
  }
}

TimeNs Agent::backoff_delay(std::uint32_t attempt) {
  TimeNs d = kBackoffBase;
  for (std::uint32_t i = 0; i < attempt && d < kBackoffMax; ++i) d *= 2;
  d = std::min(d, kBackoffMax);
  // Per-agent jitter from the Agent's own seeded Rng: deterministic for a
  // given seed, different across Agents — no thundering herd on a restarted
  // Controller, no wall-clock nondeterminism.
  return d + rng_.uniform_int(0, kBackoffJitter);
}

void Agent::register_with_controller() {
  AgentRegistration reg;
  reg.host = host_;
  for (const RnicState& st : rnics_) {
    RnicCommInfo info;
    info.rnic = st.rnic;
    info.ip = cluster_.topology().rnic(st.rnic).ip;
    info.gid = rnic::gid_of(st.rnic);
    info.qpn = st.ud_qpn;
    reg.rnics.push_back(info);
  }
  const std::uint64_t epoch = epoch_;
  ctrl_rpc_.call(std::any(std::move(reg)), [this, epoch](std::any& rsp) {
    if (!running_ || epoch != epoch_) return;
    const auto* ack = std::any_cast<RegistrationAck>(&rsp);
    // A crashed Controller answers accepted=false (if it answers at all);
    // the backoff probe below keeps retrying until one sticks.
    if (ack == nullptr || !ack->accepted) return;
    if (ack->controller_epoch > ctrl_epoch_seen_) {
      ctrl_epoch_seen_ = ack->controller_epoch;
    }
    registered_ = true;
    reg_attempt_ = 0;
    lease_duration_ = ack->lease_duration;
    lease_expiry_ = cluster_.scheduler().now() + lease_duration_;
    if (rereg_pending_) {
      rereg_pending_ = false;
      ++reregistrations_;
      metrics_.reregistrations.inc();
      obs::recorder().marker("agent-reregistered", host_.value);
      if (obs::recorder().enabled()) {
        for (const ProbeRecord& r : outbox_) {
          if (r.flight_sampled) {
            obs::recorder().record(r.id, obs::ProbeEventKind::kReregistered);
          }
        }
      }
    }
    // Registration is on file — pull pinglists right away rather than
    // probing nothing until the 5-minute refresh timer.
    refresh_pinglists();
  });
  // Backoff probe: if that registration goes unanswered (Controller down,
  // or the request/response expired on the wire), try again — capped
  // exponential backoff with per-agent jitter.
  const TimeNs delay = backoff_delay(reg_attempt_);
  cluster_.scheduler().schedule_after(delay, [this, epoch, delay] {
    if (!running_ || epoch != epoch_ || registered_) return;
    metrics_.backoff_delay_ns.observe(static_cast<double>(delay));
    ++reg_attempt_;
    register_with_controller();
  });
}

void Agent::heartbeat_tick() {
  if (!running_ || host_down()) return;
  const TimeNs now = cluster_.scheduler().now();
  if (registered_ && lease_expiry_ != kNoTime && now >= lease_expiry_) {
    // Renewals stopped landing (Controller crash, or the network ate every
    // heartbeat for a full lease): the lease is gone — start over.
    registered_ = false;
    ++lease_expiries_;
    metrics_.lease_expired.inc();
    obs::recorder().marker("agent-lease-expired", host_.value);
    if (obs::recorder().enabled()) {
      for (const ProbeRecord& r : outbox_) {
        if (r.flight_sampled) {
          obs::recorder().record(r.id, obs::ProbeEventKind::kLeaseExpired);
        }
      }
    }
    begin_reregistration();
    return;
  }
  if (!registered_) return;  // re-registration loop already in progress
  AgentHeartbeat hb;
  hb.host = host_;
  const std::uint64_t epoch = epoch_;
  ctrl_rpc_.call(std::any(hb), [this, epoch](std::any& rsp) {
    // The `registered_` guard drops heartbeat acks that raced a lease
    // expiry — a stale renewal must not resurrect a lease mid-backoff.
    if (!running_ || epoch != epoch_ || !registered_) return;
    const auto* ack = std::any_cast<HeartbeatAck>(&rsp);
    if (ack == nullptr) return;
    if (ack->controller_epoch > ctrl_epoch_seen_) {
      ctrl_epoch_seen_ = ack->controller_epoch;
    }
    if (ack->known) {
      lease_expiry_ = cluster_.scheduler().now() + lease_duration_;
    } else {
      // The Controller restarted and lost its registry: our lease is void
      // even though the process answers. Re-register right away.
      registered_ = false;
      begin_reregistration();
    }
  });
}

void Agent::begin_reregistration() {
  rereg_pending_ = true;
  reg_attempt_ = 0;
  register_with_controller();
}

void Agent::attach_tracepoints() {
  auto& reg = cluster_.host(host_).tracepoints();
  modify_handle_ = reg.attach_modify_qp(
      [this](const verbs::ModifyQpEvent& e) { on_service_connect(e); });
  destroy_handle_ = reg.attach_destroy_qp(
      [this](const verbs::DestroyQpEvent& e) { on_service_disconnect(e); });
}

void Agent::detach_tracepoints() {
  auto& reg = cluster_.host(host_).tracepoints();
  reg.detach(modify_handle_);
  reg.detach(destroy_handle_);
  modify_handle_ = destroy_handle_ = 0;
}

void Agent::start() {
  if (running_) return;
  running_ = true;
  create_qps();
  register_with_controller();  // async; its response pulls pinglists
  attach_tracepoints();

  auto& sched = cluster_.scheduler();
  for (std::uint32_t slot = 0; slot < rnics_.size(); ++slot) {
    RnicState& st = rnics_[slot];
    st.tormesh_task = std::make_unique<sim::PeriodicTask>(
        sched, st.tormesh.probe_interval,
        [this, slot] { probe_next(slot, ProbeKind::kTorMesh); });
    st.intertor_task = std::make_unique<sim::PeriodicTask>(
        sched,
        st.intertor.probe_interval > 0 ? st.intertor.probe_interval
                                       : msec(100),
        [this, slot] { probe_next(slot, ProbeKind::kInterTor); });
    st.service_task = std::make_unique<sim::PeriodicTask>(
        sched, kServiceProbeInterval,
        [this, slot] { probe_next(slot, ProbeKind::kServiceTracing); });
    // Stagger task phases so hosts do not fire in lockstep.
    st.tormesh_task->start(rng_.uniform_int(0, st.tormesh.probe_interval));
    st.intertor_task->start(rng_.uniform_int(0, msec(100)));
    const TimeNs service_phase =
        rng_.uniform_int(0, kServiceProbeInterval);
    st.service_origin = sched.now() + service_phase;
    st.service_task->start(service_phase);
  }
  upload_task_ = std::make_unique<sim::PeriodicTask>(
      sched, kUploadInterval, [this] { upload_now(); });
  upload_task_->start(kUploadInterval);
  refresh_task_ = std::make_unique<sim::PeriodicTask>(
      sched, kPinglistRefresh, [this] { refresh_pinglists(); });
  refresh_task_->start(kPinglistRefresh);
  heartbeat_task_ = std::make_unique<sim::PeriodicTask>(
      sched, kHeartbeatInterval, [this] { heartbeat_tick(); });
  // Phase-jittered like the probing tasks, so heartbeats (and therefore
  // lease-expiry detections) never fire in cluster-wide lockstep.
  heartbeat_task_->start(rng_.uniform_int(0, kHeartbeatInterval));
}

void Agent::stop() {
  if (!running_) return;
  // Flush-or-drop: measurements in the outbox (and, in sketch mode, the
  // folded summary) must never vanish silently. A live process flushes a
  // final batch on the way out, which the transport retries until acked; a
  // dead host cannot push bytes onto the wire, so its unsent batch and
  // in-flight retries are counted as transport drops
  // (rpm_transport_msgs_total{result="dropped"}).
  if (host_down()) {
    if (!outbox_.empty() || !summary_.empty()) {
      upload_ch_.note_app_drop(1);
      outbox_.clear();
      summary_ = sketch::HostSummary{};
    }
    upload_ch_.cancel_unacked();
  } else {
    flush_outbox();
  }
  running_ = false;
  ++epoch_;  // in-flight RPC responses must not apply after this point
  detach_tracepoints();
  for (RnicState& st : rnics_) {
    if (st.tormesh_task) st.tormesh_task->cancel();
    if (st.intertor_task) st.intertor_task->cancel();
    if (st.service_task) st.service_task->cancel();
    cluster_.rnic_device(st.rnic).destroy_qp(st.ud_qpn);
  }
  if (upload_task_) upload_task_->cancel();
  if (refresh_task_) refresh_task_->cancel();
  if (heartbeat_task_) heartbeat_task_->cancel();
  pending_.clear();
  responder_ctx_.clear();
  periods_since_flush_ = 0;
  // The lease dies with the process; a restart re-registers from scratch.
  registered_ = false;
  rereg_pending_ = false;
  lease_expiry_ = kNoTime;
  reg_attempt_ = 0;
}

void Agent::restart() {
  stop();
  start();
}

void Agent::refresh_pinglists() {
  if (!running_ || rnics_.empty()) return;
  PinglistPullRequest req;
  req.host = host_;
  req.rnics.reserve(rnics_.size());
  for (const RnicState& st : rnics_) {
    req.rnics.push_back(st.rnic);
    // Refresh stale comm info of service-tracing targets too (§5: the Agent
    // pulls the latest info for all targets every 5 minutes).
    for (const auto& [qpn, entry] : st.service_by_qpn) {
      req.comm_targets.push_back(entry.target);
    }
  }
  const std::uint64_t epoch = epoch_;
  ctrl_rpc_.call(std::any(std::move(req)), [this, epoch](std::any& rsp) {
    if (!running_ || epoch != epoch_) return;
    if (auto* r = std::any_cast<PinglistPullResponse>(&rsp)) {
      deliver_pinglist_response(std::move(*r));
    }
  });
}

void Agent::deliver_pinglist_response(PinglistPullResponse rsp) {
  // Fence: a deposed primary's responses can still drain off the wire
  // after a failover. Epoch 0 (responses predating the epoch stamp, or
  // tests) and a fence that never armed both pass — the fence only trips
  // once a NEWER epoch has actually been heard.
  if (rsp.controller_epoch != 0 && ctrl_epoch_seen_ != 0 &&
      rsp.controller_epoch < ctrl_epoch_seen_) {
    ++stale_pinglists_;
    if (!stale_metric_registered_) {
      stale_metric_registered_ = true;
      stale_pinglists_total_ = telemetry::registry().counter(
          "rpm_agent_stale_pinglists_total",
          "Pinglist responses rejected by the Controller-epoch fence",
          {{"host", std::to_string(host_.value)}});
    }
    stale_pinglists_total_.inc();
    obs::recorder().marker("agent-stale-pinglist", host_.value);
    return;
  }
  if (rsp.controller_epoch > ctrl_epoch_seen_) {
    ctrl_epoch_seen_ = rsp.controller_epoch;
  }
  apply_pinglist_response(std::move(rsp));
}

void Agent::apply_pinglist_response(PinglistPullResponse rsp) {
  std::unordered_map<std::uint32_t, RnicCommInfo> fresh;
  fresh.reserve(rsp.comm.size());
  for (const RnicCommInfo& c : rsp.comm) fresh.emplace(c.rnic.value, c);
  for (RnicState& st : rnics_) {
    for (PinglistPullResponse::PerRnic& per : rsp.rnics) {
      if (per.rnic != st.rnic) continue;
      st.tormesh = std::move(per.tormesh);
      st.intertor = std::move(per.intertor);
      st.tormesh_next = st.intertor_next = 0;
      if (st.tormesh_task && st.tormesh.probe_interval > 0) {
        st.tormesh_task->set_period(st.tormesh.probe_interval);
      }
      if (st.intertor_task && st.intertor.probe_interval > 0) {
        st.intertor_task->set_period(st.intertor.probe_interval);
      }
      break;
    }
    for (auto& [qpn, entry] : st.service_by_qpn) {
      if (const auto it = fresh.find(entry.target.value); it != fresh.end()) {
        entry.target_gid = it->second.gid;
        entry.target_qpn = it->second.qpn;
      }
    }
    st.service.clear();
    for (const auto& [qpn, entry] : st.service_by_qpn) {
      st.service.push_back(entry);
    }
    wake_service_tracing(st);
  }
}

std::size_t Agent::service_entries() const {
  std::size_t n = 0;
  for (const RnicState& st : rnics_) n += st.service_by_qpn.size();
  return n;
}

std::size_t Agent::approx_memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  for (const RnicState& st : rnics_) {
    bytes += sizeof(st);
    bytes += (st.tormesh.entries.size() + st.intertor.entries.size() +
              st.service.size()) *
             sizeof(PinglistEntry);
    bytes += st.parked_services.size() * sizeof(verbs::ModifyQpEvent);
    bytes += st.paths.size() * sizeof(PathCacheEntry);  // links inline
  }
  bytes += pending_.size() * sizeof(Pending);
  bytes += outbox_.capacity() * sizeof(ProbeRecord);
  return bytes;
}

void Agent::probe_next(std::uint32_t slot, ProbeKind kind) {
  if (!running_ || host_down()) return;
  RnicState& st = rnics_[slot];
  switch (kind) {
    case ProbeKind::kTorMesh: {
      if (st.tormesh.entries.empty()) return;
      const PinglistEntry& e =
          st.tormesh.entries[st.tormesh_next++ % st.tormesh.entries.size()];
      send_probe(slot, e);
      return;
    }
    case ProbeKind::kInterTor: {
      if (st.intertor.entries.empty()) return;
      const PinglistEntry& e =
          st.intertor.entries[st.intertor_next++ % st.intertor.entries.size()];
      send_probe(slot, e);
      return;
    }
    case ProbeKind::kServiceTracing: {
      std::erase_if(st.parked_services,
                    [this, &st](const verbs::ModifyQpEvent& e) {
                      return track_service(st, e);
                    });
      if (st.service.empty()) {
        // Service Tracing paused (§4.2.2): sleep until a connect wakes us.
        if (st.parked_services.empty()) st.service_task->cancel();
        return;
      }
      if (st.service_next >= st.service.size()) {
        // New round: shuffle so probes never phase-lock with the service's
        // compute/communicate cycle (§7.3).
        rng_.shuffle(std::span<PinglistEntry>(st.service));
        st.service_next = 0;
      }
      send_probe(slot, st.service[st.service_next++]);
      return;
    }
  }
}

Agent::PathCacheEntry& Agent::traced_paths(std::uint32_t slot,
                                           const PinglistEntry& e) {
  RnicState& st = rnics_[slot];
  PathCacheEntry& cache = st.paths[e.tuple.stable_hash()];
  const TimeNs now = cluster_.scheduler().now();
  if (cache.traced_at != kNoTime && now - cache.traced_at < kTraceRefresh) {
    return cache;
  }
  cache.traced_at = now;
  // The ACK mirrors the probe's source port with swapped endpoints.
  FiveTuple rev_tuple = e.tuple;
  std::swap(rev_tuple.src_ip, rev_tuple.dst_ip);

  auto& fab = cluster_.fabric();
  if (cfg_.use_int_telemetry) {
    // §7.4: INT stamps the path in the data plane — always answers, always
    // current: the fabric's current path, with no switch CPU in the loop.
    cache.fwd = fab.current_path(st.rnic, e.target, e.tuple);
    cache.rev = fab.current_path(e.target, st.rnic, rev_tuple);
    cache.known = true;
    return cache;
  }

  const auto link_up = [&fab](LinkId l) { return fab.link_usable(l); };
  auto fwd = cluster_.traceroute().trace(st.rnic, e.target, e.tuple, now,
                                         link_up);
  auto rev = cluster_.traceroute().trace(e.target, st.rnic, rev_tuple, now,
                                         link_up);
  if (fwd.all_responded && rev.all_responded) {
    cache.fwd = fwd.path;
    cache.rev = rev.path;
    cache.known = true;
  }
  // If rate-limited, keep whatever we knew before (possibly stale — the
  // §4.2.3 trade-off).
  return cache;
}

void Agent::send_probe(std::uint32_t slot, const PinglistEntry& entry) {
  RnicState& st = rnics_[slot];
  if (!entry.target_qpn.valid()) return;  // target never registered

  const std::uint64_t pid = next_probe_id_++;
  Pending p;
  p.rnic_slot = slot;
  p.t1_host = cluster_.host(host_).host_now();  // ①
  p.record.id = pid;
  p.record.kind = entry.kind;
  p.record.prober = st.rnic;
  p.record.target = entry.target;
  p.record.prober_host = host_;
  p.record.tuple = entry.tuple;
  p.record.target_qpn = entry.target_qpn;
  p.record.service = entry.service;
  p.record.sent_at = cluster_.scheduler().now();
  const PathCacheEntry& cache = traced_paths(slot, entry);
  p.record.fwd_path = cache.fwd;
  p.record.rev_path = cache.rev;
  p.record.path_known = cache.known;
  // Flight-recorder sampling decision is made once, here at probe birth;
  // every later layer keys off the cached flag (or trace_id != 0).
  p.record.flight_sampled = obs::recorder().begin_probe(
      pid, probe_kind_name(entry.kind), static_cast<std::uint64_t>(p.t1_host));
  const bool sampled = p.record.flight_sampled;
  pending_.emplace(pid, std::move(p));

  Wire w;
  w.probe_id = pid;
  w.msg = 0;
  w.reply_qpn = st.ud_qpn;
  w.prober_rnic = st.rnic.value;
  w.sampled = sampled;
  cluster_.open_device(st.rnic).post_send_ud(
      st.ud_qpn, entry.target_gid, entry.target_qpn, entry.tuple.src_port,
      kProbePayloadBytes, w, /*wr_id=*/pid,
      /*trace_id=*/sampled ? pid : 0);
  ++probes_sent_;
  metrics_.probes_sent[static_cast<std::uint8_t>(entry.kind)].inc();

  cluster_.scheduler().schedule_after(kProbeTimeout, [this, pid] {
    finalize_timeout(pid);
  });
}

void Agent::on_cqe(std::uint32_t slot, const rnic::Cqe& cqe) {
  if (!running_) return;
  if (cqe.is_send) {
    // Either a probe's send CQE (② — wr_id == probe id) or an ACK1 send CQE
    // (④ — wr_id in responder_ctx_).
    if (auto it = pending_.find(cqe.wr_id); it != pending_.end()) {
      it->second.t2_rnic = cqe.timestamp;  // ②
      if (it->second.record.flight_sampled) {
        obs::recorder().record(cqe.wr_id, obs::ProbeEventKind::kSendCqe,
                               static_cast<std::uint64_t>(cqe.timestamp));
      }
      return;
    }
    if (auto it = responder_ctx_.find(cqe.wr_id);
        it != responder_ctx_.end()) {
      // ④ is known only now — send ACK2 carrying ④-③ (§4.2.1 step 3).
      const ResponderCtx ctx = it->second;
      responder_ctx_.erase(it);
      if (ctx.sampled) {
        obs::recorder().record(ctx.probe_id, obs::ProbeEventKind::kAckSendCqe,
                               static_cast<std::uint64_t>(cqe.timestamp));
      }
      Wire w;
      w.probe_id = ctx.probe_id;
      w.msg = 2;
      w.responder_delay = cqe.timestamp - ctx.t3_rnic;  // ④-③
      RnicState& st = rnics_[ctx.slot];
      cluster_.open_device(st.rnic).post_send_ud(
          st.ud_qpn, ctx.prober_gid, ctx.prober_qpn, ctx.src_port,
          kProbePayloadBytes, w, next_wr_id_++,
          /*trace_id=*/ctx.sampled ? ctx.probe_id : 0);
      return;
    }
    return;  // ACK2 send CQE: nothing to do
  }

  const Wire* w = std::any_cast<Wire>(&cqe.payload);
  if (w == nullptr) return;  // not ours
  if (w->msg == 0) {
    handle_probe(slot, cqe, *w);
  } else {
    handle_ack(slot, cqe, *w);
  }
}

void Agent::handle_probe(std::uint32_t slot, const rnic::Cqe& cqe,
                         const Wire& w) {
  if (host_down()) return;  // a dead host answers nothing
  const TimeNs t3 = cqe.timestamp;  // ③
  // The Agent process must get scheduled before it can post ACK1; under CPU
  // starvation this stall exceeds the probe timeout (Fig. 6 right).
  const TimeNs wakeup = cluster_.host(host_).sample_process_delay();
  const Gid prober_gid = cqe.src_gid;
  const Qpn prober_qpn = w.reply_qpn;
  const std::uint16_t src_port = cqe.tuple.src_port;
  const std::uint64_t probe_id = w.probe_id;
  const bool sampled = w.sampled;
  if (sampled) {
    obs::recorder().record(probe_id, obs::ProbeEventKind::kResponderRecv,
                           static_cast<std::uint64_t>(t3));
    obs::recorder().record(probe_id, obs::ProbeEventKind::kResponderWake,
                           static_cast<std::uint64_t>(wakeup));
  }
  cluster_.scheduler().schedule_after(wakeup, [this, slot, t3, prober_gid,
                                               prober_qpn, src_port,
                                               probe_id, sampled] {
    if (!running_ || host_down()) return;
    RnicState& st = rnics_[slot];
    const std::uint64_t wr = next_wr_id_++;
    ResponderCtx ctx;
    ctx.slot = slot;
    ctx.t3_rnic = t3;
    ctx.prober_gid = prober_gid;
    ctx.prober_qpn = prober_qpn;
    ctx.src_port = src_port;
    ctx.probe_id = probe_id;
    ctx.sampled = sampled;
    responder_ctx_.emplace(wr, ctx);
    if (sampled) {
      obs::recorder().record(probe_id, obs::ProbeEventKind::kAckPosted);
    }
    Wire ack1;
    ack1.probe_id = probe_id;
    ack1.msg = 1;
    // ACK1 mirrors the probe's source port, like RNIC hardware ACKs on the
    // RC QPs services use (§5).
    cluster_.open_device(st.rnic).post_send_ud(
        st.ud_qpn, prober_gid, prober_qpn, src_port,
        kProbePayloadBytes, ack1, wr,
        /*trace_id=*/sampled ? probe_id : 0);
    ++responses_sent_;
    metrics_.responses_sent.inc();
  });
}

void Agent::handle_ack(std::uint32_t /*slot*/, const rnic::Cqe& cqe,
                       const Wire& w) {
  auto it = pending_.find(w.probe_id);
  if (it == pending_.end()) return;  // timed out already (late ACK)
  Pending& p = it->second;
  const bool sampled = p.record.flight_sampled;
  if (w.msg == 1) {
    p.t5_rnic = cqe.timestamp;  // ⑤
    if (sampled) {
      obs::recorder().record(w.probe_id, obs::ProbeEventKind::kProberAckCqe,
                             static_cast<std::uint64_t>(cqe.timestamp));
    }
    // ⑥ is an application timestamp: taken once the Agent process wakes.
    const std::uint64_t pid = w.probe_id;
    cluster_.scheduler().schedule_after(
        cluster_.host(host_).sample_process_delay(), [this, pid] {
          auto pit = pending_.find(pid);
          if (pit == pending_.end()) return;
          pit->second.t6_host = cluster_.host(host_).host_now();  // ⑥
          if (pit->second.record.flight_sampled) {
            obs::recorder().record(
                pid, obs::ProbeEventKind::kProberApp,
                static_cast<std::uint64_t>(pit->second.t6_host));
          }
          finalize_if_complete(pid);
        });
  } else if (w.msg == 2) {
    p.have_ack2 = true;
    p.record.responder_delay = w.responder_delay;  // ④-③
    if (sampled) {
      obs::recorder().record(w.probe_id, obs::ProbeEventKind::kAck2Recv,
                             static_cast<std::uint64_t>(w.responder_delay));
    }
    finalize_if_complete(w.probe_id);
  }
}

void Agent::finalize_if_complete(std::uint64_t probe_id) {
  auto it = pending_.find(probe_id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (p.t2_rnic == kNoTime || p.t5_rnic == kNoTime || p.t6_host == kNoTime ||
      !p.have_ack2) {
    return;
  }
  p.record.status = ProbeStatus::kOk;
  p.record.network_rtt =
      (p.t5_rnic - p.t2_rnic) - p.record.responder_delay;  // (⑤-②)-(④-③)
  p.record.prober_delay =
      (p.t6_host - p.t1_host) - (p.t5_rnic - p.t2_rnic);   // (⑥-①)-(⑤-②)
  const auto kind = static_cast<std::uint8_t>(p.record.kind);
  metrics_.probes_completed[kind].inc();
  metrics_.rtt_ns[kind].observe(static_cast<double>(p.record.network_rtt));
  if (p.record.flight_sampled) {
    obs::recorder().record(probe_id, obs::ProbeEventKind::kCompleted,
                           static_cast<std::uint64_t>(p.record.network_rtt),
                           static_cast<std::uint64_t>(p.record.prober_delay));
  }
  if (fold_uploads_ && foldable(p.record)) {
    fold_record(p.record);
  } else {
    outbox_.push_back(std::move(p.record));
  }
  pending_.erase(it);
}

// Sketch-mode thinning: a healthy, unremarkable OK record carries no signal
// the HostSummary cannot (per-pair ToR-mesh OK counts, responder-delay and
// RTT sketches) — fold it. Everything the Analyzer's triage inspects record
// by record stays raw: timeouts (never reach here), service-tracing probes
// (per-service SLA + service attribution), hot-RTT / high-proc outliers, and
// flight-sampled probes (their timeline would dangle without the record).
bool Agent::foldable(const ProbeRecord& r) const {
  return r.status == ProbeStatus::kOk &&
         r.kind != ProbeKind::kServiceTracing && !r.flight_sampled &&
         r.network_rtt <= keep_rtt_above_ &&
         r.responder_delay <= kHighProcDelayThreshold;
}

void Agent::fold_record(const ProbeRecord& r) {
  ++summary_.folded_records;
  if (r.kind == ProbeKind::kTorMesh) {
    ++summary_.tormesh_ok[{r.prober.value, r.target.value}];
  }
  summary_.ok_delay_by_target[r.target.value].add(
      static_cast<double>(r.responder_delay));
  summary_.rtt.add(static_cast<double>(r.network_rtt));
  metrics_.upload_folded.inc();
}

void Agent::finalize_timeout(std::uint64_t probe_id) {
  auto it = pending_.find(probe_id);
  if (it == pending_.end()) return;  // completed in time
  it->second.record.status = ProbeStatus::kTimeout;
  const ProbeKind kind = it->second.record.kind;
  metrics_.probe_timeouts[static_cast<std::uint8_t>(kind)].inc();
  if (it->second.record.flight_sampled) {
    obs::recorder().record(probe_id, obs::ProbeEventKind::kTimedOut);
  }
  outbox_.push_back(std::move(it->second.record));
  pending_.erase(it);
}

void Agent::upload_now() {
  if (!running_) return;
  if (host_down()) {
    // A down host uploads nothing, and its unacked batches stop
    // retransmitting (counted as drops) instead of landing after it died.
    upload_ch_.cancel_unacked();
    return;
  }
  if (outbox_.empty() && summary_.empty()) return;
  ++periods_since_flush_;
  // Batched uploads (ROADMAP): coalesce several 5 s periods (and all RNICs)
  // into one sized batch instead of one small message per timer tick —
  // unless the outbox is already large enough to flush early.
  if (periods_since_flush_ < kUploadCoalescePeriods &&
      outbox_.size() < kUploadFlushRecords) {
    return;
  }
  flush_outbox();
}

void Agent::flush_outbox() {
  // Sketch mode can leave the outbox empty (everything folded) with a
  // non-empty summary — that still has to flush, or the Analyzer reads the
  // host as silent and its folded history never arrives.
  if (outbox_.empty() && summary_.empty()) return;
  UploadBatch batch;
  batch.host = host_;
  batch.seq = next_batch_seq_++;
  batch.records.swap(outbox_);
  batch.summary = std::move(summary_);
  summary_ = sketch::HostSummary{};
  // Buffer reuse: pre-size the fresh outbox to what one coalesced batch
  // held, so steady state accumulates without re-growing from zero.
  outbox_.reserve(batch.records.size());
  periods_since_flush_ = 0;
  metrics_.uploads.inc();
  metrics_.upload_records.inc(batch.records.size());
  send_batch(std::move(batch));
}

void Agent::send_batch(UploadBatch&& batch) {
  const std::uint64_t batch_seq = batch.seq;
  const std::uint64_t n_records = batch.records.size();
  std::vector<std::uint64_t> tracked;
  if (obs::recorder().enabled()) {
    for (const ProbeRecord& r : batch.records) {
      if (r.flight_sampled) tracked.push_back(r.id);
    }
  }
  // send() transmits attempt #1 synchronously — before the binding below
  // can exist — so the attempt is recorded by hand after binding. The wire
  // size feeds the transport's bandwidth cost model and byte counters.
  const Bytes wire = static_cast<Bytes>(upload_batch_wire_bytes(batch));
  const std::uint64_t chan_seq =
      upload_ch_.send(std::any(std::move(batch)), wire);
  if (!tracked.empty()) {
    auto& rec = obs::recorder();
    for (std::uint64_t pid : tracked) {
      rec.record(pid, obs::ProbeEventKind::kOutboxFlush, batch_seq, n_records);
    }
    rec.bind_batch(host_.value, chan_seq, std::move(tracked));
    rec.batch_event(host_.value, chan_seq,
                    obs::ProbeEventKind::kTransportAttempt, 1);
  }
}

void Agent::on_upload_expired(std::uint64_t chan_seq, std::any& payload) {
  obs::recorder().unbind_batch(host_.value, chan_seq);
  // The transport already counted the eviction or cancel as a drop; mark
  // the batch's sampled records. (A batch delivered before it was abandoned
  // may be moved-from: its records reached the Analyzer.)
  if (!obs::recorder().enabled()) return;
  if (const auto* batch = std::any_cast<UploadBatch>(&payload)) {
    for (const ProbeRecord& r : batch->records) {
      if (r.flight_sampled) {
        obs::recorder().record(r.id, obs::ProbeEventKind::kUploadDropped);
      }
    }
  }
}

void Agent::on_service_connect(const verbs::ModifyQpEvent& e) {
  if (!running_) return;
  // Find which of our RNICs this connection uses.
  for (RnicState& st : rnics_) {
    if (st.rnic != e.rnic) continue;
    if (!track_service(st, e)) {
      // The peer's Agent has not registered yet (registration is an
      // asynchronous RPC, and a job may connect right after start). Park
      // the connection; each service-tracing tick retries the lookup.
      st.parked_services.push_back(e);
    }
    wake_service_tracing(st);
    return;
  }
}

void Agent::wake_service_tracing(RnicState& st) {
  if (!running_ || !st.service_task || st.service_task->running()) return;
  if (st.service.empty() && st.parked_services.empty()) return;
  // The task slept in a tick at or before now; resume at the first point
  // of its phase grid strictly after now.
  const TimeNs now = cluster_.scheduler().now();
  const TimeNs next =
      st.service_origin +
      ((now - st.service_origin) / kServiceProbeInterval + 1) *
          kServiceProbeInterval;
  st.service_task->start(next - now);
}

bool Agent::track_service(RnicState& st, const verbs::ModifyQpEvent& e) {
  // The lookup hits the host-local registry replica synchronously; the
  // tracepoint path cannot wait for a control-plane round trip.
  const auto info = directory_->comm_info_by_ip(e.tuple.dst_ip);
  if (!info) return false;
  PinglistEntry entry;
  entry.target = info->rnic;
  entry.target_gid = info->gid;
  entry.target_qpn = info->qpn;
  entry.tuple = e.tuple;  // the service flow's exact 5-tuple
  entry.kind = ProbeKind::kServiceTracing;
  entry.service = e.service;
  st.service_by_qpn[e.local_qpn.value] = entry;
  st.service.push_back(entry);
  return true;
}

void Agent::on_service_disconnect(const verbs::DestroyQpEvent& e) {
  if (!running_) return;
  for (RnicState& st : rnics_) {
    if (st.rnic != e.rnic) continue;
    std::erase_if(st.parked_services, [&e](const verbs::ModifyQpEvent& p) {
      return p.local_qpn == e.local_qpn;
    });
    const auto it = st.service_by_qpn.find(e.local_qpn.value);
    if (it == st.service_by_qpn.end()) return;
    const FiveTuple tuple = it->second.tuple;
    st.service_by_qpn.erase(it);
    st.service.erase(
        std::remove_if(st.service.begin(), st.service.end(),
                       [&tuple](const PinglistEntry& p) {
                         return p.tuple == tuple;
                       }),
        st.service.end());
    st.service_next = 0;
    return;
  }
}

}  // namespace rpm::core
