#include "core/rpingmesh.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace rpm::core {

namespace {

constexpr TimeNs kTupleRotationInterval = sec(3600);  // §5: rotate 20% hourly
// After start(), re-pull every Agent's pinglists once all registrations
// have had time to traverse the control plane (first registration order
// otherwise decides who sees whom).
constexpr TimeNs kControlSettleDelay = msec(10);

}  // namespace

RPingmesh::RPingmesh(host::Cluster& cluster, RPingmeshConfig cfg)
    : cluster_(cluster),
      cfg_(cfg),
      group_(cluster.topology(), cluster.router(), cluster.scheduler(),
             cfg.federation.standby_controller) {
  const std::size_t pods = cfg_.federation.pods;
  if (pods == 0) {
    throw std::invalid_argument("RPingmesh: federation.pods must be >= 1");
  }
  transport::ControlPlane& cp = cluster_.control_plane();
  const topo::Topology& topo = cluster_.topology();

  // Hosts map to analysis pods by the Clos pod of their first RNIC's ToR,
  // folded modulo the configured pod count.
  host_pod_.assign(topo.num_hosts(), 0);
  for (const topo::HostInfo& h : topo.hosts()) {
    const SwitchId tor = topo.rnic(h.rnics.front()).tor;
    host_pod_[h.id.value] = topo.switch_info(tor).pod % pods;
  }

  // Analysis tier: one Analyzer per pod, and the merge tier over two or
  // more. A federated pod's Analyzer journals as "pod<N>".
  for (std::size_t p = 0; p < pods; ++p) {
    if (pods > 1 &&
        std::find(host_pod_.begin(), host_pod_.end(), p) == host_pod_.end()) {
      throw std::invalid_argument(
          "RPingmesh: federation.pods exceeds the populated Clos pods "
          "(pod " +
          std::to_string(p) + " has no hosts)");
    }
    analyzers_.push_back(std::make_unique<Analyzer>(
        topo, group_.active(), cluster_.scheduler(), cfg_.analyzer));
    analyzers_.back()->attach_journal(
        &journal_, pods == 1 ? "analyzer" : "pod" + std::to_string(p));
  }
  if (pods > 1) {
    global_ = std::make_unique<GlobalAnalyzer>(topo, cluster_.scheduler(),
                                               cfg_.analyzer);
    global_->attach_journal(&journal_);
  }

  agents_.reserve(cluster_.num_hosts());
  for (const topo::HostInfo& h : topo.hosts()) {
    const std::string suffix = "/h" + std::to_string(h.id.value);
    const std::size_t pod = host_pod_[h.id.value];
    // Agent -> Analyzer: the upload stream hands off into the pod's
    // IngestSink. Records are moved out of the payload on first delivery;
    // the sink dedups retried batches by (host, seq) before touching the
    // body.
    transport::Channel& up = cp.make_channel(
        "upload" + suffix, [this, pod](std::uint64_t, std::any& payload) {
          if (auto* batch = std::any_cast<UploadBatch>(&payload)) {
            analyzers_[pod]->sink().submit(std::move(*batch));
          }
        });
    // Agent -> Controller: registration + pinglist pulls. Both handlers are
    // idempotent, as at-least-once request delivery requires — and they
    // resolve the ACTIVE Controller at call time, so a promoted standby
    // serves (and epoch-stamps) everything that arrives after takeover.
    transport::RpcChannel& rpc = cp.make_rpc_channel(
        "ctrl" + suffix, [this](const std::any& req) -> std::any {
          Controller& c = group_.active();
          if (const auto* r = std::any_cast<AgentRegistration>(&req)) {
            RegistrationAck ack;
            ack.accepted = c.register_agent(r->host, r->rnics);
            ack.controller_epoch = c.epoch();
            ack.lease_duration = kLeaseDuration;
            return std::any(ack);
          }
          if (const auto* r = std::any_cast<AgentHeartbeat>(&req)) {
            return std::any(c.heartbeat(r->host));
          }
          if (const auto* r = std::any_cast<PinglistPullRequest>(&req)) {
            return std::any(serve_pinglist_pull(c, *r));
          }
          return std::any();
        });
    upload_channels_.push_back(&up);
    rpc_channels_.push_back(&rpc);
    agents_.push_back(std::make_unique<Agent>(
        cluster_, h.id, group_.active(), up, rpc, cfg_.agent, cfg_.analyzer));
  }

  if (pods > 1) {
    // Pod -> global digest fan-in, one channel per pod so wire accounting
    // and outages are per pod. Created after the host channels: pods == 1
    // must keep the historical channel construction sequence exactly.
    for (std::size_t p = 0; p < pods; ++p) {
      transport::Channel& dch = cp.make_channel(
          "digest/p" + std::to_string(p),
          [this](std::uint64_t, std::any& payload) {
            if (auto* d = std::any_cast<PodDigest>(&payload)) {
              global_->ingest_digest(std::move(*d));
            }
          });
      digest_channels_.push_back(&dch);
      std::vector<bool> hosts(topo.num_hosts());
      for (std::size_t h = 0; h < hosts.size(); ++h) {
        hosts[h] = host_pod_[h] == p;
      }
      analyzers_[p]->serve_pod(static_cast<std::uint32_t>(p),
                               std::move(hosts), &dch);
    }
  }

  // Standby promotion (ControllerGroup monitor): the new primary listens
  // where the old one did — RPC endpoints come back up — and every
  // directory pointer (Agents' comm-info lookups, Analyzers' QPN-reset
  // triage) retargets. Agents then re-register through their normal lease
  // expiry -> backoff machinery; pinglist responses the deposed primary
  // left in flight are fenced by their stale epoch.
  group_.set_on_failover([this](Controller& promoted) {
    for (transport::RpcChannel* rpc : rpc_channels_) {
      rpc->set_server_down(false);
    }
    for (auto& a : agents_) a->set_directory(&promoted);
    for (auto& a : analyzers_) a->set_directory(&promoted);
  });
}

RPingmesh::~RPingmesh() {
  stop();
  // The channels outlive this deployment (the ControlPlane owns them, and
  // deliveries may still be queued on the scheduler): detach every handler
  // that captures `this` before the members they reach are destroyed.
  for (transport::Channel* ch : upload_channels_) ch->set_handler(nullptr);
  for (transport::RpcChannel* rpc : rpc_channels_) {
    rpc->set_server(nullptr);
    rpc->cancel_pending();
  }
  for (transport::Channel* ch : digest_channels_) ch->set_handler(nullptr);
}

Analyzer& RPingmesh::analyzer() {
  if (federated()) {
    throw std::logic_error(
        "RPingmesh::analyzer(): no flat Analyzer in a federated deployment; "
        "use pod_analyzer()/global_analyzer()/scored_history()");
  }
  return *analyzers_.front();
}

VerdictLog& RPingmesh::scoring_tier() const {
  if (global_) return *global_;
  return *analyzers_.front();
}

const std::deque<PeriodReport>& RPingmesh::scored_history() const {
  return scoring_tier().history();
}

void RPingmesh::watch_service(ServiceBinding binding) {
  // Impact assessment runs where the union service networks live.
  scoring_tier().register_service(std::move(binding));
}

void RPingmesh::start() {
  if (running_) return;
  running_ = true;
  for (auto& a : agents_) a->start();
  // Registrations are in flight; once they settle, refresh every pinglist so
  // each Agent sees every peer's comm info regardless of arrival order.
  settle_task_ = std::make_unique<sim::PeriodicTask>(
      cluster_.scheduler(), kControlSettleDelay, [this] {
        settle_task_->cancel();  // one-shot
        if (!running_) return;
        for (auto& a : agents_) a->refresh_pinglists();
      });
  settle_task_->start(kControlSettleDelay);
  for (auto& a : analyzers_) a->start();
  if (global_) global_->start();
  rotation_task_ = std::make_unique<sim::PeriodicTask>(
      cluster_.scheduler(), kTupleRotationInterval,
      [this] { group_.active().rotate_intertor_tuples(); });
  rotation_task_->start(kTupleRotationInterval);
}

void RPingmesh::crash_controller() {
  if (group_.active().is_down()) return;
  group_.crash_active();
  // The server process is gone: every Agent's RPC channel loses its peer.
  // Requests already in flight are eaten by the (dead) endpoint; retries
  // expire normally, so Agents see the crash as unanswered heartbeats. With
  // a standby, the group monitor promotes it after its 2 s grace and the
  // on_failover hook brings these endpoints back up.
  for (transport::RpcChannel* rpc : rpc_channels_) rpc->set_server_down(true);
}

void RPingmesh::restart_controller() {
  const bool active_down = group_.active().is_down();
  group_.restart_crashed();
  // A member the monitor already replaced comes back as the NEXT standby —
  // the endpoints already point at the promoted primary, nothing to do. If
  // the crashed member was still active (no standby, or the takeover grace
  // had not elapsed), this is the old single-Controller restart path.
  if (active_down && !group_.active().is_down()) {
    for (transport::RpcChannel* rpc : rpc_channels_) {
      rpc->set_server_down(false);
    }
  }
}

void RPingmesh::begin_analyzer_outage() {
  if (analyzer_in_outage()) return;
  for (auto& a : analyzers_) a->set_outage(true);
  if (global_) global_->set_outage(true);
  for (transport::Channel* ch : upload_channels_) ch->set_peer_down(true);
  for (transport::Channel* ch : digest_channels_) ch->set_peer_down(true);
}

void RPingmesh::end_analyzer_outage() {
  if (!analyzer_in_outage()) return;
  for (transport::Channel* ch : upload_channels_) ch->set_peer_down(false);
  for (transport::Channel* ch : digest_channels_) ch->set_peer_down(false);
  // Order matters: set_outage(false) stamps "now" as every host's silence
  // epoch AFTER the channels can deliver again, so nothing slips between.
  for (auto& a : analyzers_) a->set_outage(false);
  if (global_) global_->set_outage(false);
}

bool RPingmesh::analyzer_in_outage() const {
  return global_ ? global_->in_outage() : analyzers_.front()->in_outage();
}

Analyzer& RPingmesh::federated_pod(std::size_t pod) {
  if (!federated()) {
    throw std::logic_error(
        "RPingmesh: a flat deployment has no pod Analyzer to crash or "
        "restart");
  }
  return *analyzers_.at(pod);
}

void RPingmesh::set_pod_peer_down(std::size_t pod, bool down) {
  for (std::size_t h = 0; h < host_pod_.size(); ++h) {
    if (host_pod_[h] == pod) upload_channels_[h]->set_peer_down(down);
  }
  digest_channels_[pod]->set_peer_down(down);
}

void RPingmesh::crash_pod_analyzer(std::size_t pod) {
  Analyzer& a = federated_pod(pod);
  if (a.in_outage()) return;
  a.crash();
  // The pod's process is gone: its hosts' upload channels and its digest
  // channel lose their peer; both keep retrying until the pod is back.
  set_pod_peer_down(pod, true);
}

void RPingmesh::restart_pod_analyzer(std::size_t pod) {
  Analyzer& a = federated_pod(pod);
  if (!a.in_outage()) return;
  // Channels first, then the journal restore stamps the recovery boundary —
  // same ordering contract as end_analyzer_outage().
  set_pod_peer_down(pod, false);
  a.restore_from_journal();
}

void RPingmesh::stop() {
  if (!running_) return;
  running_ = false;
  for (auto& a : agents_) a->stop();
  for (auto& a : analyzers_) a->stop();
  if (global_) global_->stop();
  if (rotation_task_) rotation_task_->cancel();
  if (settle_task_) settle_task_->cancel();
}

}  // namespace rpm::core
