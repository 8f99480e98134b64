// Top-level assembly: deploy R-Pingmesh (Controller group + one Agent per
// host + the analysis tier) onto a Cluster. This is the public entry point
// most examples and benches use.
//
// One Analyzer runs per pod (FederationConfig):
//
//   pods == 1 (flat, default)  the one Analyzer ingests every host's
//     uploads — byte-identical to the historical single-Analyzer pipeline.
//
//   pods >= 2 (federated)      hosts map to pods by their ToR's Clos pod
//     (folded modulo `pods`); each pod's Analyzer, in its pod role, ingests
//     its own hosts' uploads and flushes a compact PodDigest per period over
//     "digest/p<N>"; a GlobalAnalyzer merges the digests into the
//     cluster-wide verdict/SLA stream (scored_history()).
//
// Optionally a warm standby Controller (standby_controller) takes over 2 s
// after a primary crash: epoch-fenced promotion, Agents re-register through
// their normal lease/backoff machinery.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/agent.h"
#include "core/analyzer.h"
#include "core/controller.h"
#include "core/federation.h"
#include "core/journal.h"
#include "host/cluster.h"

namespace rpm::core {

/// Control-plane scale-out knobs (ROADMAP "Hierarchical federation"). The
/// defaults reproduce the historical flat deployment byte for byte.
struct FederationConfig {
  /// Analysis pods. 1 = flat. Hosts are assigned by Clos pod of their first
  /// RNIC's ToR, folded modulo this count; every pod must end up non-empty.
  std::size_t pods = 1;
  /// Deploy a warm standby Controller with automatic promotion.
  bool standby_controller = false;
};

struct RPingmeshConfig {
  AgentConfig agent{};
  AnalyzerConfig analyzer{};
  FederationConfig federation{};
};

/// Deploys the services onto a Cluster and wires them over its
/// transport::ControlPlane: per host one upload channel ("upload/h<N>",
/// Agent -> Analyzer UploadBatch stream) and one RPC channel ("ctrl/h<N>",
/// Agent -> Controller registrations and pinglist pulls); federated
/// deployments add one digest channel per pod ("digest/p<N>"). No component
/// holds a direct function binding to another — a degraded control plane
/// (latency, loss; see src/faults) exercises every interaction.
class RPingmesh {
 public:
  explicit RPingmesh(host::Cluster& cluster, RPingmeshConfig cfg = {});
  ~RPingmesh();

  /// Start every Agent, the analysis tier's 20 s loop(s), and the hourly
  /// inter-ToR tuple rotation.
  void start();
  void stop();

  // ---- control-plane survivability (src/chaos drives these) ----

  /// Crash the active Controller: its registry is wiped and every Agent's
  /// RPC channel goes peer-down. With a standby, the ControllerGroup
  /// monitor promotes it after a 2 s grace (epoch bumped past anything
  /// the deposed primary stamped) and the RPC endpoints come back up
  /// pointing at the new primary; without one, Agents wait for
  /// restart_controller() and re-register (capped backoff + jitter).
  void crash_controller();
  void restart_controller();
  [[nodiscard]] bool controller_down() const {
    return group_.active().is_down();
  }

  /// Analyzer-tier brownout: upload (and digest) channels go peer-down,
  /// periods pause, and the channels keep retrying their unacked batches.
  /// Ending the outage lets those retransmissions land and forgives upload
  /// silence.
  void begin_analyzer_outage();
  void end_analyzer_outage();
  [[nodiscard]] bool analyzer_in_outage() const;

  /// Crash one pod's Analyzer process (federated only; a flat deployment
  /// throws std::logic_error): its upload and digest channels lose their
  /// peer, its volatile pipeline state dies. The restart reloads the
  /// journaled checkpoint — dedup windows, period boundary, digest seq — so
  /// drained history is never re-counted. A crash and an Analyzer outage
  /// compose: a pod, and its channels, run only while it is neither crashed
  /// nor in the outage.
  void crash_pod_analyzer(std::size_t pod);
  void restart_pod_analyzer(std::size_t pod);

  [[nodiscard]] Controller& controller() { return group_.active(); }
  [[nodiscard]] ControllerGroup& controller_group() { return group_; }

  /// Flat deployment's Analyzer. Throws std::logic_error when federated —
  /// use pod_analyzer()/global_analyzer()/scored_history() there.
  [[nodiscard]] Analyzer& analyzer();
  [[nodiscard]] bool federated() const { return global_ != nullptr; }
  [[nodiscard]] std::size_t num_pods() const { return analyzers_.size(); }
  /// Pod `pod`'s Analyzer (the flat Analyzer is pod 0).
  [[nodiscard]] Analyzer& pod_analyzer(std::size_t pod) {
    return *analyzers_.at(pod);
  }
  /// The pod whose Analyzer `host`'s Agent uploads to.
  [[nodiscard]] std::size_t pod_of(HostId host) const {
    return host_pod_.at(host.value);
  }
  [[nodiscard]] GlobalAnalyzer& global_analyzer() { return *global_; }

  /// The verdict stream operators (and ChaosRunner) score: the flat
  /// Analyzer's history, or the GlobalAnalyzer's merged history.
  [[nodiscard]] const std::deque<PeriodReport>& scored_history() const;
  /// The analysis thresholds/period backing scored_history().
  [[nodiscard]] const AnalyzerConfig& analyzer_config() const {
    return cfg_.analyzer;
  }

  [[nodiscard]] StateJournal& journal() { return journal_; }

  [[nodiscard]] Agent& agent(HostId host) { return *agents_.at(host.value); }
  [[nodiscard]] std::size_t num_agents() const { return agents_.size(); }

  /// Watch a service's performance metric for impact assessment (§4.3.4).
  /// Federated: impact runs at the global tier, against the union service
  /// networks.
  void watch_service(ServiceBinding binding);

 private:
  /// The tier whose verdicts are scored: the merge tier, or the flat
  /// Analyzer.
  [[nodiscard]] VerdictLog& scoring_tier() const;
  /// Pod `pod`'s Analyzer; throws std::logic_error when flat.
  [[nodiscard]] Analyzer& federated_pod(std::size_t pod);
  /// Take pod `pod`'s upload and digest channels' peer down, or back up.
  void set_pod_peer_down(std::size_t pod, bool down);

  host::Cluster& cluster_;
  RPingmeshConfig cfg_;
  ControllerGroup group_;
  // In-process stand-in for the persistence layer every Analyzer role
  // journals to (checkpoints + evidence archive). Declared before the
  // analyzers that hold pointers into it.
  StateJournal journal_;
  std::vector<std::unique_ptr<Analyzer>> analyzers_;  // by pod
  std::unique_ptr<GlobalAnalyzer> global_;            // pods >= 2
  std::vector<std::size_t> host_pod_;  // pod index by host id
  // Channels live in the Cluster's ControlPlane (they model the network);
  // these pointers let the destructor detach handlers that capture `this`.
  std::vector<transport::Channel*> upload_channels_;   // by host id
  std::vector<transport::RpcChannel*> rpc_channels_;   // by host id
  std::vector<transport::Channel*> digest_channels_;   // by pod (federated)
  std::vector<std::unique_ptr<Agent>> agents_;
  std::unique_ptr<sim::PeriodicTask> rotation_task_;
  std::unique_ptr<sim::PeriodicTask> settle_task_;
  bool running_ = false;
};

}  // namespace rpm::core
