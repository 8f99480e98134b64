// R-Pingmesh Controller (§4.1).
//
// Three jobs:
//  1. Central registry of the latest RNIC communication info (GID + QPN).
//     QPNs change whenever an Agent (re)starts, so Agents re-register and
//     everyone else's pinglists go stale until the next refresh — which is
//     precisely the "QPN reset" noise the Analyzer filters.
//  2. Pinglist generation. Per RNIC: a ToR-mesh pinglist (every other RNIC
//     under the same ToR) and an inter-ToR pinglist. The inter-ToR list is
//     sized by Equation (1): the minimum k such that k random 5-tuples cover
//     all N parallel ECMP paths with probability >= P (coupon collector).
//     20% of inter-ToR tuples are rotated every hour to catch tuple-specific
//     silent drops.
//  3. Serving Agents' comm-info lookups for Service Tracing targets.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/types.h"
#include "routing/ecmp.h"
#include "sim/scheduler.h"
#include "telemetry/metrics.h"
#include "topo/topology.h"

namespace rpm::core {

/// Lease-based liveness: how long a registration stays on file without a
/// renewing heartbeat from the Agent's side. Granted in RegistrationAck.
inline constexpr TimeNs kLeaseDuration = sec(15);

/// Solves Equation (1): smallest k >= N with
///   sum_{i=1..N} (-1)^{i+1} C(N,i) (1 - i/N)^k <= 1 - P.
std::uint32_t equation1_min_tuples(std::uint32_t num_paths, double coverage_p);

/// Counts parallel equal-cost paths between two ToRs by multiplying ECMP
/// fan-outs along one shortest path (exact for symmetric Clos fabrics).
std::uint32_t count_parallel_paths(const routing::EcmpRouter& router,
                                   SwitchId src_tor, SwitchId dst_tor);

class Controller {
 public:
  Controller(const topo::Topology& topo, const routing::EcmpRouter& router);

  // ---- registry ----

  /// Called by an Agent when it starts or restarts: stores the freshest
  /// comm info for every RNIC the Agent manages. Returns false (and stores
  /// nothing) while the Controller process is down.
  bool register_agent(HostId host, const std::vector<RnicCommInfo>& rnics);

  /// Lease renewal: does this Controller currently hold a registration for
  /// `host`? A restarted Controller answers known=false until the Agent
  /// re-registers.
  [[nodiscard]] HeartbeatAck heartbeat(HostId host) const;

  // ---- process lifecycle (control-plane survivability) ----

  /// The Controller process crashes: every registration and heartbeat lease
  /// is lost and nothing is accepted or served until restart().
  void crash();
  /// The process comes back — with an empty registry and a new epoch; every
  /// Agent must re-register.
  void restart();
  /// Standby takeover (ControllerGroup): become primary under `new_epoch`.
  /// Reuses restart()'s known=false contract — the registry is cleared so
  /// every Agent is forced through re-registration; the new primary never
  /// trusts comm info it did not collect itself. Unlike restart(), the
  /// member need not be down (a warm standby never was), and the epoch is
  /// assigned (it must dominate every epoch the cluster has ever seen, not
  /// just this member's).
  void promote(std::uint64_t new_epoch);
  [[nodiscard]] bool is_down() const { return down_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::size_t num_registered_agents() const {
    return registered_hosts_.size();
  }

  /// Latest comm info for an RNIC (nullopt if its Agent never registered).
  [[nodiscard]] std::optional<RnicCommInfo> comm_info(RnicId rnic) const;
  [[nodiscard]] std::optional<RnicCommInfo> comm_info_by_ip(IpAddr ip) const;

  // ---- pinglists ----

  /// ToR-mesh pinglist for `rnic`: all other registered RNICs under the
  /// same ToR, probed at the ToR-mesh cadence.
  [[nodiscard]] Pinglist tormesh_pinglist(RnicId rnic) const;

  /// Inter-ToR pinglist for `rnic`: this RNIC's share of its ToR's k
  /// Equation-1 tuples, with the Controller-computed probe interval.
  [[nodiscard]] Pinglist intertor_pinglist(RnicId rnic) const;

  /// Rotate 20% of every ToR's inter-ToR tuples (hourly in production).
  void rotate_intertor_tuples();

  /// Equation-1 k for a ToR (max over destination ToRs), exposed for tests.
  [[nodiscard]] std::uint32_t tuples_for_tor(SwitchId tor) const;

 private:
  struct InterTorTuple {
    RnicId src;
    RnicId dst;
    std::uint16_t src_port;
  };

  void build_intertor_plan();
  InterTorTuple make_tuple(SwitchId tor, Rng& rng);

  const topo::Topology& topo_;
  const routing::EcmpRouter& router_;
  Rng rng_;

  std::unordered_map<std::uint32_t, RnicCommInfo> registry_;  // by rnic id
  std::unordered_set<std::uint32_t> registered_hosts_;        // by host id
  bool down_ = false;
  std::uint64_t epoch_ = 1;  // bumped on every restart()
  // Per ToR: the k selected inter-ToR tuples and the per-tuple cadence.
  struct TorPlan {
    std::uint32_t parallel_paths = 1;
    std::uint32_t k = 0;
    std::vector<InterTorTuple> tuples;
    TimeNs per_tuple_interval = msec(100);
  };
  std::unordered_map<std::uint32_t, TorPlan> plans_;  // by tor switch id
  std::uint16_t next_port_ = 0;

  // Self-observability: pinglist generation volume and cost.
  struct Metrics {
    telemetry::Counter registrations;
    telemetry::Gauge registered_agents;        // hosts with a live lease
    telemetry::Counter pinglist_requests[2];   // {tor-mesh, inter-tor}
    telemetry::Histogram pinglist_entries[2];  // entries per generated list
    telemetry::Histogram plan_build_ns;        // Equation-1 planning (wall)
    telemetry::Counter rotations;
  };
  Metrics metrics_;
};

/// Controller-side servicing of one Agent pinglist pull (the server half of
/// the transport RPC): pinglists for every requested RNIC plus fresh comm
/// info for the requested service-tracing targets. Idempotent — safe under
/// at-least-once request delivery.
[[nodiscard]] PinglistPullResponse serve_pinglist_pull(
    const Controller& controller, const PinglistPullRequest& req);

/// Replicated control plane (ROADMAP "Hierarchical federation"): one primary
/// Controller plus an optional warm standby with lease-transfer failover.
///
/// Both members are built the same way, so their Equation-1 plans
/// and pinglists are identical — what a standby can NEVER inherit is the
/// registry (comm info is only fresh if an Agent sent it to YOU), which is
/// why promotion reuses the restart() contract: empty registry, known=false
/// heartbeats, every Agent re-registers with the new primary using its
/// normal backoff machinery.
///
/// Epoch fencing: the promoted member's epoch is max over every member's
/// epoch + 1, strictly greater than anything the deposed primary ever
/// stamped. Agents track the newest epoch heard and discard pinglist
/// responses fenced below it (PinglistPullResponse::controller_epoch).
///
/// Without a standby the group is a passthrough holding exactly one
/// Controller and schedules nothing — byte-identical to the pre-group
/// deployment.
class ControllerGroup {
 public:
  ControllerGroup(const topo::Topology& topo,
                  const routing::EcmpRouter& router, sim::Scheduler& sched,
                  bool standby);

  [[nodiscard]] Controller& active() { return *members_[active_]; }
  [[nodiscard]] const Controller& active() const { return *members_[active_]; }
  [[nodiscard]] std::size_t active_index() const { return active_; }
  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] Controller& member(std::size_t i) { return *members_[i]; }
  [[nodiscard]] std::uint64_t failovers() const { return failovers_; }

  /// Crash the current primary. With a standby, the monitor promotes it
  /// after a 2 s grace; without one, the group waits for
  /// restart_crashed().
  void crash_active();
  /// Restart every crashed member via Controller::restart(). A member the
  /// monitor already replaced comes back as the warm standby for the NEXT
  /// failover; if the crashed member is still active (no standby, or the
  /// delay has not elapsed), this is exactly the old single-Controller
  /// restart path.
  void restart_crashed();

  /// Invoked right after a standby is promoted (epoch already bumped) so
  /// the deployment can retarget RPC servers and directory pointers.
  void set_on_failover(std::function<void(Controller&)> hook) {
    on_failover_ = std::move(hook);
  }

 private:
  void check_failover();

  sim::Scheduler& sched_;
  std::vector<std::unique_ptr<Controller>> members_;
  std::vector<bool> crashed_;
  std::size_t active_ = 0;
  TimeNs crash_time_ = 0;
  std::uint64_t failovers_ = 0;
  std::function<void(Controller&)> on_failover_;
  std::unique_ptr<sim::PeriodicTask> monitor_;
  // Registered only when the standby is enabled, so a flat deployment adds
  // no metric series.
  telemetry::Gauge epoch_gauge_;
  telemetry::Counter failovers_total_;
};

}  // namespace rpm::core
