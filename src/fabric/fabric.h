// The RoCE fabric: dynamic network state on top of an immutable Topology.
//
// Two traffic granularities coexist (see DESIGN.md §5):
//
//  * FLUID service flows. Each registered flow has an ECMP-resolved path and
//    a rate (optionally governed by a RateController, e.g. DCQCN). Every
//    `step_interval` the engine integrates per-link queues from offered
//    load, applies ECN marking, PFC backpressure (lossless) or tail drops
//    (lossy/misconfigured), and computes achieved throughput.
//
//    The plane pays only for traffic. A step that ends with every link
//    drained, every live flow at zero demand, and every live flow's rate at
//    zero both when the step starts and when it ends leaves the plane QUIET:
//    later steps only count themselves. With no offered load a drained link
//    stays drained whatever its flags, so each skipped step would repeat
//    that step's flow stats and CC feedback, and clamp each CC result to the
//    zero demand. Every call that changes a fluid input (add_flow,
//    remove_flow, set_flow_demand, the mutable link_state(), the cable
//    setters, bump_topology_epoch) first wakes the plane: it replays the
//    skipped RateController::update calls, flow by flow, and the next step
//    is a full one. Reads (flow_stats, flow_path, the const link_state)
//    and the packet plane never wake it.
//
//  * PACKET-level datagrams (probes, ACKs). A datagram resolves its path
//    with the *current* link state, accumulates per-hop propagation +
//    queueing delay sampled from the fluid queues, and is subject to per-hop
//    drop checks (link down/flap, corruption, ACL deny, PFC deadlock,
//    overflow loss). Delivery is an event at the destination RNIC's handler.
//
// All fault hooks (flaps, corruption, deadlock, ACL, PCIe service-rate
// degradation) are plain setters on link/switch state; src/faults drives
// them on a schedule.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/five_tuple.h"
#include "common/rng.h"
#include "common/types.h"
#include "routing/ecmp.h"
#include "sim/scheduler.h"
#include "telemetry/metrics.h"
#include "topo/topology.h"

namespace rpm::sketch {
class LinkSketchBank;
}  // namespace rpm::sketch

namespace rpm::fabric {

/// Why a datagram was not delivered.
enum class DropReason : std::uint8_t {
  kNone,
  kLinkDown,       // admin-down or flapping link on the path
  kBlackhole,      // no live ECMP candidate (all next-hops down)
  kCorruption,     // CRC-style corruption drop (fiber/module damage)
  kBufferOverflow, // lossy or PFC-misconfigured queue overflowed
  kAclDeny,        // switch ACL dropped the packet
  kPfcDeadlock,    // path crosses a deadlocked link: never delivered
};

const char* drop_reason_name(DropReason r);

/// A single packet travelling through the fabric (probe, ACK, ...).
struct Datagram {
  RnicId src;
  RnicId dst;
  FiveTuple tuple;
  Bytes size = 64;
  Qpn src_qpn;
  Qpn dst_qpn;
  std::uint64_t wr_tag = 0;  // sender work-request id (echoed by RC HW ACKs)
  // Flight-recorder correlation key (0 = untracked). A sampled probe carries
  // its probe id here so the fabric can record per-hop traversal and drop
  // events onto the probe's timeline; the per-hop check is a single compare
  // against 0 for the (overwhelmingly common) untracked case.
  std::uint64_t trace_id = 0;
  std::any payload;          // opaque to the fabric; typed by the verbs layer
};

/// Outcome of Fabric::send (the simulator's ground truth for this packet).
struct SendOutcome {
  routing::Path path;
  bool delivered = false;
  DropReason drop = DropReason::kNone;
  LinkId drop_link;      // valid when dropped on a link
  SwitchId drop_switch;  // valid when dropped by a switch (ACL)
  TimeNs latency = 0;    // one-way network latency when delivered
};

/// Per-flow feedback handed to a RateController each fluid step.
struct CcFeedback {
  double ecn_fraction = 0.0;        // marking probability along the path
  TimeNs queue_delay = 0;           // current queueing delay along the path
  TimeNs base_rtt = 0;              // 2 * propagation along the path
  double achieved_Bps = 0.0;
  double bottleneck_capacity_Bps = 0.0;
  TimeNs dt = 0;
};

/// Congestion-control strategy interface implemented by src/cc. One
/// controller instance may govern many flows; `flow_slot` identifies the
/// flow's per-controller state. A controller keeps state only per
/// `flow_slot`: the fabric relies on it when a quiet plane replays the calls
/// it skipped flow by flow instead of step by step.
class RateController {
 public:
  virtual ~RateController() = default;
  /// Called when a flow is (re)registered. Returns the initial rate.
  virtual double reset(std::uint32_t flow_slot, double demand_Bps,
                       double line_rate_Bps) = 0;
  /// Called every fluid step; returns the new sending rate.
  virtual double update(std::uint32_t flow_slot, const CcFeedback& fb,
                        double current_rate_Bps) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Dynamic per-link state (one per *directed* link).
///
/// `admin_up = false` models a *persistent* failure the routing layer has
/// converged around: ECMP re-hashes traffic onto surviving links (and
/// post-failure Traceroute shows the new path — the staleness pitfall of
/// §4.2.3). `flapping = true` models a port bouncing faster than routing
/// reacts: the link stays in forwarding tables and packets crossing it
/// during a down phase are simply lost.
struct LinkState {
  bool admin_up = true;
  bool flapping = false;       // currently in the "down" phase of a flap
  bool deadlocked = false;     // PFC deadlock blocks the link entirely
  bool pfc_enabled = true;     // lossless queue configured
  bool pfc_misconfigured = false;  // headroom wrong: overflow drops anyway
  double corrupt_prob = 0.0;   // per-packet corruption drop probability
  double service_rate_factor = 1.0;  // <1 models PCIe-downgraded endpoints

  // Outputs of Fabric::step_once, and only of it: nothing else may write
  // them. The quiet rule depends on it (a quiet plane skips integration
  // because its drained links would integrate back to drained).
  Bytes queue_bytes = 0;
  double overflow_drop_frac = 0.0;  // fraction of offered load dropped now
  bool pfc_paused = false;          // asserted pause towards upstream

  // counters (monotonic)
  std::uint64_t drops_corrupt = 0;
  std::uint64_t drops_overflow = 0;
  std::uint64_t drops_down = 0;
  std::uint64_t pfc_pause_events = 0;

  bool operator==(const LinkState&) const = default;

  /// Usable for *routing* (stays in forwarding tables while flapping).
  [[nodiscard]] bool usable() const { return admin_up; }
  /// Currently able to carry a packet.
  [[nodiscard]] bool carrying() const { return admin_up && !flapping; }
};

/// Registered fluid flow.
struct FlowSpec {
  RnicId src;
  RnicId dst;
  FiveTuple tuple;
  double demand_Bps = 0.0;             // application offered load
  RateController* controller = nullptr;  // optional; nullptr = fixed demand
};

struct FlowStats {
  double offered_Bps = 0.0;
  double achieved_Bps = 0.0;
  double loss_rate = 0.0;  // instantaneous drop fraction along the path
  TimeNs queue_delay = 0;  // current queueing delay along the path
};

struct FabricConfig {
  TimeNs step_interval = usec(100);  // fluid integration step
};

class Fabric {
 public:
  Fabric(const topo::Topology& topo, const routing::EcmpRouter& router,
         sim::Scheduler& sched, FabricConfig cfg = {});

  // ---- packet plane ----

  /// Handler invoked (as a scheduled event) when a datagram reaches an RNIC.
  /// Delivery is scheduled only if the destination has a handler at send
  /// time; the event calls the handler installed when it runs.
  using DeliveryFn = std::function<void(const Datagram&)>;
  void set_delivery_handler(RnicId rnic, DeliveryFn fn);

  /// Inject a datagram. Resolves the path with current link state, applies
  /// drop checks, and — if it survives — schedules delivery. Returns the
  /// ground-truth outcome immediately (the simulator knows its own dice).
  SendOutcome send(const Datagram& dgram);

  /// The ECMP path this tuple would take right now (used by Traceroute).
  [[nodiscard]] routing::Path current_path(RnicId src, RnicId dst,
                                           const FiveTuple& tuple) const;

  // ---- fluid plane ----

  FlowId add_flow(const FlowSpec& spec);
  void remove_flow(FlowId id);
  void set_flow_demand(FlowId id, double demand_Bps);
  [[nodiscard]] FlowStats flow_stats(FlowId id) const;
  [[nodiscard]] const routing::Path& flow_path(FlowId id) const;
  [[nodiscard]] std::size_t num_flows() const { return live_flows_; }

  /// Start/stop the periodic fluid step (idempotent).
  void start(TimeNs first_delay = 0);
  void stop();

  /// Run one integration step manually (tests).
  void step_once();

  // ---- state & fault hooks ----

  /// Mutable access is for changing a link's inputs (fault hooks), so it
  /// wakes a quiet plane first. Write through the reference at once and do
  /// not hold it across simulated time: a later write would change an input
  /// behind a quiet plane's back. Readers use the const overload, which
  /// never wakes the plane.
  LinkState& link_state(LinkId id);
  [[nodiscard]] const LinkState& link_state(LinkId id) const;

  /// Admin/flap helpers affecting both directions of the cable.
  void set_cable_up(LinkId any_direction, bool up);
  void set_cable_flapping(LinkId any_direction, bool down_phase);

  /// Deny all packets whose (src_ip, dst_ip) matches at `sw`. Invalid (zero)
  /// addresses act as wildcards.
  void add_acl_deny(SwitchId sw, IpAddr src, IpAddr dst);
  void clear_acl(SwitchId sw);

  [[nodiscard]] bool link_usable(LinkId id) const;

  /// Queueing delay a packet entering this link right now experiences.
  [[nodiscard]] TimeNs link_queue_delay(LinkId id) const;

  [[nodiscard]] const topo::Topology& topology() const { return topo_; }
  [[nodiscard]] const routing::EcmpRouter& router() const { return router_; }
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }

  /// Marks routing-relevant state as changed; flow paths are re-resolved on
  /// the next fluid step. Called automatically by the fault setters.
  void bump_topology_epoch() {
    wake();
    ++topology_epoch_;
  }

  /// Attach (or with nullptr, detach) a per-link sketch bank (src/sketch):
  /// every forwarded datagram updates its links' traffic/latency/queue
  /// sketches, every drop its drop counters. The bank draws no randomness
  /// and feeds nothing back into forwarding, so attaching one never perturbs
  /// the fabric's deterministic behavior. The bank must outlive the
  /// attachment (the owner detaches before destroying it).
  void attach_sketches(sketch::LinkSketchBank* bank) { sketches_ = bank; }
  [[nodiscard]] sketch::LinkSketchBank* sketches() const { return sketches_; }

 private:
  struct Flow {
    FlowSpec spec;
    routing::Path path;
    double rate_Bps = 0.0;   // current sending rate (CC-governed)
    TimeNs base_rtt = 0;     // 2 * propagation along `path`
    std::uint64_t path_epoch = 0;
    bool live = false;
    FlowStats stats;
    std::uint32_t cc_slot = 0;
  };

  /// Per-link values the flow walk of one step reads, computed once after
  /// queue integration so every flow crossing a link sees the same numbers.
  struct LinkStep {
    bool blocked = false;      // down, flapping or deadlocked: no service
    double capacity = 0.0;     // effective_capacity
    double survive = 1.0;      // 1 - min(1, corrupt_prob + overflow_drop_frac)
    double ecn_survive = 1.0;  // 1 - ecn_mark_prob
    TimeNs queue_delay = 0;    // link_queue_delay
  };

  struct AclRule {
    IpAddr src;  // zero = wildcard
    IpAddr dst;  // zero = wildcard
  };

  void resolve_flow_path(Flow& f);
  /// One flow's walk over `link_step_` at its current rate: fills `st`
  /// and, when the path is complete and unblocked, `fb`. Returns whether it
  /// filled `fb`.
  bool walk_flow(const Flow& f, FlowStats& st, CcFeedback& fb) const;
  /// Called before every change to a fluid input.
  void wake() {
    if (quiet_) replay_quiet_steps();
  }
  void replay_quiet_steps();
  [[nodiscard]] double effective_capacity(const topo::Link& l,
                                          const LinkState& s) const;
  [[nodiscard]] double ecn_mark_prob(const LinkState& s) const;
  bool acl_denies(SwitchId sw, const FiveTuple& t) const;
  void init_metrics();
  void count_drop(DropReason r);
  void collect_link_metrics(telemetry::MetricsRegistry& reg);

  const topo::Topology& topo_;
  const routing::EcmpRouter& router_;
  sim::Scheduler& sched_;
  FabricConfig cfg_;
  Rng rng_;

  std::vector<LinkState> links_;
  std::vector<std::vector<AclRule>> acl_;  // per switch
  std::vector<DeliveryFn> delivery_;       // per rnic
  sketch::LinkSketchBank* sketches_ = nullptr;  // optional, not owned

  std::vector<Flow> flows_;
  std::size_t live_flows_ = 0;
  std::uint64_t topology_epoch_ = 1;
  std::uint32_t next_cc_slot_ = 0;

  sim::PeriodicTask step_task_;

  // Set by each full step that ends quiet (see the header comment); while
  // set, a step only counts itself in `quiet_steps_` for the next wake.
  bool quiet_ = false;
  std::uint64_t quiet_steps_ = 0;

  // Per-link tables of the last full step, reused across steps; the replay
  // of a quiet plane reads them.
  std::vector<double> offered_;       // per link
  std::vector<LinkStep> link_step_;   // per link

  // self-observability (handles cached at construction; inc() on hot paths)
  telemetry::Counter sends_total_;
  telemetry::Counter delivered_total_;
  telemetry::Counter fluid_steps_total_;
  telemetry::Counter drops_total_[7];  // indexed by DropReason
  telemetry::CollectorGuard link_collector_;  // last: detached before members
};

}  // namespace rpm::fabric
