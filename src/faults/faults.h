// Fault injection covering the paper's problem catalogue (Table 2) plus the
// two probe-noise sources the Analyzer must filter (§4.3.1 QPN reset,
// Figure 6 right Agent-CPU occupation).
//
// A FaultSpec names one fault: its kind plus the element ids and knobs that
// kind reads. FaultInjector::inject(spec) is the only way a fault enters the
// cluster and clear(handle) the only way it leaves. Every injection returns
// a handle and records ground truth (kind + the faulted entity) so benches
// can score R-Pingmesh's localization accuracy against what was actually
// injected (Figure 6 left). Specs round-trip through JSON (faults/catalog.h),
// which is what makes chaos plans replayable.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/five_tuple.h"
#include "common/types.h"
#include "host/cluster.h"
#include "sim/scheduler.h"

namespace rpm::faults {

/// The root causes of Table 2 (numbered as in the paper) plus probe noise.
/// Table 2's #10 (uneven load balance) and #11 (service interference) are
/// not injected: they emerge from traffic.
enum class FaultKind : std::uint8_t {
  kRnicFlapping = 1,        // #1 (RNIC side)
  kSwitchPortFlapping,      // #1 (switch side)
  kPacketCorruption,        // #2 damaged fiber / dusty module
  kRnicDown,                // #3
  kHostDown,                // #4
  kPfcDeadlock,             // #5
  kRnicRouteMissing,        // #6
  kRnicGidIndexMissing,     // #7
  kSwitchAclError,          // #8
  kPfcMisconfigured,        // #9 headroom wrong -> drops under congestion
  kCpuOverload,             // #12
  kPcieDowngrade,           // #13/#14 -> PFC storm precursor
  kAgentCpuOccupation,      // Fig. 6 right: probe noise, not a real fault
  kQpnReset,                // §4.3.1: probe noise after Agent restart
  kControlPlaneDegradation, // lossy/slow Agent<->Controller/Analyzer plane
};

const char* fault_kind_name(FaultKind k);

/// Whether this root cause is a *network* problem (RNIC or switch side) as
/// opposed to host-side or pure probe noise — the distinction the Analyzer
/// must recover (§4.3.1-§4.3.2).
bool is_network_fault(FaultKind k);
/// Whether the network-side fault is attributable to an RNIC (vs switch).
bool is_rnic_fault(FaultKind k);

/// One fault to inject. Only the fields its kind reads are meaningful; the
/// rest stay at their defaults. A default spec names no fault.
struct FaultSpec {
  FaultKind kind{};
  RnicId rnic{};
  HostId host{};
  LinkId link{};
  SwitchId sw{};
  IpAddr src_ip{};           // ACL error; zero = wildcard
  IpAddr dst_ip{};           // ACL error; zero = wildcard
  TimeNs down_time = 0;      // flapping dwell
  TimeNs up_time = 0;        // flapping dwell
  TimeNs extra_latency = 0;  // control-plane degradation
  double prob = 0.0;         // corruption drop probability
  double factor = 0.0;       // pcie downgrade factor
  double load = 0.0;         // cpu overload target
  double extra_loss = 0.0;   // control-plane degradation

  [[nodiscard]] bool valid() const { return kind != FaultKind{}; }

  // ---- Table 2 root causes ----

  /// #1: the RNIC's port bounces with the given duty cycle.
  static FaultSpec rnic_flapping(RnicId rnic, TimeNs down, TimeNs up) {
    return {.kind = FaultKind::kRnicFlapping,
            .rnic = rnic,
            .down_time = down,
            .up_time = up};
  }
  /// #1: a fabric switch port bounces.
  static FaultSpec switch_port_flapping(LinkId link, TimeNs down, TimeNs up) {
    return {.kind = FaultKind::kSwitchPortFlapping,
            .link = link,
            .down_time = down,
            .up_time = up};
  }
  /// #2: per-packet corruption drops on a cable (both directions).
  static FaultSpec corruption(LinkId link, double drop_prob) {
    return {.kind = FaultKind::kPacketCorruption, .link = link,
            .prob = drop_prob};
  }
  /// #3.
  static FaultSpec rnic_down(RnicId rnic) {
    return {.kind = FaultKind::kRnicDown, .rnic = rnic};
  }
  /// #4: host powers off; all of its RNICs go silent too.
  static FaultSpec host_down(HostId host) {
    return {.kind = FaultKind::kHostDown, .host = host};
  }
  /// #5: the two directions of a cable pause each other forever.
  static FaultSpec pfc_deadlock(LinkId link) {
    return {.kind = FaultKind::kPfcDeadlock, .link = link};
  }
  /// #6.
  static FaultSpec route_missing(RnicId rnic) {
    return {.kind = FaultKind::kRnicRouteMissing, .rnic = rnic};
  }
  /// #7.
  static FaultSpec gid_index_missing(RnicId rnic) {
    return {.kind = FaultKind::kRnicGidIndexMissing, .rnic = rnic};
  }
  /// #8: switch ACL denies (src, dst); zero IpAddr = wildcard.
  static FaultSpec acl_error(SwitchId sw, IpAddr src = {}, IpAddr dst = {}) {
    return {.kind = FaultKind::kSwitchAclError,
            .sw = sw,
            .src_ip = src,
            .dst_ip = dst};
  }
  /// #9: PFC headroom misconfigured on a link: congestion drops packets.
  static FaultSpec pfc_misconfigured(LinkId link) {
    return {.kind = FaultKind::kPfcMisconfigured, .link = link};
  }
  /// #12.
  static FaultSpec cpu_overload(HostId host, double load = 0.97) {
    return {.kind = FaultKind::kCpuOverload, .host = host, .load = load};
  }
  /// #13/#14: PCIe downgraded to `factor` of nominal bandwidth.
  static FaultSpec pcie_downgrade(RnicId rnic, double factor = 0.25) {
    return {.kind = FaultKind::kPcieDowngrade, .rnic = rnic, .factor = factor};
  }

  // ---- probe-noise sources ----

  /// Fig. 6 right: the service pegs every core; the Agent starves.
  static FaultSpec agent_cpu_occupation(HostId host) {
    return {.kind = FaultKind::kAgentCpuOccupation, .host = host};
  }
  /// Degrade the whole control plane: every transport channel (uploads,
  /// registrations, pinglist pulls) gains `extra_latency` per message and an
  /// additional independent loss probability `extra_loss`. The data plane is
  /// untouched — measurements must stay correct while their *reporting path*
  /// suffers ("waiting at the front door" scenario).
  static FaultSpec control_plane_degradation(TimeNs extra_latency,
                                             double extra_loss) {
    return {.kind = FaultKind::kControlPlaneDegradation,
            .extra_latency = extra_latency,
            .extra_loss = extra_loss};
  }
  /// §4.3.1: the Agent process on `host` restarts, so every Agent QP on the
  /// host's RNICs is recreated with fresh QPNs. Callers (the Agent harness)
  /// observe this via the returned record; the injector only flags it.
  static FaultSpec qpn_reset(HostId host) {
    return {.kind = FaultKind::kQpnReset, .host = host};
  }
};

/// Ground truth about an active fault.
struct FaultRecord {
  int handle = 0;
  FaultKind kind{};
  RnicId rnic;      // valid for RNIC-side faults
  HostId host;      // valid for host-side faults
  LinkId link;      // valid for link/switch-port faults (either direction)
  SwitchId sw;      // valid for switch faults
};

class FaultInjector {
 public:
  explicit FaultInjector(host::Cluster& cluster);

  /// Inject the spec's fault; returns its handle. Throws
  /// std::invalid_argument for a spec that names no fault or a knob out of
  /// range, and std::out_of_range for an element outside the topology (then
  /// nothing is registered).
  int inject(const FaultSpec& spec);

  /// Revert a fault. Safe to call twice.
  void clear(int handle);
  /// Revert every active fault in injection order.
  void clear_all();

  [[nodiscard]] const FaultRecord& record(int handle) const;
  /// The active faults in injection order.
  [[nodiscard]] std::vector<FaultRecord> active_faults() const;

 private:
  struct Active {
    FaultRecord rec;
    std::unique_ptr<sim::PeriodicTask> flapper;
    std::function<void()> revert;
  };

  int register_fault(FaultRecord rec, std::function<void()> revert,
                     std::unique_ptr<sim::PeriodicTask> flapper = nullptr);

  host::Cluster& cluster_;
  int next_handle_ = 1;
  std::map<int, Active> active_;  // by handle: injection order
};

}  // namespace rpm::faults
