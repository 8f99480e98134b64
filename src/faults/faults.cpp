#include "faults/faults.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/flight_recorder.h"
#include "telemetry/metrics.h"

namespace rpm::faults {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kRnicFlapping:
      return "rnic-flapping";
    case FaultKind::kSwitchPortFlapping:
      return "switch-port-flapping";
    case FaultKind::kPacketCorruption:
      return "packet-corruption";
    case FaultKind::kRnicDown:
      return "rnic-down";
    case FaultKind::kHostDown:
      return "host-down";
    case FaultKind::kPfcDeadlock:
      return "pfc-deadlock";
    case FaultKind::kRnicRouteMissing:
      return "rnic-route-missing";
    case FaultKind::kRnicGidIndexMissing:
      return "rnic-gid-index-missing";
    case FaultKind::kSwitchAclError:
      return "switch-acl-error";
    case FaultKind::kPfcMisconfigured:
      return "pfc-misconfigured";
    case FaultKind::kUnevenLoadBalance:
      return "uneven-load-balance";
    case FaultKind::kServiceInterference:
      return "service-interference";
    case FaultKind::kCpuOverload:
      return "cpu-overload";
    case FaultKind::kPcieDowngrade:
      return "pcie-downgrade";
    case FaultKind::kAgentCpuOccupation:
      return "agent-cpu-occupation";
    case FaultKind::kQpnReset:
      return "qpn-reset";
    case FaultKind::kControlPlaneDegradation:
      return "control-plane-degradation";
  }
  return "?";
}

bool is_network_fault(FaultKind k) {
  switch (k) {
    case FaultKind::kRnicFlapping:
    case FaultKind::kSwitchPortFlapping:
    case FaultKind::kPacketCorruption:
    case FaultKind::kRnicDown:
    case FaultKind::kPfcDeadlock:
    case FaultKind::kRnicRouteMissing:
    case FaultKind::kRnicGidIndexMissing:
    case FaultKind::kSwitchAclError:
    case FaultKind::kPfcMisconfigured:
    case FaultKind::kUnevenLoadBalance:
    case FaultKind::kServiceInterference:
    case FaultKind::kPcieDowngrade:
      return true;
    case FaultKind::kHostDown:
    case FaultKind::kCpuOverload:
    case FaultKind::kAgentCpuOccupation:
    case FaultKind::kQpnReset:
    case FaultKind::kControlPlaneDegradation:  // monitoring plane, not fabric
      return false;
  }
  return false;
}

bool is_rnic_fault(FaultKind k) {
  switch (k) {
    case FaultKind::kRnicFlapping:
    case FaultKind::kRnicDown:
    case FaultKind::kRnicRouteMissing:
    case FaultKind::kRnicGidIndexMissing:
    case FaultKind::kPcieDowngrade:
      return true;
    default:
      return false;
  }
}

std::string FaultRecord::describe(const topo::Topology& topo) const {
  std::ostringstream os;
  os << fault_kind_name(kind);
  if (rnic.valid()) os << " @" << topo.rnic(rnic).name;
  if (host.valid()) os << " @" << topo.host(host).name;
  if (link.valid()) os << " @" << topo.link(link).name;
  if (sw.valid()) os << " @" << topo.switch_info(sw).name;
  return os.str();
}

FaultInjector::FaultInjector(host::Cluster& cluster) : cluster_(cluster) {}

int FaultInjector::register_fault(FaultRecord rec,
                                  std::function<void()> revert,
                                  std::unique_ptr<sim::PeriodicTask> flapper) {
  rec.handle = next_handle_++;
  rec.active = true;
  telemetry::registry()
      .counter("rpm_faults_injected_total", "Fault injections by kind",
               {{"kind", fault_kind_name(rec.kind)}})
      .inc();
  obs::recorder().marker(fault_kind_name(rec.kind),
                         static_cast<std::uint64_t>(rec.handle), 1);
  Active a;
  a.rec = rec;
  a.flapper = std::move(flapper);
  a.revert = std::move(revert);
  active_.emplace(rec.handle, std::move(a));
  return rec.handle;
}

namespace {

/// Builds a flapper that alternates down/up phases with the given dwell
/// times, starting with "down" immediately.
std::unique_ptr<sim::PeriodicTask> make_flapper(
    sim::Scheduler& sched, TimeNs down_time, TimeNs up_time,
    std::function<void(bool down)> set) {
  if (down_time <= 0 || up_time <= 0) {
    throw std::invalid_argument("flapping: dwell times must be > 0");
  }
  // One periodic task per full cycle; the down->up transition is a one-shot
  // event inside the cycle.
  auto state = std::make_shared<bool>(false);
  auto task = std::make_unique<sim::PeriodicTask>(
      sched, down_time + up_time, [&sched, set, down_time, state] {
        set(true);
        *state = true;
        sched.schedule_after(down_time, [set, state] {
          if (*state) set(false);
          *state = false;
        });
      });
  task->start();
  return task;
}

}  // namespace

int FaultInjector::inject_rnic_flapping(RnicId rnic, TimeNs down_time,
                                        TimeNs up_time) {
  const LinkId link = cluster_.topology().rnic(rnic).uplink;
  auto& fab = cluster_.fabric();
  auto flapper = make_flapper(
      cluster_.scheduler(), down_time, up_time,
      [&fab, link](bool down) { fab.set_cable_flapping(link, down); });
  FaultRecord rec;
  rec.kind = FaultKind::kRnicFlapping;
  rec.rnic = rnic;
  rec.link = link;
  return register_fault(
      rec, [&fab, link] { fab.set_cable_flapping(link, false); },
      std::move(flapper));
}

int FaultInjector::inject_switch_port_flapping(LinkId link, TimeNs down_time,
                                               TimeNs up_time) {
  auto& fab = cluster_.fabric();
  auto flapper = make_flapper(
      cluster_.scheduler(), down_time, up_time,
      [&fab, link](bool down) { fab.set_cable_flapping(link, down); });
  FaultRecord rec;
  rec.kind = FaultKind::kSwitchPortFlapping;
  rec.link = link;
  const topo::Link& l = cluster_.topology().link(link);
  if (l.from.is_switch()) rec.sw = l.from.as_switch();
  return register_fault(
      rec, [&fab, link] { fab.set_cable_flapping(link, false); },
      std::move(flapper));
}

int FaultInjector::inject_corruption(LinkId link, double drop_prob) {
  if (drop_prob < 0.0 || drop_prob > 1.0) {
    throw std::invalid_argument("inject_corruption: prob out of range");
  }
  auto& fab = cluster_.fabric();
  const LinkId peer = cluster_.topology().link(link).peer;
  fab.link_state(link).corrupt_prob = drop_prob;
  fab.link_state(peer).corrupt_prob = drop_prob;
  FaultRecord rec;
  rec.kind = FaultKind::kPacketCorruption;
  rec.link = link;
  return register_fault(rec, [&fab, link, peer] {
    fab.link_state(link).corrupt_prob = 0.0;
    fab.link_state(peer).corrupt_prob = 0.0;
  });
}

int FaultInjector::inject_rnic_down(RnicId rnic) {
  auto& dev = cluster_.rnic_device(rnic);
  dev.set_down(true);
  FaultRecord rec;
  rec.kind = FaultKind::kRnicDown;
  rec.rnic = rnic;
  return register_fault(rec, [&dev] { dev.set_down(false); });
}

int FaultInjector::inject_host_down(HostId host) {
  auto& h = cluster_.host(host);
  h.set_down(true);
  // Power loss: every RNIC in the host goes down with it.
  std::vector<RnicId> rnics = cluster_.topology().host(host).rnics;
  for (RnicId r : rnics) cluster_.rnic_device(r).set_down(true);
  FaultRecord rec;
  rec.kind = FaultKind::kHostDown;
  rec.host = host;
  host::Cluster* cl = &cluster_;
  return register_fault(rec, [cl, &h, rnics] {
    h.set_down(false);
    for (RnicId r : rnics) cl->rnic_device(r).set_down(false);
  });
}

int FaultInjector::inject_pfc_deadlock(LinkId link) {
  auto& fab = cluster_.fabric();
  const LinkId peer = cluster_.topology().link(link).peer;
  fab.link_state(link).deadlocked = true;
  fab.link_state(peer).deadlocked = true;
  FaultRecord rec;
  rec.kind = FaultKind::kPfcDeadlock;
  rec.link = link;
  return register_fault(rec, [&fab, link, peer] {
    fab.link_state(link).deadlocked = false;
    fab.link_state(peer).deadlocked = false;
  });
}

int FaultInjector::inject_route_missing(RnicId rnic) {
  auto& dev = cluster_.rnic_device(rnic);
  dev.set_routing_config_missing(true);
  FaultRecord rec;
  rec.kind = FaultKind::kRnicRouteMissing;
  rec.rnic = rnic;
  return register_fault(rec,
                        [&dev] { dev.set_routing_config_missing(false); });
}

int FaultInjector::inject_gid_index_missing(RnicId rnic) {
  auto& dev = cluster_.rnic_device(rnic);
  dev.set_gid_index_missing(true);
  FaultRecord rec;
  rec.kind = FaultKind::kRnicGidIndexMissing;
  rec.rnic = rnic;
  return register_fault(rec, [&dev] { dev.set_gid_index_missing(false); });
}

int FaultInjector::inject_acl_error(SwitchId sw, IpAddr src, IpAddr dst) {
  auto& fab = cluster_.fabric();
  fab.add_acl_deny(sw, src, dst);
  FaultRecord rec;
  rec.kind = FaultKind::kSwitchAclError;
  rec.sw = sw;
  return register_fault(rec, [&fab, sw] { fab.clear_acl(sw); });
}

int FaultInjector::inject_pfc_misconfigured(LinkId link) {
  auto& fab = cluster_.fabric();
  fab.link_state(link).pfc_misconfigured = true;
  FaultRecord rec;
  rec.kind = FaultKind::kPfcMisconfigured;
  rec.link = link;
  const topo::Link& l = cluster_.topology().link(link);
  if (l.from.is_switch()) rec.sw = l.from.as_switch();
  return register_fault(
      rec, [&fab, link] { fab.link_state(link).pfc_misconfigured = false; });
}

int FaultInjector::inject_cpu_overload(HostId host, double load) {
  auto& h = cluster_.host(host);
  const double before = h.cpu_load();
  h.set_cpu_load(load);
  FaultRecord rec;
  rec.kind = FaultKind::kCpuOverload;
  rec.host = host;
  return register_fault(rec, [&h, before] { h.set_cpu_load(before); });
}

int FaultInjector::inject_pcie_downgrade(RnicId rnic, double factor) {
  auto& dev = cluster_.rnic_device(rnic);
  dev.set_pcie_factor(factor);
  FaultRecord rec;
  rec.kind = FaultKind::kPcieDowngrade;
  rec.rnic = rnic;
  return register_fault(rec, [&dev] { dev.set_pcie_factor(1.0); });
}

int FaultInjector::inject_agent_cpu_occupation(HostId host) {
  auto& h = cluster_.host(host);
  const double before = h.cpu_load();
  h.set_cpu_load(1.0);
  FaultRecord rec;
  rec.kind = FaultKind::kAgentCpuOccupation;
  rec.host = host;
  return register_fault(rec, [&h, before] { h.set_cpu_load(before); });
}

int FaultInjector::inject_qpn_reset(HostId host) {
  FaultRecord rec;
  rec.kind = FaultKind::kQpnReset;
  rec.host = host;
  return register_fault(rec, [] {});
}

int FaultInjector::inject_control_plane_degradation(TimeNs extra_latency,
                                                    double extra_loss) {
  FaultRecord rec;
  rec.kind = FaultKind::kControlPlaneDegradation;
  transport::ControlPlane& cp = cluster_.control_plane();
  cp.set_degradation(extra_latency, extra_loss);
  return register_fault(rec, [&cp] { cp.clear_degradation(); });
}

void FaultInjector::clear(int handle) {
  auto it = active_.find(handle);
  if (it == active_.end()) return;
  if (it->second.flapper) it->second.flapper->cancel();
  telemetry::registry()
      .counter("rpm_faults_cleared_total", "Fault reverts by kind",
               {{"kind", fault_kind_name(it->second.rec.kind)}})
      .inc();
  obs::recorder().marker(fault_kind_name(it->second.rec.kind),
                         static_cast<std::uint64_t>(handle), 0);
  it->second.revert();
  active_.erase(it);
}

void FaultInjector::clear_all() {
  // Revert in ascending-handle (injection) order. Iterating the
  // unordered_map directly would let the platform's hashing decide the
  // revert order, and stacked faults that capture "before" state (two CPU
  // loads on one host, say) then settle on implementation-defined values —
  // breaking seeded-run byte-identity across a clear_all().
  std::vector<int> handles;
  handles.reserve(active_.size());
  for (const auto& [h, a] : active_) handles.push_back(h);
  std::sort(handles.begin(), handles.end());
  for (int h : handles) clear(h);
}

const FaultRecord& FaultInjector::record(int handle) const {
  const auto it = active_.find(handle);
  if (it == active_.end()) {
    throw std::out_of_range("FaultInjector::record: unknown handle");
  }
  return it->second.rec;
}

std::vector<FaultRecord> FaultInjector::active_faults() const {
  std::vector<FaultRecord> out;
  out.reserve(active_.size());
  for (const auto& [_, a] : active_) out.push_back(a.rec);
  return out;
}

}  // namespace rpm::faults
