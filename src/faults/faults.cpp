#include "faults/faults.h"

#include <stdexcept>
#include <utility>
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

FaultInjector::FaultInjector(host::Cluster& cluster) : cluster_(cluster) {}

int FaultInjector::register_fault(FaultRecord rec,
                                  std::function<void()> revert,
                                  std::unique_ptr<sim::PeriodicTask> flapper) {
  rec.handle = next_handle_++;
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

int FaultInjector::inject(const FaultSpec& spec) {
  auto& fab = cluster_.fabric();
  const topo::Topology& topo = cluster_.topology();
  FaultRecord rec;
  rec.kind = spec.kind;
  switch (spec.kind) {
    case FaultKind::kRnicFlapping: {
      const LinkId link = topo.rnic(spec.rnic).uplink;
      auto flapper = make_flapper(
          cluster_.scheduler(), spec.down_time, spec.up_time,
          [&fab, link](bool down) { fab.set_cable_flapping(link, down); });
      rec.rnic = spec.rnic;
      rec.link = link;
      return register_fault(
          rec, [&fab, link] { fab.set_cable_flapping(link, false); },
          std::move(flapper));
    }
    case FaultKind::kSwitchPortFlapping: {
      const LinkId link = spec.link;
      auto flapper = make_flapper(
          cluster_.scheduler(), spec.down_time, spec.up_time,
          [&fab, link](bool down) { fab.set_cable_flapping(link, down); });
      rec.link = link;
      const topo::Link& l = topo.link(link);
      if (l.from.is_switch()) rec.sw = l.from.as_switch();
      return register_fault(
          rec, [&fab, link] { fab.set_cable_flapping(link, false); },
          std::move(flapper));
    }
    case FaultKind::kPacketCorruption: {
      if (spec.prob < 0.0 || spec.prob > 1.0) {
        throw std::invalid_argument("corruption: prob out of range");
      }
      const LinkId link = spec.link;
      const LinkId peer = topo.link(link).peer;
      fab.link_state(link).corrupt_prob = spec.prob;
      fab.link_state(peer).corrupt_prob = spec.prob;
      rec.link = link;
      return register_fault(rec, [&fab, link, peer] {
        fab.link_state(link).corrupt_prob = 0.0;
        fab.link_state(peer).corrupt_prob = 0.0;
      });
    }
    case FaultKind::kRnicDown: {
      auto& dev = cluster_.rnic_device(spec.rnic);
      dev.set_down(true);
      rec.rnic = spec.rnic;
      return register_fault(rec, [&dev] { dev.set_down(false); });
    }
    case FaultKind::kHostDown: {
      auto& h = cluster_.host(spec.host);
      h.set_down(true);
      // Power loss: every RNIC in the host goes down with it.
      std::vector<RnicId> rnics = topo.host(spec.host).rnics;
      for (RnicId r : rnics) cluster_.rnic_device(r).set_down(true);
      rec.host = spec.host;
      host::Cluster* cl = &cluster_;
      return register_fault(rec, [cl, &h, rnics] {
        h.set_down(false);
        for (RnicId r : rnics) cl->rnic_device(r).set_down(false);
      });
    }
    case FaultKind::kPfcDeadlock: {
      const LinkId link = spec.link;
      const LinkId peer = topo.link(link).peer;
      fab.link_state(link).deadlocked = true;
      fab.link_state(peer).deadlocked = true;
      rec.link = link;
      return register_fault(rec, [&fab, link, peer] {
        fab.link_state(link).deadlocked = false;
        fab.link_state(peer).deadlocked = false;
      });
    }
    case FaultKind::kRnicRouteMissing: {
      auto& dev = cluster_.rnic_device(spec.rnic);
      dev.set_routing_config_missing(true);
      rec.rnic = spec.rnic;
      return register_fault(
          rec, [&dev] { dev.set_routing_config_missing(false); });
    }
    case FaultKind::kRnicGidIndexMissing: {
      auto& dev = cluster_.rnic_device(spec.rnic);
      dev.set_gid_index_missing(true);
      rec.rnic = spec.rnic;
      return register_fault(rec,
                            [&dev] { dev.set_gid_index_missing(false); });
    }
    case FaultKind::kSwitchAclError: {
      const SwitchId sw = spec.sw;
      fab.add_acl_deny(sw, spec.src_ip, spec.dst_ip);
      rec.sw = sw;
      return register_fault(rec, [&fab, sw] { fab.clear_acl(sw); });
    }
    case FaultKind::kPfcMisconfigured: {
      const LinkId link = spec.link;
      fab.link_state(link).pfc_misconfigured = true;
      rec.link = link;
      const topo::Link& l = topo.link(link);
      if (l.from.is_switch()) rec.sw = l.from.as_switch();
      return register_fault(rec, [&fab, link] {
        fab.link_state(link).pfc_misconfigured = false;
      });
    }
    case FaultKind::kCpuOverload:
    case FaultKind::kAgentCpuOccupation: {
      // Occupation pegs every core; overload sets the spec's load.
      auto& h = cluster_.host(spec.host);
      const double before = h.cpu_load();
      h.set_cpu_load(spec.kind == FaultKind::kCpuOverload ? spec.load : 1.0);
      rec.host = spec.host;
      return register_fault(rec, [&h, before] { h.set_cpu_load(before); });
    }
    case FaultKind::kPcieDowngrade: {
      auto& dev = cluster_.rnic_device(spec.rnic);
      dev.set_pcie_factor(spec.factor);
      rec.rnic = spec.rnic;
      return register_fault(rec, [&dev] { dev.set_pcie_factor(1.0); });
    }
    case FaultKind::kQpnReset: {
      // Nothing to write, but a host outside the topology still throws.
      static_cast<void>(topo.host(spec.host));
      rec.host = spec.host;
      return register_fault(rec, [] {});
    }
    case FaultKind::kControlPlaneDegradation: {
      transport::ControlPlane& cp = cluster_.control_plane();
      cp.set_degradation(spec.extra_latency, spec.extra_loss);
      return register_fault(rec, [&cp] { cp.clear_degradation(); });
    }
  }
  throw std::invalid_argument("FaultInjector::inject: spec names no fault");
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
  // Reverting in injection order keeps stacked faults that capture "before"
  // state (two CPU loads on one host, say) deterministic.
  while (!active_.empty()) clear(active_.begin()->first);
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
