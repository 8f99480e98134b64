#include "core/rootcause.h"

#include <cstdio>

#include <algorithm>
#include <sstream>

#include "common/json.h"

namespace rpm::core {

std::string hints_json(const std::vector<RootCauseHint>& hints) {
  std::string out = "[";
  bool first = true;
  char buf[40];
  for (const RootCauseHint& h : hints) {
    if (!first) out += ',';
    first = false;
    out += "{\"cause\":";
    json::append_quoted(out, h.cause);
    std::snprintf(buf, sizeof(buf), ",\"confidence\":%.3f", h.confidence);
    out += buf;
    out += ",\"evidence\":";
    json::append_quoted(out, h.evidence);
    out += '}';
  }
  out += ']';
  return out;
}

RootCauseAdvisor::RootCauseAdvisor(host::Cluster& cluster)
    : cluster_(cluster),
      link_base_(cluster.topology().num_links()),
      rnic_base_(cluster.num_rnics()) {}

void RootCauseAdvisor::snapshot_baseline() {
  for (std::size_t i = 0; i < link_base_.size(); ++i) {
    const auto& s = cluster_.fabric().link_state(
        LinkId{static_cast<std::uint32_t>(i)});
    link_base_[i] = {s.drops_corrupt, s.drops_overflow, s.drops_down,
                     s.pfc_pause_events};
  }
  for (std::size_t i = 0; i < rnic_base_.size(); ++i) {
    const auto& c =
        cluster_.rnic_device(RnicId{static_cast<std::uint32_t>(i)}).counters();
    rnic_base_[i] = {c.rx_dropped_no_qp, c.rx_dropped_misconfig,
                     c.rc_retransmits, c.rc_broken_connections};
  }
}

void RootCauseAdvisor::advise_link(LinkId link,
                                   std::vector<RootCauseHint>& out) const {
  const auto& topo = cluster_.topology();
  // Examine both directions of the cable: symptoms often show on one side.
  for (LinkId l : {link, topo.link(link).peer}) {
    const auto& s = cluster_.fabric().link_state(l);
    const auto& base = link_base_[l.value];
    const auto d_corrupt = s.drops_corrupt - base.drops_corrupt;
    const auto d_overflow = s.drops_overflow - base.drops_overflow;
    const auto d_down = s.drops_down - base.drops_down;
    const auto d_pause = s.pfc_pause_events - base.pfc_pause_events;

    const auto name = topo.link(l).name;
    if (s.deadlocked) {
      out.push_back({"PFC deadlock (#5): watchdog not functioning",
                     0.95, name + ": link deadlocked, traffic frozen"});
    }
    if (d_corrupt > 0) {
      std::ostringstream ev;
      ev << name << ": " << d_corrupt
         << " CRC/corruption drops this period (damaged fiber, dusty optics)";
      out.push_back({"packet corruption on fiber/optical module (#2)",
                     std::min(0.9, 0.5 + 0.01 * static_cast<double>(d_corrupt)),
                     ev.str()});
    }
    if (d_down > 0 && !s.admin_up) {
      out.push_back({"link administratively/persistently down", 0.9,
                     name + ": admin-down with packets still arriving"});
    } else if (d_down > 0) {
      std::ostringstream ev;
      ev << name << ": " << d_down
         << " drops on an up link (port state bouncing)";
      out.push_back({"port flapping (#1): check cable seating/compatibility",
                     std::min(0.9, 0.5 + 0.02 * static_cast<double>(d_down)),
                     ev.str()});
    }
    if (d_overflow > 0) {
      std::ostringstream ev;
      ev << name << ": " << d_overflow
         << " buffer-overflow drop events on a lossless class";
      out.push_back(
          {"PFC unconfigured or headroom misconfigured (#9)",
           std::min(0.9, 0.4 + 0.02 * static_cast<double>(d_overflow)),
           ev.str()});
    }
    if (d_pause > 5 && d_overflow == 0 && d_corrupt == 0 && d_down == 0) {
      std::ostringstream ev;
      ev << name << ": " << d_pause
         << " PFC pause events, no drops (congestion tree)";
      out.push_back({"congestion: incast or ECMP collision (#10/#11), or a "
                     "PFC storm from a slow endpoint (#13/#14)",
                     0.6, ev.str()});
    }
  }
}

void RootCauseAdvisor::advise_rnic(RnicId rnic,
                                   std::vector<RootCauseHint>& out) const {
  const auto& dev = cluster_.rnic_device(rnic);
  const auto& c = dev.counters();
  const auto& base = rnic_base_[rnic.value];
  const auto& topo = cluster_.topology();
  const auto name = topo.rnic(rnic).name;

  if (dev.is_down()) {
    out.push_back({"RNIC down (#3): replace or reseat the device", 0.95,
                   name + ": device reports down"});
  }
  const auto d_misconfig = c.rx_dropped_misconfig - base.rx_dropped_misconfig;
  if (d_misconfig > 0) {
    std::ostringstream ev;
    ev << name << ": " << d_misconfig
       << " packets undeliverable at the RDMA layer while the port is up";
    out.push_back(
        {"RNIC misconfiguration (#6/#7): RDMA route or GID index missing",
         std::min(0.95, 0.6 + 0.01 * static_cast<double>(d_misconfig)),
         ev.str()});
  }
  const auto d_noqp = c.rx_dropped_no_qp - base.rx_dropped_no_qp;
  if (d_noqp > 0) {
    std::ostringstream ev;
    ev << name << ": " << d_noqp << " packets addressed stale QPNs";
    out.push_back({"probe noise: peer pinglists hold stale QPNs after an "
                   "Agent restart (not a hardware fault)",
                   0.5, ev.str()});
  }
  if (dev.pcie_factor() < 1.0) {
    std::ostringstream ev;
    ev << name << ": PCIe at " << dev.pcie_factor() * 100
       << "% of nominal bandwidth";
    out.push_back({"PCIe downgrade (#13/#14): reseat the card, check "
                   "ACS/ATS configuration",
                   0.9, ev.str()});
  }
  // Host-link symptoms show on the RNIC's cable.
  advise_link(topo.rnic(rnic).uplink, out);
}

std::vector<RootCauseHint> RootCauseAdvisor::advise(const Problem& p) const {
  std::vector<RootCauseHint> out;
  switch (p.category) {
    case ProblemCategory::kRnicProblem:
      if (p.rnic.valid()) advise_rnic(p.rnic, out);
      break;
    case ProblemCategory::kSwitchNetworkProblem:
    case ProblemCategory::kHighNetworkRtt:
      for (LinkId l : p.suspect_links) advise_link(l, out);
      break;
    case ProblemCategory::kHostDown:
      out.push_back({"host power/kernel failure (#4): check BMC and console",
                     0.8, "Agent stopped uploading; all host RNICs silent"});
      break;
    case ProblemCategory::kHighProcessingDelay:
      out.push_back({"CPU overload (#12): co-located CPU-hungry work (e.g. "
                     "TCP checkpoint upload)",
                     0.8, "responder processing delay elevated; network RTT "
                          "normal"});
      break;
    case ProblemCategory::kQpnResetNoise:
    case ProblemCategory::kAgentCpuNoise:
      out.push_back({"no device fault: probe noise already classified",
                     0.9, p.summary});
      break;
  }
  std::sort(out.begin(), out.end(),
            [](const RootCauseHint& a, const RootCauseHint& b) {
              return a.confidence > b.confidence;
            });
  // De-duplicate by cause, keeping the strongest.
  std::vector<RootCauseHint> dedup;
  for (auto& h : out) {
    const bool seen = std::any_of(
        dedup.begin(), dedup.end(),
        [&h](const RootCauseHint& d) { return d.cause == h.cause; });
    if (!seen) dedup.push_back(std::move(h));
  }
  return dedup;
}

}  // namespace rpm::core
