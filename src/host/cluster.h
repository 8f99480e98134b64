// Cluster: one-stop assembly of a simulated RoCE deployment — topology,
// router, fabric, hosts, RNIC devices, and a traceroute service — with all
// clocks randomly offset/drifting. Everything R-Pingmesh runs against.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "fabric/fabric.h"
#include "host/host.h"
#include "rnic/rnic.h"
#include "routing/ecmp.h"
#include "sim/scheduler.h"
#include "telemetry/metrics.h"
#include "topo/topology.h"
#include "transport/transport.h"
#include "verbs/verbs.h"

namespace rpm::host {

struct ClusterConfig {
  fabric::FabricConfig fabric{};
  rnic::RnicParams rnic{};
  double traceroute_responses_per_sec = 100.0;  // per switch (§4.2.3)
  std::uint64_t seed = 7;
};

class Cluster {
 public:
  explicit Cluster(topo::Topology topology, ClusterConfig cfg = {});

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] const topo::Topology& topology() const { return topo_; }
  [[nodiscard]] const routing::EcmpRouter& router() const { return router_; }
  [[nodiscard]] fabric::Fabric& fabric() { return fabric_; }
  [[nodiscard]] routing::TracerouteService& traceroute() { return tracer_; }
  [[nodiscard]] transport::ControlPlane& control_plane() {
    return *control_plane_;
  }

  [[nodiscard]] HostModel& host(HostId id) { return *hosts_.at(id.value); }
  [[nodiscard]] rnic::RnicDevice& rnic_device(RnicId id) {
    return *rnics_.at(id.value);
  }
  [[nodiscard]] std::size_t num_hosts() const { return hosts_.size(); }
  [[nodiscard]] std::size_t num_rnics() const { return rnics_.size(); }

  /// Open a verbs device context for the given RNIC (as a process on the
  /// RNIC's host would). `service` attributes the process to a service for
  /// tracepoint consumers.
  [[nodiscard]] verbs::VerbsContext open_device(RnicId id,
                                                ServiceId service = {}) {
    rnic::RnicDevice& dev = rnic_device(id);
    HostModel& h = host(topo_.rnic(id).host);
    return verbs::VerbsContext(dev, h.tracepoints(), h.id(), service);
  }

  /// Fork a deterministic RNG stream for a component.
  [[nodiscard]] Rng fork_rng() { return rng_.fork(); }

  /// Advance simulated time (starts the fabric's fluid engine on first use).
  void run_for(TimeNs duration);

 private:
  topo::Topology topo_;
  routing::EcmpRouter router_;
  sim::Scheduler sched_;
  fabric::Fabric fabric_;
  routing::TracerouteService tracer_;
  Rng rng_;
  std::vector<std::unique_ptr<HostModel>> hosts_;
  std::vector<std::unique_ptr<rnic::RnicDevice>> rnics_;
  std::unique_ptr<transport::ControlPlane> control_plane_;
  bool started_ = false;
  telemetry::CollectorGuard sched_collector_;  // event-loop gauges
};

}  // namespace rpm::host
