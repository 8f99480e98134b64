#include "host/cluster.h"

namespace rpm::host {

Cluster::Cluster(topo::Topology topology, ClusterConfig cfg)
    : topo_(std::move(topology)),
      router_(topo_, cfg.seed ^ 0xEC3Cull),
      fabric_(topo_, router_, sched_, cfg.fabric),
      tracer_(router_, cfg.traceroute_responses_per_sec),
      rng_(cfg.seed) {
  hosts_.reserve(topo_.num_hosts());
  for (const topo::HostInfo& h : topo_.hosts()) {
    hosts_.push_back(std::make_unique<HostModel>(
        h.id, sched_, sim::DeviceClock::random(rng_), rng_.fork()));
  }
  rnics_.reserve(topo_.num_rnics());
  for (const topo::RnicInfo& r : topo_.rnics()) {
    rnics_.push_back(std::make_unique<rnic::RnicDevice>(
        r.id, fabric_, sched_, sim::DeviceClock::random(rng_), rng_.fork(),
        cfg.rnic));
  }
  // Forked last so the control plane's stream never perturbs the host/RNIC
  // clock draws above (fixed-seed runs stay reproducible across versions).
  control_plane_ =
      std::make_unique<transport::ControlPlane>(sched_, rng_.fork());
  // Event-loop throughput: mirrored into the registry at snapshot time so
  // the scheduler's hot loop stays untouched.
  sched_collector_ = telemetry::CollectorGuard(
      telemetry::registry(), [this](telemetry::MetricsRegistry& reg) {
        reg.gauge("rpm_sim_executed_events", "Events executed by the scheduler")
            .set(static_cast<double>(sched_.executed_events()));
        reg.gauge("rpm_sim_pending_events", "Events currently queued")
            .set(static_cast<double>(sched_.pending_events()));
        reg.gauge("rpm_sim_now_seconds", "Current simulated time")
            .set(to_seconds(sched_.now()));
      });
}

void Cluster::run_for(TimeNs duration) {
  if (!started_) {
    fabric_.start();
    started_ = true;
  }
  sched_.run_until(sched_.now() + duration);
}

}  // namespace rpm::host
