// "Is it a network problem?" — the paper's headline operational question
// (§2.1, §7.2), as a walkthrough.
//
// A DML training job degrades twice. The first time the cause IS the
// network (packet corruption on a link the job uses); the second time it is
// NOT (a compute-side bug — GPU underclocking in the paper). Both look the
// same from the service's coarse metrics. R-Pingmesh tells them apart in one
// analysis period.
//
//   $ ./examples/troubleshoot_training
//
// Exits 1 unless scenario 1 finds a P0/P1 problem for the job and scenario 2
// reports the job's network innocent.
#include <cstdio>

#include "core/rpingmesh.h"
#include "faults/faults.h"
#include "traffic/dml.h"

int main() {
  using namespace rpm;

  topo::ClosConfig topo_cfg;
  topo_cfg.num_pods = 2;
  topo_cfg.tors_per_pod = 2;
  topo_cfg.aggs_per_pod = 2;
  topo_cfg.spines_per_plane = 2;
  topo_cfg.hosts_per_tor = 2;
  topo_cfg.rnics_per_host = 2;
  host::Cluster cluster(topo::build_clos(topo_cfg));
  core::RPingmesh rpm(cluster);
  rpm.start();

  // An 8-rank All2All training job.
  traffic::DmlConfig dml;
  dml.service = ServiceId{42};
  dml.workers = {RnicId{0}, RnicId{2}, RnicId{4},  RnicId{6},
                 RnicId{8}, RnicId{10}, RnicId{12}, RnicId{14}};
  dml.pattern = traffic::CommPattern::kAllToAll;
  dml.per_flow_gbps = 10.0;
  dml.compute_time = msec(300);
  dml.comm_bytes = 100'000'000;
  dml.rc_retransmit_timeout = msec(50);  // ride out the lossy episode
  traffic::DmlService job(cluster, dml);
  rpm.watch_service({dml.service, [&job] { return job.relative_throughput(); }});
  job.start();
  cluster.run_for(sec(25));
  std::printf("job started: throughput=%.2f (healthy)\n",
              job.relative_throughput());

  faults::FaultInjector faults(cluster);
  // Returns whether a P0/P1 problem for the job was found.
  const auto diagnose = [&](const char* scenario) {
    std::printf("\n=== %s ===\n", scenario);
    std::printf("observed: training throughput=%.2f\n",
                job.relative_throughput());
    const auto* rep = rpm.analyzer().last_report();
    bool network_problem = false;
    for (const auto& p : rep->problems) {
      if ((p.priority == core::Priority::kP0 ||
           p.priority == core::Priority::kP1) &&
          p.service == dml.service) {
        network_problem = true;
        std::printf("R-Pingmesh: [%s] %s\n", core::priority_name(p.priority),
                    p.summary.c_str());
      }
    }
    if (!network_problem) {
      std::printf(
          "R-Pingmesh: no P0/P1 problem in the service network -> the "
          "NETWORK IS INNOCENT.\n            Look at compute (GPU clocks, "
          "NCCL parameters, training code).\n");
    } else {
      std::printf("R-Pingmesh: the network IS the problem; see suspects "
                  "above.\n");
    }
    std::printf("network_innocent(%u) = %s\n", dml.service.value,
                rpm.analyzer().network_innocent(dml.service) ? "true"
                                                             : "false");
    return network_problem;
  };

  // --- Scenario 1: it IS the network. ---
  // Corrupt a link one of the job's flows crosses.
  const auto& path = cluster.fabric().flow_path(job.connections()[3].flow);
  const int h1 =
      faults.inject(faults::FaultSpec::corruption(path.links[1], 0.15));
  cluster.run_for(sec(41));
  const bool blamed =
      diagnose("scenario 1: throughput degraded (cause: corrupted fiber)");
  faults.clear(h1);
  cluster.run_for(sec(61));  // heal + let the blame window expire

  // --- Scenario 2: it is NOT the network. ---
  job.set_compute_slowdown(3.0);  // the paper's buggy training code
  cluster.run_for(sec(41));
  diagnose("scenario 2: throughput degraded (cause: compute-side bug)");
  const bool cleared = rpm.analyzer().network_innocent(dml.service);

  job.stop();
  rpm.stop();
  if (!blamed || !cleared) {
    std::fprintf(stderr,
                 "troubleshoot_training: expected the network blamed in "
                 "scenario 1 and innocent in scenario 2\n");
    return 1;
  }
  return 0;
}
