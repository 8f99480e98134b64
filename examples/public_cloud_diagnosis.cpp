// Public-cloud war story (§7.1 #5, #8): some of a tenant's RDMA connections
// stop communicating. The tenant suspects a switch ACL misconfiguration.
// R-Pingmesh sees a burst of timeout probes and, from their 5-tuples and
// paths, localizes the true culprit: a PFC DEADLOCK on one link — while the
// tenant's TCP-based checks (which ride another traffic class) see nothing
// wrong. A second act injects a real ACL error to show both stories.
//
//   $ ./examples/public_cloud_diagnosis
#include <cstdio>

#include "core/rpingmesh.h"
#include "faults/faults.h"
#include "pingmesh/pingmesh.h"

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
  pingmesh::SoftwarePingmesh tcp_checks(cluster);
  faults::FaultInjector faults(cluster);
  cluster.run_for(sec(25));

  // --- Act 1: PFC deadlock (the paper's cloud incident) ---
  LinkId deadlocked;
  for (const topo::Link& l : cluster.topology().links()) {
    if (l.from.is_switch() && l.to.is_switch()) {
      deadlocked = l.id;
      break;
    }
  }
  const int h1 = faults.inject(faults::FaultSpec::pfc_deadlock(deadlocked));
  std::printf("[cloud] tenant reports: some RDMA connections cannot "
              "communicate; suspects switch ACLs\n");

  // The tenant's own TCP reachability checks pass (wrong traffic class!).
  int tcp_ok = 0, tcp_fail = 0;
  for (int i = 0; i < 20; ++i) {
    tcp_checks.probe(RnicId{0}, RnicId{12},
                     [&](const pingmesh::SoftwarePingResult& r) {
                       (r.ok ? tcp_ok : tcp_fail)++;
                     });
    cluster.run_for(msec(5));
  }
  cluster.run_for(msec(600));
  std::printf("[tenant] TCP checks: %d ok, %d failed -> 'network looks "
              "fine?\?'\n", tcp_ok, tcp_fail);

  cluster.run_for(sec(41));
  std::printf("[r-pingmesh] analysis:\n");
  for (const auto& p : rpm.analyzer().last_report()->problems) {
    std::printf("  [%s] %s\n", core::priority_name(p.priority),
                p.summary.c_str());
    for (const auto& [l, votes] : p.top_link_votes) {
      std::printf("      suspect %-28s votes=%zu\n",
                  cluster.topology().link(l).name.c_str(), votes);
      break;  // top suspect is enough for the story
    }
  }
  std::printf("  (injected deadlock was on: %s)\n",
              cluster.topology().link(deadlocked).name.c_str());
  faults.clear(h1);
  cluster.run_for(sec(81));  // heal + let blame windows expire

  // --- Act 2: an actual ACL misconfiguration (#8) ---
  SwitchId agg;
  for (const auto& sw : cluster.topology().switches()) {
    if (sw.tier == topo::SwitchTier::kAgg) {
      agg = sw.id;
      break;
    }
  }
  faults.inject(faults::FaultSpec::acl_error(
      agg, IpAddr{}, cluster.topology().rnic(RnicId{12}).ip));
  std::printf("\n[cloud] ops re-ran the tenant-isolation ACL script; "
              "a rule now wrongly drops traffic to one RNIC at %s\n",
              cluster.topology().switch_info(agg).name.c_str());
  cluster.run_for(sec(41));
  for (const auto& p : rpm.analyzer().last_report()->problems) {
    std::printf("  [%s] %s\n", core::priority_name(p.priority),
                p.summary.c_str());
    if (!p.suspect_switches.empty()) {
      std::printf("      suspect switch: %s\n",
                  cluster.topology()
                      .switch_info(p.suspect_switches.front())
                      .name.c_str());
    }
  }
  std::printf(
      "\nTakeaway: RoCE-native probes catch RoCE-class problems (PFC "
      "deadlock) that TCP\nchecks cannot see, and random inter-RNIC probing "
      "catches tenant-isolation ACL errors.\n");
  rpm.stop();
  return 0;
}
