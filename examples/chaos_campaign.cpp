// Chaos campaign: deploy R-Pingmesh on a 16-host Clos fabric, then batter
// the control plane while real faults are in flight — Controller crash and
// restart, an Agent process restart (QPN reset), an Analyzer brownout, a
// host failure, and a corrupting fabric link that stays broken. The
// ChaosRunner scores every Analyzer verdict against FaultRecord ground
// truth and writes a deterministic JSON scorecard: same seed, byte-for-byte
// the same report (CI diffs two runs to prove it).
//
//   $ ./examples/chaos_campaign [out.json [seed]]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "chaos/chaos.h"
#include "core/rpingmesh.h"
#include "faults/faults.h"
#include "host/cluster.h"
#include "topo/topology.h"

int main(int argc, char** argv) {
  using namespace rpm;

  const char* out_path = argc > 1 ? argv[1] : nullptr;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  // Same fabric shape as the e2e tests: 2 pods x 2 ToRs x 2 hosts x 2 RNICs.
  topo::ClosConfig topo_cfg;
  topo_cfg.num_pods = 2;
  topo_cfg.tors_per_pod = 2;
  topo_cfg.aggs_per_pod = 2;
  topo_cfg.spines_per_plane = 2;
  topo_cfg.hosts_per_tor = 2;
  topo_cfg.rnics_per_host = 2;
  topo_cfg.host_link.capacity_gbps = 100.0;
  topo_cfg.fabric_link.capacity_gbps = 100.0;

  host::ClusterConfig cluster_cfg;
  cluster_cfg.seed = seed;
  host::Cluster cluster(topo::build_clos(topo_cfg), cluster_cfg);

  // Short analysis periods so recovery is visible in a 160 s campaign.
  core::RPingmeshConfig rpm_cfg;
  rpm_cfg.analyzer.period = sec(5);
  core::RPingmesh rpm(cluster, rpm_cfg);
  faults::FaultInjector injector(cluster);
  rpm.start();

  // The first switch-to-switch link: corrupting it hits inter-ToR probes in
  // both pods' Algorithm-1 vote tallies.
  LinkId fabric_link;
  for (const topo::Link& l : cluster.topology().links()) {
    if (l.from.is_switch() && l.to.is_switch()) {
      fabric_link = l.id;
      break;
    }
  }

  chaos::ChaosPlan plan;
  plan.seed = seed;
  plan.duration = sec(160);
  plan.controller_crash(sec(30))
      .agent_restart(sec(32), HostId{1})  // restarts into a dead Controller
      .controller_restart(sec(50))
      .analyzer_outage(sec(55), sec(73))
      .inject(sec(75), "host3-down",
              faults::FaultSpec::host_down(HostId{3}))
      .clear(sec(95), "host3-down")
      .inject(sec(100), "fabric-corruption",
              faults::FaultSpec::corruption(
                  fabric_link, 0.5));  // still active at campaign end

  chaos::ChaosRunner runner(cluster, rpm, injector);
  const chaos::ChaosReport report = runner.run(plan);

  std::printf("chaos campaign: seed=%llu, %zu periods scored\n",
              static_cast<unsigned long long>(report.seed), report.periods);
  std::printf("  verdicts: %zu total, %zu true-positive, %zu false-positive"
              " (%zu switch, %zu in outage windows)\n",
              report.problems_total, report.true_positives,
              report.false_positives, report.switch_false_positives,
              report.outage_false_positives);
  std::printf("  mislocalized: %zu, collateral host-down: %zu, noise: %zu,"
              " unscored: %zu\n",
              report.mislocalized, report.collateral_host_down,
              report.noise_problems, report.unscored_problems);
  std::printf("  precision=%.3f recall=%.3f\n", report.precision,
              report.recall);
  for (const auto& g : report.ground_truths) {
    std::printf("  ground truth %-18s %-22s %s\n", g.label.c_str(),
                g.kind.c_str(),
                !g.scored ? "(noise, unscored)"
                          : (g.matched ? "localized" : "MISSED"));
  }
  for (const auto& r : report.recoveries) {
    std::printf("  recovery after %-22s at %3llds: %d period(s)\n",
                r.event.c_str(), static_cast<long long>(r.at / sec(1)),
                r.periods_to_recover);
  }

  if (out_path == nullptr) {
    std::fputs(report.to_json().c_str(), stdout);
  } else if (report.write_file(out_path)) {
    std::printf("report written to %s\n", out_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }

  rpm.stop();
  return 0;
}
