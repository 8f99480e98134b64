// Shared plumbing for the per-figure/table reproduction benches: standard
// cluster builds, a deployed R-Pingmesh wrapper, series printing, and the
// BENCH_*.json perf-trajectory writer (bench_json.h).
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/rpingmesh.h"
#include "faults/faults.h"
#include "host/cluster.h"
#include "traffic/dml.h"

namespace rpm::bench {

/// The default evaluation fabric: a 2-pod, 3-tier Clos (scaled down from the
/// paper's thousands of servers; the shapes under test do not depend on
/// scale).
inline topo::ClosConfig default_clos() {
  topo::ClosConfig cfg;
  cfg.num_pods = 2;
  cfg.tors_per_pod = 2;
  cfg.aggs_per_pod = 2;
  cfg.spines_per_plane = 2;
  cfg.hosts_per_tor = 2;
  cfg.rnics_per_host = 2;
  cfg.host_link.capacity_gbps = 100.0;
  cfg.fabric_link.capacity_gbps = 100.0;
  return cfg;
}

/// A cluster with R-Pingmesh deployed and started.
struct Deployment {
  explicit Deployment(topo::ClosConfig topo_cfg = default_clos(),
                      host::ClusterConfig cluster_cfg = {},
                      core::RPingmeshConfig rpm_cfg = {})
      : cluster(topo::build_clos(topo_cfg), cluster_cfg),
        rpm(cluster, rpm_cfg),
        faults(cluster) {
    rpm.start();
  }

  host::Cluster cluster;
  core::RPingmesh rpm;
  faults::FaultInjector faults;
};

inline void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void print_row_header(const std::vector<std::string>& cols) {
  for (const auto& c : cols) std::printf("%-22s", c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < cols.size(); ++i) std::printf("%-22s", "----");
  std::printf("\n");
}

/// Latest problem of a category in a report, or nullptr.
inline const core::Problem* find_problem(const core::PeriodReport& rep,
                                         core::ProblemCategory cat) {
  for (const core::Problem& p : rep.problems) {
    if (p.category == cat) return &p;
  }
  return nullptr;
}

}  // namespace rpm::bench
