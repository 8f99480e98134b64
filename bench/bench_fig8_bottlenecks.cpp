// Figure 8 reproduction.
//
// (left)  CPU overload on some hosts shows up as high END-HOST PROCESSING
//         DELAY while network RTT stays flat: R-Pingmesh separates the two
//         because it measures them independently (④-③ vs (⑤-②)-(④-③)).
// (right) An intra-host bandwidth bottleneck (PCIe downgrade) makes the RNIC
//         assert PFC; the congestion tree raises the P99 NETWORK RTT seen by
//         Service Tracing and ToR-mesh probes to the sick RNIC.
#include "bench_util.h"

namespace rpm {
namespace {

void left_panel() {
  host::ClusterConfig ccfg;
  ccfg.fabric.step_interval = msec(1);
  bench::Deployment d(bench::default_clos(), ccfg);
  d.cluster.run_for(sec(21));

  bench::print_header(
      "Figure 8 (left): CPU overload -> processing delay, NOT network RTT");
  bench::print_row_header(
      {"period", "overload", "proc_p99_ms", "rtt_p99_us", "verdict"});
  int handle = -1;
  for (int period = 1; period <= 6; ++period) {
    if (period == 3) {
      handle =
          d.faults.inject(faults::FaultSpec::cpu_overload(HostId{1}, 0.97));
    }
    if (period == 5) d.faults.clear(handle);
    d.cluster.run_for(sec(20));
    const auto* rep = d.rpm.analyzer().last_report();
    const auto* p =
        bench::find_problem(*rep, core::ProblemCategory::kHighProcessingDelay);
    std::printf("%-22d%-22s%-22.2f%-22.1f%s\n", period,
                (period >= 3 && period < 5) ? "ON" : "off",
                rep->cluster_sla.proc_p99 / 1e6, rep->cluster_sla.rtt_p99 / 1e3,
                p != nullptr ? p->summary.c_str() : "-");
  }
}

void right_panel() {
  host::ClusterConfig ccfg;
  ccfg.fabric.step_interval = usec(200);
  bench::Deployment d(bench::default_clos(), ccfg);

  // Service traffic into the soon-to-be-sick RNIC keeps its downlink busy.
  traffic::DmlConfig dml;
  dml.service = ServiceId{1};
  dml.workers = {RnicId{4}, RnicId{0}, RnicId{8}};
  dml.pattern = traffic::CommPattern::kIncast;
  dml.per_flow_gbps = 30.0;
  dml.compute_time = msec(50);
  dml.comm_bytes = 500'000'000;
  traffic::DmlService svc(d.cluster, dml);
  d.rpm.watch_service(
      {dml.service, [&svc] { return svc.relative_throughput(); }});
  svc.start();
  d.cluster.run_for(sec(21));

  bench::print_header(
      "Figure 8 (right): PCIe downgrade -> PFC storm -> high P99 network RTT");
  bench::print_row_header(
      {"period", "downgrade", "svc_rtt_p99_us", "proc_p99_ms", "verdict"});
  int handle = -1;
  for (int period = 1; period <= 6; ++period) {
    if (period == 3) {
      handle =
          d.faults.inject(faults::FaultSpec::pcie_downgrade(RnicId{4}, 0.25));
    }
    if (period == 5) d.faults.clear(handle);
    d.cluster.run_for(sec(20));
    const auto* rep = d.rpm.analyzer().last_report();
    double svc_rtt = 0;
    for (const auto& [sid, sla] : rep->service_slas) {
      if (sid == dml.service) svc_rtt = sla.rtt_p99 / 1e3;
    }
    const auto* p =
        bench::find_problem(*rep, core::ProblemCategory::kHighNetworkRtt);
    std::printf("%-22d%-22s%-22.1f%-22.2f%s\n", period,
                (period >= 3 && period < 5) ? "ON" : "off", svc_rtt,
                rep->cluster_sla.proc_p99 / 1e6,
                p != nullptr ? p->summary.c_str() : "-");
  }
  svc.stop();
  std::printf(
      "\nTakeaway: the two bottleneck families are separable — CPU overload "
      "moves only the\nprocessing-delay metric; the PFC storm moves only the "
      "network-RTT metric.\n");
}

}  // namespace
}  // namespace rpm

int main() {
  rpm::left_panel();
  rpm::right_panel();
  return 0;
}
