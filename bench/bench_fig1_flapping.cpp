// Figure 1 reproduction: a single flapping switch port (top panel) or RNIC
// (bottom panel) severely degrades the average training throughput of the
// whole DML cluster — dropping to zero during down phases — even though only
// one of the four ring flows crosses the flapping element (barrel effect).
//
// Paper shape to reproduce: throughput ~1.0 before the flap; collapsing
// (min reaching ~0) while flapping; full recovery after repair.
#include "bench_util.h"

namespace rpm {
namespace {

void print_window(bench::Deployment& d, traffic::DmlService& svc, int seconds,
                  int& t) {
  for (int s = 0; s < seconds; ++s, ++t) {
    // Average/min over 10 samples inside the second (the flap beat is
    // faster than 1 Hz).
    double sum = 0.0, mn = 1e9, net = 0.0;
    for (int k = 0; k < 10; ++k) {
      d.cluster.run_for(msec(100));
      const double tp = svc.relative_throughput();
      sum += tp;
      mn = std::min(mn, tp);
      net += svc.avg_network_throughput_Bps() * 8e-9;
    }
    std::printf("%-22d%-22.3f%-22.3f%-22.1f%-22s\n", t, sum / 10.0, mn,
                net / 10.0, svc.failed() ? "YES" : "no");
  }
}

void run_panel(const char* title, bool flap_rnic) {
  bench::Deployment d;
  traffic::DmlConfig dml;
  dml.service = ServiceId{1};
  dml.workers = {RnicId{0}, RnicId{4}, RnicId{8}, RnicId{12}};
  dml.pattern = traffic::CommPattern::kAllReduceRing;
  dml.per_flow_gbps = 40.0;
  dml.compute_time = msec(300);
  dml.comm_bytes = 250'000'000;  // 50 ms at 40G
  // Ops mitigation already applied (§7.1 #1): retries at the max and a large
  // retransmit timeout, so the task survives the flaps — but throughput
  // still collapses during every down phase.
  dml.rc_max_retries = 7;
  dml.rc_retransmit_timeout = msec(600);
  traffic::DmlService svc(d.cluster, dml);
  d.rpm.watch_service(
      {dml.service, [&svc] { return svc.relative_throughput(); }});
  svc.start();
  d.cluster.run_for(sec(5));

  bench::print_header(title);
  bench::print_row_header(
      {"time_s", "tp_avg", "tp_min", "avg_net_Gbps", "failed"});
  int t = 0;
  print_window(d, svc, 5, t);  // healthy baseline

  // Flap: 3 s down / 1 s up (inside the 7 x 600 ms retry budget).
  int handle = 0;
  if (flap_rnic) {
    handle = d.faults.inject(
        faults::FaultSpec::rnic_flapping(RnicId{4}, msec(3000), msec(1000)));
  } else {
    const auto path =
        d.cluster.fabric().flow_path(svc.connections()[1].flow);
    handle = d.faults.inject(faults::FaultSpec::switch_port_flapping(
        path.links[1], msec(3000), msec(1000)));
  }
  std::printf("-- flapping starts --\n");
  print_window(d, svc, 20, t);
  d.faults.clear(handle);
  std::printf("-- flapping repaired --\n");
  print_window(d, svc, 5, t);
  svc.stop();
}

}  // namespace
}  // namespace rpm

int main() {
  rpm::run_panel("Figure 1 (top): flapping SWITCH PORT vs DML throughput",
                 /*flap_rnic=*/false);
  rpm::run_panel("Figure 1 (bottom): flapping RNIC vs DML throughput",
                 /*flap_rnic=*/true);
  return 0;
}
