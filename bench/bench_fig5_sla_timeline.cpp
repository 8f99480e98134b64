// Figure 5 reproduction: SLA monitoring over time for one DML job.
//
// Paper timeline shape:
//  (a) training throughput dips during periodic TCP checkpoints and during
//      two anomalies;
//  (b) service network RTT DROPS during checkpoints (RoCE idle) and rises
//      during congestion/drop anomalies;
//  (c) end-host processing delay RISES during checkpoints (TCP is CPU
//      hungry);
//  (d) service-network probe drop rate spikes only during the two switch
//      anomalies that sit in the service network (=> P0/P1);
//  (e) cluster-network drop rate additionally sees an anomalous RNIC that
//      the service never uses (=> P2, service unaffected).
#include "bench_util.h"
#include "cc/cc.h"

namespace rpm {
namespace {

void run() {
  host::ClusterConfig ccfg;
  ccfg.fabric.step_interval = usec(500);
  core::RPingmeshConfig rcfg;
  // All2All self-congestion is normal for this job; only flag RTT outliers
  // well above its working point so the problem list tracks the injected
  // faults (drops), not the job's own traffic.
  rcfg.analyzer.high_rtt_threshold = msec(1);
  bench::Deployment d(bench::default_clos(), ccfg, rcfg);
  static cc::Dcqcn dcqcn;  // production RNICs run DCQCN
  traffic::DmlConfig dml;
  dml.controller = &dcqcn;
  dml.service = ServiceId{1};
  dml.workers = {RnicId{0}, RnicId{2}, RnicId{4},  RnicId{6},
                 RnicId{8}, RnicId{10}, RnicId{12}, RnicId{14}};
  dml.pattern = traffic::CommPattern::kAllToAll;  // queues build during comm
  dml.per_flow_gbps = 12.0;
  dml.compute_time = msec(300);
  dml.comm_bytes = 150'000'000;
  // Checkpoint length covers a whole 20 s analysis period so the RTT dip
  // is visible at the Analyzer's reporting granularity.
  dml.checkpoint_interval = sec(60);
  dml.checkpoint_duration = sec(22);
  traffic::DmlService svc(d.cluster, dml);
  d.rpm.watch_service({dml.service, [&svc] { return svc.relative_throughput(); }});
  svc.start();
  d.cluster.run_for(sec(2));

  // Anomaly schedule (absolute seconds):
  //  [80, 100)  corruption on a link the service uses        -> P0/P1
  //  [150, 170) corruption on another service-path link      -> P0/P1
  //  [200, 220) persistent drops on an RNIC outside the job  -> P2
  // Pick FABRIC links (not host edges) from two cross-ToR connections: edge
  // links would be classified as RNIC problems per the paper's footnote 4.
  const auto fabric_link_of = [&](std::size_t from_conn) {
    for (std::size_t i = from_conn; i < svc.connections().size(); ++i) {
      const auto& path =
          d.cluster.fabric().flow_path(svc.connections()[i].flow);
      if (path.links.size() >= 4) return path.links[1];
    }
    throw std::runtime_error("no cross-ToR connection");
  };
  const LinkId svc_link1 = fabric_link_of(0);
  const LinkId svc_link2 = fabric_link_of(20);
  const RnicId outside_rnic{15};

  bench::print_header(
      "Figure 5: per-20s SLA timeline (checkpoints every 60s for 22s; anomalies "
      "@80s, @150s in service network, @200s outside)");
  bench::print_row_header({"t_s", "(a)train_tp", "(b)svc_rtt_p99_us",
                           "(c)proc_p99_us", "(d)svc_drop", "(e)clus_drop",
                           "verdict"});

  const auto corrupt = [](LinkId link) {
    return faults::FaultSpec::corruption(link, 0.15);
  };
  int fault_handle = -1;
  for (int period = 1; period <= 12; ++period) {
    const int t_end = period * 20;
    // Fault schedule transitions inside this period.
    const auto at = [&](int t_fault, auto&& fn) {
      if (t_end - 20 <= t_fault && t_fault < t_end) {
        d.cluster.run_for(sec(t_fault - (t_end - 20)));
        fn();
        d.cluster.run_for(sec(t_end - t_fault));
      }
    };
    bool acted = false;
    for (const auto& [ts, action] :
         std::vector<std::pair<int, std::function<void()>>>{
             {80, [&] { fault_handle = d.faults.inject(corrupt(svc_link1)); }},
             {100, [&] { d.faults.clear(fault_handle); }},
             {150,
              [&] { fault_handle = d.faults.inject(corrupt(svc_link2)); }},
             {170, [&] { d.faults.clear(fault_handle); }},
             {200,
              [&] {
                fault_handle = d.faults.inject(faults::FaultSpec::corruption(
                    d.cluster.topology().rnic(outside_rnic).uplink, 0.6));
              }},
             {220, [&] { d.faults.clear(fault_handle); }}}) {
      if (t_end - 20 <= ts && ts < t_end) {
        at(ts, action);
        acted = true;
        break;
      }
    }
    if (!acted) d.cluster.run_for(sec(20));

    const auto* rep = d.rpm.analyzer().last_report();
    double svc_rtt = 0, svc_drop = 0;
    for (const auto& [sid, sla] : rep->service_slas) {
      if (sid == dml.service) {
        svc_rtt = sla.rtt_p99 / 1e3;
        svc_drop = sla.switch_drop_rate + sla.rnic_drop_rate;
      }
    }
    const double clus_drop = rep->cluster_sla.switch_drop_rate +
                             rep->cluster_sla.rnic_drop_rate;
    // Most severe problem this period, labelled with its category (the
    // checkpoint's own CPU spike legitimately surfaces as a P1 end-host
    // bottleneck on worker hosts).
    std::string verdict = "healthy";
    int best = 3;
    for (const auto& p : rep->problems) {
      const int rank = p.priority == core::Priority::kP0   ? 0
                       : p.priority == core::Priority::kP1 ? 1
                       : p.priority == core::Priority::kP2 ? 2
                                                           : 3;
      if (rank < best) {
        best = rank;
        verdict = std::string(core::priority_name(p.priority)) + ":" +
                  core::problem_category_name(p.category);
      }
    }
    std::printf("%-22d%-22.3f%-22.1f%-22.1f%-22.4f%-22.4f%s\n", t_end,
                svc.relative_throughput(), svc_rtt,
                rep->cluster_sla.proc_p99 / 1e3, svc_drop, clus_drop,
                verdict.c_str());
  }
  std::printf(
      "\nTakeaway: checkpoints show as RTT dips + processing-delay spikes; "
      "service-network\ndrops appear in BOTH (d) and (e) and are prioritized "
      "P0/P1; the outside RNIC's drops\nappear only in (e) and are filed P2 "
      "(service unaffected) — matching Figure 5.\n");
  svc.stop();
}

}  // namespace
}  // namespace rpm

int main() {
  rpm::run();
  return 0;
}
