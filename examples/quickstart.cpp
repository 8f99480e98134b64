// Quickstart: build a simulated RoCE cluster, deploy R-Pingmesh on every
// host, watch the SLA, break something, and see it detected, categorized,
// localized, and prioritized — all in ~40 lines of API use. Along the way
// the telemetry subsystem watches R-Pingmesh itself: a Prometheus-style
// scrape loop on the simulation clock, a final metrics dump, and a
// chrome://tracing file.
//
//   $ ./examples/quickstart
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>

#include "common/json.h"
#include "core/rootcause.h"
#include "core/rpingmesh.h"
#include "faults/faults.h"
#include "host/cluster.h"
#include "obs/chrome_trace.h"
#include "obs/diagnosis.h"
#include "obs/flight_recorder.h"
#include "prof/prof.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "topo/topology.h"

namespace {

// Print only the exposition lines for the families we want to showcase.
void print_filtered(const std::string& prometheus_text,
                    std::initializer_list<const char*> prefixes) {
  std::size_t start = 0;
  while (start < prometheus_text.size()) {
    std::size_t end = prometheus_text.find('\n', start);
    if (end == std::string::npos) end = prometheus_text.size();
    const std::string line = prometheus_text.substr(start, end - start);
    start = end + 1;
    if (line.rfind("# ", 0) == 0) continue;  // skip HELP/TYPE comments
    for (const char* p : prefixes) {
      if (line.rfind(p, 0) == 0) {
        std::printf("%s\n", line.c_str());
        break;
      }
    }
  }
}

}  // namespace

int main() {
  using namespace rpm;

  // 1. A 3-tier Clos fabric: 2 pods x 2 ToRs x 2 hosts x 2 RNICs.
  topo::ClosConfig topo_cfg;
  topo_cfg.num_pods = 2;
  topo_cfg.tors_per_pod = 2;
  topo_cfg.aggs_per_pod = 2;
  topo_cfg.spines_per_plane = 2;
  topo_cfg.hosts_per_tor = 2;
  topo_cfg.rnics_per_host = 2;
  host::Cluster cluster(topo::build_clos(topo_cfg));
  std::printf("cluster: %zu hosts, %zu RNICs, %zu switches\n",
              cluster.num_hosts(), cluster.num_rnics(),
              cluster.topology().num_switches());

  // 2. Turn on self-observability: a periodic "scrape" of the metrics
  // registry every 20 s of sim time...
  std::uint64_t scrape_bytes = 0;
  telemetry::PeriodicDumper scraper(
      cluster.scheduler(), sec(20),
      [&scrape_bytes](const std::string& text) {
        scrape_bytes += text.size();
      });
  scraper.start(sec(20));

  // ...and the probe flight recorder: with sample_rate 1.0 every probe's
  // causal timeline (Agent enqueue -> RNIC CQEs -> per-hop fabric traversal
  // -> upload attempts -> Analyzer ingest) is kept in a bounded ring, next
  // to a marker track of process-level events (fault injections,
  // control-plane events) stamped with simulated time.
  obs::FlightRecorderConfig flight_cfg;
  flight_cfg.sample_rate = 1.0;
  flight_cfg.capacity = 1 << 15;
  obs::recorder().enable(
      flight_cfg, [&cluster]() -> TimeNs { return cluster.scheduler().now(); });

  // ...and the wall-clock stage profiler: where CPU time actually goes
  // between submit and verdict (sim dispatch, ingest, the drain.* stages),
  // with a 50 ms watchdog on each period close. Purely observational — the
  // simulation's decisions never see wall time.
  prof::ProfilerConfig prof_cfg;
  prof_cfg.period_close_budget = msec(50);
  prof::profiler().enable(prof_cfg);
  prof::profiler().attach_scheduler(cluster.scheduler());

  // 3. Deploy R-Pingmesh: Controller + one Agent per host + Analyzer.
  core::RPingmesh rpm(cluster);
  rpm.start();

  // 4. Let it monitor a healthy cluster for two analysis periods.
  cluster.run_for(sec(45));
  const core::PeriodReport* rep = rpm.analyzer().last_report();
  std::printf("\n-- healthy cluster, one 20 s analysis period --\n");
  std::printf("probe records analyzed : %zu\n", rep->records_processed);
  std::printf("network RTT            : p50=%.1fus p99=%.1fus\n",
              rep->cluster_sla.rtt_p50 / 1e3, rep->cluster_sla.rtt_p99 / 1e3);
  std::printf("host processing delay  : p50=%.1fus p99=%.1fus\n",
              rep->cluster_sla.proc_p50 / 1e3,
              rep->cluster_sla.proc_p99 / 1e3);
  std::printf("drop rates             : rnic=%.4f switch=%.4f\n",
              rep->cluster_sla.rnic_drop_rate,
              rep->cluster_sla.switch_drop_rate);

  // 5. Break an RNIC, then a switch port, and watch both get localized.
  faults::FaultInjector faults(cluster);
  std::printf("\n-- injecting: RNIC 5 down --\n");
  const int h1 = faults.inject(faults::FaultSpec::rnic_down(RnicId{5}));
  cluster.run_for(sec(21));
  for (const core::Problem& p : rpm.analyzer().last_report()->problems) {
    std::printf("[%s] %s\n", core::priority_name(p.priority),
                p.summary.c_str());
  }
  faults.clear(h1);

  std::printf("\n-- injecting: corruption on a fabric cable --\n");
  LinkId victim;
  for (const topo::Link& l : cluster.topology().links()) {
    if (l.from.is_switch() && l.to.is_switch()) {
      victim = l.id;
      break;
    }
  }
  core::RootCauseAdvisor advisor(cluster);
  advisor.snapshot_baseline();
  faults.inject(faults::FaultSpec::corruption(victim, 0.5));
  cluster.run_for(sec(41));
  for (const core::Problem& p : rpm.analyzer().last_report()->problems) {
    std::printf("[%s] %s\n", core::priority_name(p.priority),
                p.summary.c_str());
    // §7.5 extension: counter-driven root-cause hypotheses.
    for (const core::RootCauseHint& h : advisor.advise(p)) {
      std::printf("    hint (%.0f%%): %s\n        evidence: %s\n",
                  h.confidence * 100, h.cause.c_str(), h.evidence.c_str());
    }
  }
  std::printf("(injected fault was on: %s)\n",
              cluster.topology().link(victim).name.c_str());

  // 5b. Why does the Analyzer believe any of that? Every verdict carries an
  // evidence chain: input probe ids, the Algorithm 1 vote tally, and every
  // threshold compared. explain() renders it as structured JSON, and each
  // listed probe id resolves to a full per-hop timeline in the recorder.
  if (!rpm.analyzer().last_report()->problems.empty()) {
    const core::Problem& first = rpm.analyzer().last_report()->problems[0];
    const std::string receipt = rpm.analyzer().explain(first.problem_id);
    std::printf("\n-- explain(problem_id=%llu) --\n%s\n",
                static_cast<unsigned long long>(first.problem_id),
                receipt.c_str());
  }

  // 6. How did R-Pingmesh itself behave? Dump the self-observability
  // metrics: Agent probe volume, Analyzer periods, and the fabric
  // counters on the faulted link.
  scraper.stop();
  const telemetry::Snapshot snap = telemetry::registry().snapshot();
  const std::string prom = telemetry::to_prometheus(snap);
  std::printf("\n-- self-observability (%llu periodic scrapes, %llu bytes) --\n",
              static_cast<unsigned long long>(scraper.dumps()),
              static_cast<unsigned long long>(scrape_bytes));
  std::printf("\nagent probe counters:\n");
  print_filtered(prom, {"rpm_agent_probes_sent_total{host=\"0\"",
                        "rpm_agent_probes_completed_total{host=\"0\"",
                        "rpm_agent_probe_timeouts_total{host=\"0\""});
  std::printf("\nanalyzer pipeline (stage wall cost: profile below):\n");
  print_filtered(prom, {"rpm_analyzer_periods"});
  std::printf("\ncontrol-plane transport (uploads + RPCs, host 0):\n");
  print_filtered(prom, {"rpm_transport_msgs_total{channel=\"upload/h0\"",
                        "rpm_transport_msgs_total{channel=\"ctrl/h0",
                        "rpm_analyzer_batches_total"});
  std::printf("\nfabric + per-link counters (faulted link shows drops):\n");
  print_filtered(prom, {"rpm_fabric_", "rpm_link_"});
  std::printf("\nevent loop:\n");
  print_filtered(prom, {"rpm_sim_"});

  // Where the wall-clock went, per stage (quickstart_profile.json below
  // holds the full breakdown with quantiles).
  const prof::ProfileReport prof_rep = prof::profiler().report();
  std::printf("\nwall-clock stage profile (count / total ms):\n");
  for (std::size_t i = 0; i < prof::kNumStages; ++i) {
    const prof::StageStats& st = prof_rep.stages[i];
    if (st.count == 0) continue;
    std::printf("  %-22s %8llu  %10.2f\n",
                prof::stage_name(static_cast<prof::Stage>(i)),
                static_cast<unsigned long long>(st.count),
                static_cast<double>(st.total_ns) / 1e6);
  }

  // The artifacts, each streamed to its file (CI validates that they parse):
  // the trace of everything above — the marker track (pid 1), one track per
  // sampled probe (pid 2), and the profiler's wall-clock stage tracks
  // (pid 3) — for chrome://tracing / Perfetto; the flight-recorder ring; the
  // last period's full diagnosis log; and the stage profile.
  const obs::DiagnosisLog& dlog = *rpm.analyzer().last_diagnosis();
  std::printf("\n%zu markers, %llu/%llu probes sampled, %zu evidence chains,"
              " %llu budget overruns\n",
              obs::recorder().markers().size(),
              static_cast<unsigned long long>(obs::recorder().probes_sampled()),
              static_cast<unsigned long long>(obs::recorder().probes_seen()),
              dlog.chains.size(),
              static_cast<unsigned long long>(prof_rep.budget_overruns));
  const std::pair<const char*, std::function<void(json::Writer&)>>
      artifacts[] = {
          {"quickstart_trace.json",
           [](json::Writer& w) {
             obs::write_chrome_trace(w, [](json::Writer& events) {
               obs::recorder().write_chrome_events(events);
               prof::profiler().write_chrome_events(events);
             });
           }},
          {"quickstart_flight.json",
           [](json::Writer& w) { obs::recorder().write_json(w); }},
          {"quickstart_diagnosis.json",
           [&dlog](json::Writer& w) { obs::write_json(w, dlog); }},
          {"quickstart_profile.json",
           [&prof_rep](json::Writer& w) { prof_rep.write_json(w); }},
      };
  int status = 0;
  for (const auto& [path, body] : artifacts) {
    if (json::write_file(path, json::Layout::kCompact, body)) {
      std::printf("wrote %s\n", path);
    } else {
      std::fprintf(stderr, "quickstart: cannot write %s\n", path);
      status = 1;
    }
  }

  rpm.stop();
  prof::profiler().disable();
  prof::Profiler::detach_scheduler(cluster.scheduler());
  obs::recorder().disable();
  return status;
}
