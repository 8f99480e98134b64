// Federation scale-out economics (ROADMAP "Hierarchical federation").
//
// Deploys a federated R-Pingmesh (per-pod Analyzers + global merge tier +
// warm standby Controller) and runs the acceptance chaos drill: kill the
// primary Controller mid-period, kill one pod's Analyzer mid-drain, let the
// lease/epoch/journal machinery recover. Reports, per pod, the record rate
// the pod's Analyzer absorbed and the digest bytes it pushed upstream; at the
// cluster level, the fan-in ratio between raw upload volume (what a flat
// Analyzer would have ingested over the wire) and the digest volume the
// global tier actually consumed; and the periods-to-recovery after each
// control-plane kill.
//
// Flags:
//   --hosts N    total hosts (default 128). Topology: 4-pod 3-tier Clos,
//                4 ToRs/pod, N/16 hosts per ToR.
//   --pods P     federation pods (default 4; Clos pods fold modulo P)
//   --seconds S  simulated seconds (default 120 => 24 analysis periods)
//   --dump       print only the deterministic JSON (no wall-clock fields)
//                to stdout; CI diffs two same-seed runs of this output.
//   --out PATH   full JSON incl. cpu_ms (default BENCH_federation.json)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "chaos/chaos.h"
#include "telemetry/metrics.h"

namespace rpm {
namespace {

/// Sum of rpm_transport_bytes_total over channels whose name starts with
/// `prefix` ("upload/", "digest/", ...).
std::uint64_t channel_bytes(const telemetry::Snapshot& snap,
                            const std::string& prefix) {
  double total = 0.0;
  for (const telemetry::SeriesSample& s : snap.series) {
    if (s.name != "rpm_transport_bytes_total") continue;
    for (const telemetry::Label& l : s.labels) {
      if (l.key == "channel" && l.value.rfind(prefix, 0) == 0) {
        total += static_cast<double>(s.counter_value);
      }
    }
  }
  return static_cast<std::uint64_t>(total);
}

struct PodStats {
  std::size_t hosts = 0;
  std::uint64_t periods = 0;
  std::uint64_t records = 0;
  std::uint64_t digests = 0;
  std::uint64_t digest_bytes = 0;
};

int run(int argc, char** argv) {
  std::uint32_t hosts = 128;
  std::size_t pods = 4;
  int seconds = 120;
  bool dump = false;
  std::string out_path = "BENCH_federation.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hosts") == 0 && i + 1 < argc) {
      hosts = static_cast<std::uint32_t>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--pods") == 0 && i + 1 < argc) {
      pods = std::stoul(argv[++i]);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--dump") == 0) {
      dump = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--hosts N] [--pods P] [--seconds S] [--dump] "
                   "[--out P]\n",
                   argv[0]);
      return 2;
    }
  }

  topo::ClosConfig tcfg;
  tcfg.num_pods = 4;
  tcfg.tors_per_pod = 4;
  tcfg.aggs_per_pod = 2;
  tcfg.spines_per_plane = 2;
  tcfg.hosts_per_tor = hosts / (tcfg.num_pods * tcfg.tors_per_pod);
  if (tcfg.hosts_per_tor == 0) tcfg.hosts_per_tor = 1;
  tcfg.rnics_per_host = 1;

  core::RPingmeshConfig rcfg;
  rcfg.analyzer.period = sec(5);
  rcfg.federation.pods = pods;
  rcfg.federation.standby_controller = true;

  bench::Deployment d(tcfg, {}, rcfg);
  chaos::ChaosRunner runner(d.cluster, d.rpm, d.faults);

  // The acceptance drill: primary Controller killed mid-period, one pod's
  // Analyzer killed mid-drain, both recovered through lease transfer /
  // journal restore. No network faults — the bench measures plumbing cost
  // and recovery, parity is test_federation's job.
  chaos::ChaosPlan plan;
  plan.seed = 7;
  plan.duration = sec(seconds);
  plan.controller_crash(sec(32));
  plan.controller_restart(sec(50));
  if (d.rpm.federated()) {
    plan.pod_analyzer_crash(sec(57), 1 % d.rpm.num_pods());
    plan.pod_analyzer_restart(sec(68), 1 % d.rpm.num_pods());
  }

  const auto wall0 = std::chrono::steady_clock::now();
  const chaos::ChaosReport rep = runner.run(plan);
  const auto wall1 = std::chrono::steady_clock::now();
  const double cpu_ms =
      std::chrono::duration<double, std::milli>(wall1 - wall0).count();

  std::vector<PodStats> pod_stats;
  std::uint64_t digest_bytes_total = 0;
  for (std::size_t p = 0; p < d.rpm.num_pods() && d.rpm.federated(); ++p) {
    core::Analyzer& pa = d.rpm.pod_analyzer(p);
    PodStats st;
    for (const topo::HostInfo& h : d.cluster.topology().hosts()) {
      if (d.rpm.pod_of(h.id) == p) ++st.hosts;
    }
    for (const core::PeriodReport& r : pa.history()) {
      ++st.periods;
      st.records += r.records_processed;
    }
    st.digests = pa.digests_sent();
    st.digest_bytes = pa.digest_bytes_sent();
    digest_bytes_total += st.digest_bytes;
    pod_stats.push_back(st);
  }

  const telemetry::Snapshot snap = telemetry::registry().snapshot();
  const std::uint64_t upload_bytes = channel_bytes(snap, "upload/");
  const std::uint64_t digest_wire_bytes = channel_bytes(snap, "digest/");
  const double fan_in_x =
      static_cast<double>(upload_bytes) /
      static_cast<double>(digest_wire_bytes == 0 ? 1 : digest_wire_bytes);

  // ---- JSON (one BenchJson schema shared by every BENCH_*.json) ----
  bench::BenchJson out;
  out.bench = "federation";
  out.params = [&](json::Writer& w) {
    w.key("hosts").integer(hosts)
        .key("pods").integer(d.rpm.num_pods())
        .key("seconds").integer(seconds)
        .key("seed").integer(7);
  };
  out.metrics = [&](json::Writer& w) {
    w.key("global").begin_object()
        .key("periods").integer(rep.periods)
        .key("merges").integer(
            d.rpm.federated() ? d.rpm.global_analyzer().merges() : 0)
        .key("problems").integer(rep.problems_total)
        .key("upload_bytes").integer(upload_bytes)
        .key("digest_bytes").integer(digest_wire_bytes)
        .key("fan_in_x").fixed(fan_in_x, 2)
        .end_object();
    w.key("per_pod").begin_array();
    for (std::size_t p = 0; p < pod_stats.size(); ++p) {
      const PodStats& st = pod_stats[p];
      w.begin_object()
          .key("pod").integer(p)
          .key("hosts").integer(st.hosts)
          .key("records_per_period")
          .integer(st.periods == 0 ? 0 : st.records / st.periods)
          .key("digests").integer(st.digests)
          .key("digest_bytes").integer(st.digest_bytes)
          .end_object();
    }
    w.end_array().key("recoveries").begin_array();
    for (const chaos::ChaosReport::Recovery& r : rep.recoveries) {
      w.begin_object()
          .key("event").string(r.event)
          .key("periods_to_recover").integer(r.periods_to_recover)
          .end_object();
    }
    w.end_array().key("false_positives").integer(rep.false_positives);
    if (!dump) w.key("cpu_ms").fixed(cpu_ms, 1);  // wall clock
  };

  if (dump) {
    // Deterministic view only — byte-identical across same-seed runs.
    std::printf("%s\n", out.str().c_str());
    return 0;
  }

  if (!out.write_file(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }

  bench::print_header("Federation fan-in + failover recovery");
  bench::print_row_header(
      {"pod", "hosts", "records/period", "digests", "digest_bytes"});
  for (std::size_t p = 0; p < pod_stats.size(); ++p) {
    const PodStats& st = pod_stats[p];
    std::printf("%-22zu%-22zu%-22llu%-22llu%-22llu\n", p, st.hosts,
                static_cast<unsigned long long>(
                    st.periods == 0 ? 0 : st.records / st.periods),
                static_cast<unsigned long long>(st.digests),
                static_cast<unsigned long long>(st.digest_bytes));
  }
  std::printf("\nTakeaway: the global tier consumed %llu digest bytes where "
              "a flat Analyzer\ningested %llu upload bytes — a %.0fx fan-in "
              "reduction — and every control-plane\nkill recovered within ",
              static_cast<unsigned long long>(digest_wire_bytes),
              static_cast<unsigned long long>(upload_bytes), fan_in_x);
  int worst = 0;
  for (const auto& r : rep.recoveries) {
    if (r.periods_to_recover > worst) worst = r.periods_to_recover;
  }
  std::printf("%d periods. Wrote %s.\n", worst, out_path.c_str());
  (void)digest_bytes_total;
  return 0;
}

}  // namespace
}  // namespace rpm

int main(int argc, char** argv) { return rpm::run(argc, argv); }
