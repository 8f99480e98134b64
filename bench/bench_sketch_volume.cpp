// Upload-volume reduction from sketch mode (AnalyzerConfig::sketch_mode).
//
// Runs the same cluster twice — sketch_mode=off (every probe record shipped
// raw, the historical pipeline) and sketch_mode=on (Agents fold healthy OK
// records into HostSummary sketches) — and compares what the Analyzer had
// to ingest per 20 s period: raw records, wire bytes across every
// control-plane channel, and the ingest cost. The target is a >= 10x
// reduction in records/period at 1k hosts with verdict parity (parity is
// asserted by test_chaos.SketchModeMatchesRawVerdictsOnChaosGroundTruth;
// this bench measures the volume side).
//
// Flags:
//   --hosts N    total hosts (default 1024). Topology: 3-tier Clos, 16
//                hosts/ToR, 4 ToRs/pod => 64 hosts/pod, N/64 pods.
//   --seconds S  simulated seconds per mode (default 45 => 2 full periods)
//   --dump       print only the deterministic JSON (no wall-clock fields)
//                to stdout; CI diffs two same-seed runs of this output.
//   --out PATH   write the full JSON incl. cpu_ms (default BENCH_sketch.json)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "telemetry/metrics.h"

namespace rpm {
namespace {

struct ModeResult {
  std::uint64_t periods = 0;
  std::uint64_t records = 0;       // raw records the Analyzer processed
  std::uint64_t wire_bytes = 0;    // all channels, rpm_transport_bytes_total
  std::uint64_t folded_records = 0;
  std::uint64_t sla_probes = 0;    // cluster SLA sample count (raw + folded)
  double cpu_ms = 0.0;             // wall time of the simulation run
};

double counter_sum(const char* name) {
  return telemetry::registry().snapshot().sum(name, {});
}

ModeResult run_mode(bool sketch_on, std::uint32_t hosts, int seconds) {
  topo::ClosConfig tcfg;
  tcfg.hosts_per_tor = 16;
  tcfg.tors_per_pod = 4;
  tcfg.aggs_per_pod = 2;
  tcfg.spines_per_plane = 2;
  tcfg.num_pods = hosts / (tcfg.hosts_per_tor * tcfg.tors_per_pod);
  if (tcfg.num_pods == 0) tcfg.num_pods = 1;
  tcfg.rnics_per_host = 1;

  core::RPingmeshConfig rcfg;
  rcfg.analyzer.sketch_mode =
      sketch_on ? core::SketchMode::kOn : core::SketchMode::kOff;

  // The registry is process-global and both modes run in one process, so
  // measure deltas around the run instead of resetting.
  const double bytes0 = counter_sum("rpm_transport_bytes_total");
  const double folded0 = counter_sum("rpm_agent_upload_folded_total");

  bench::Deployment d(tcfg, {}, rcfg);
  const auto wall0 = std::chrono::steady_clock::now();
  d.cluster.run_for(sec(seconds));
  const auto wall1 = std::chrono::steady_clock::now();

  ModeResult r;
  r.cpu_ms = std::chrono::duration<double, std::milli>(wall1 - wall0).count();
  for (const core::PeriodReport& rep : d.rpm.analyzer().history()) {
    ++r.periods;
    r.records += rep.records_processed;
    r.sla_probes += rep.cluster_sla.probes;
  }
  r.wire_bytes = static_cast<std::uint64_t>(
      counter_sum("rpm_transport_bytes_total") - bytes0);
  r.folded_records = static_cast<std::uint64_t>(
      counter_sum("rpm_agent_upload_folded_total") - folded0);
  return r;
}

void write_mode(json::Writer& w, const ModeResult& r, bool with_cpu) {
  const auto per_period = [&r](std::uint64_t total) {
    return r.periods == 0 ? 0 : total / r.periods;
  };
  w.begin_object()
      .key("periods").integer(r.periods)
      .key("records_per_period").integer(per_period(r.records))
      .key("bytes_per_period").integer(per_period(r.wire_bytes))
      .key("folded_records").integer(r.folded_records)
      .key("sla_probes_per_period").integer(per_period(r.sla_probes));
  if (with_cpu) w.key("cpu_ms").fixed(r.cpu_ms, 1);
  w.end_object();
}

int run(int argc, char** argv) {
  std::uint32_t hosts = 1024;
  int seconds = 45;
  bool dump = false;
  std::string out_path = "BENCH_sketch.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hosts") == 0 && i + 1 < argc) {
      hosts = static_cast<std::uint32_t>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--dump") == 0) {
      dump = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--hosts N] [--seconds S] [--dump] [--out P]\n",
                   argv[0]);
      return 2;
    }
  }

  const ModeResult off = run_mode(false, hosts, seconds);
  const ModeResult on = run_mode(true, hosts, seconds);
  // A fault-free cluster folds every record, so guard the denominator: the
  // reduction is then "off.records x" rather than infinity.
  const double rec_x = static_cast<double>(off.records) /
                       static_cast<double>(on.records == 0 ? 1 : on.records);
  const double byte_x =
      static_cast<double>(off.wire_bytes) /
      static_cast<double>(on.wire_bytes == 0 ? 1 : on.wire_bytes);

  bench::BenchJson out{"sketch_volume"};
  out.params = [&](json::Writer& w) {
    w.key("hosts").integer(hosts)
        .key("seconds").integer(seconds)
        .key("seed").integer(7);
  };
  out.metrics = [&](json::Writer& w) {
    // cpu_ms is wall clock: kept out of --dump.
    write_mode(w.key("off"), off, !dump);
    write_mode(w.key("on"), on, !dump);
    w.key("reduction").begin_object()
        .key("records_x").fixed(rec_x, 2)
        .key("bytes_x").fixed(byte_x, 2)
        .end_object();
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

  bench::print_header("Sketch upload-volume reduction (ISSUE: >=10x @ 1k "
                      "hosts)");
  bench::print_row_header(
      {"mode", "records/period", "bytes/period", "folded", "cpu_ms"});
  const auto row = [](const char* m, const ModeResult& r) {
    std::printf("%-22s%-22llu%-22llu%-22llu%-22.1f\n", m,
                static_cast<unsigned long long>(
                    r.periods == 0 ? 0 : r.records / r.periods),
                static_cast<unsigned long long>(
                    r.periods == 0 ? 0 : r.wire_bytes / r.periods),
                static_cast<unsigned long long>(r.folded_records), r.cpu_ms);
  };
  row("off", off);
  row("on", on);
  std::printf("\nTakeaway: folding healthy records into mergeable sketches "
              "cuts Analyzer record\nvolume %.1fx at %u hosts while SLA "
              "sample counts stay equal (%llu vs %llu per\nperiod) — the "
              "Analyzer sees the same population, just summarized. Wrote "
              "%s.\n",
              rec_x, hosts,
              static_cast<unsigned long long>(
                  off.periods == 0 ? 0 : off.sla_probes / off.periods),
              static_cast<unsigned long long>(
                  on.periods == 0 ? 0 : on.sla_probes / on.periods),
              out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace rpm

int main(int argc, char** argv) { return rpm::run(argc, argv); }
