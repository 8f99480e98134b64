// rpm_perfbench: runs one benchmark workload and prints its metrics.
//
//   rpm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--smoke]
//
// --trace 0 repeats passes (set-up + measured phase) for about --seconds and
// prints the end-to-end metrics: medians over passes, period-close
// percentiles over the closes of a pass (each close's median over passes),
// and the process peak RSS. Every time is rescaled to the reference host
// speed (calib.h); the provenance line carries the raw medians too.
// --trace 1 runs one untraced and one traced pass and prints the per-layer
// metrics of the traced one; both passes must produce the same report bytes
// and the same event count. Every pass is checked for correct verdicts.
//
// Output: a provenance line, then (last line) the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit status: 0 correct, 1 a correctness check failed, 2 usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "calib.h"

#ifndef RPM_PERF_BUILD_TYPE
#define RPM_PERF_BUILD_TYPE "unknown"
#endif
#ifndef RPM_PERF_COMPILER
#define RPM_PERF_COMPILER "unknown"
#endif

namespace rpm::perf {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

namespace {

constexpr Workload kWorkloads[] = {
    {"dml_alltoall", dml_alltoall_params, dml_alltoall_pass},
    {"fed_sketch_chaos", fed_sketch_chaos_params, fed_sketch_chaos_pass},
    {"analyzer_replay", analyzer_replay_params, analyzer_replay_pass},
};

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"verdict_ms_p50", "ms"},
    {"verdict_ms_p90", "ms"},
    {"diagnosis_accuracy", "share"},
};

constexpr Metric kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.dispatch_ns_p50", "ns"},
    {"sim.dispatch_ns_p99", "ns"},
    {"sim.other_s", "s"},
    {"fabric.fluid_steps", "count"},
    {"fabric.fluid_step_us", "us"},
    {"cc.updates", "count"},
    {"cc.update_ns", "ns"},
    {"fabric.sends", "count"},
    {"fabric.delivered", "count"},
    {"fabric.drops", "count"},
    {"fabric.send_ns", "ns"},
    {"agent.probes_sent", "count"},
    {"agent.probes_completed", "count"},
    {"agent.probe_timeouts", "count"},
    {"agent.upload_records", "count"},
    {"agent.uploads", "count"},
    {"agent.upload_folded", "count"},
    {"sketch.reports", "count"},
    {"sketch.flush_ms", "ms"},
    {"federation.digests", "count"},
    {"federation.digest_flush_ms", "ms"},
    {"federation.global_merge_ms", "ms"},
    {"controller.failovers", "count"},
    {"transport.msgs", "count"},
    {"transport.deliver_ms", "ms"},
    {"ingest.batches", "count"},
    {"ingest.records", "count"},
    {"ingest.submit_ms", "ms"},
    {"analyzer.drain_triage_ms", "ms"},
    {"analyzer.drain_vote_ms", "ms"},
    {"analyzer.drain_bottleneck_ms", "ms"},
    {"analyzer.drain_sla_ms", "ms"},
    {"analyzer.drain_impact_ms", "ms"},
    {"analyzer.drain_diaglog_ms", "ms"},
    {"analyzer.period_close_ms", "ms"},
    {"setup.topology_ms", "ms"},
    {"setup.cluster_ms", "ms"},
    {"setup.deploy_ms", "ms"},
    {"setup.start_ms", "ms"},
    {"agent.memory_bytes", "bytes"},
    {"trace.overhead_share", "share"},
};

/// Set-up-only repetitions per run on top of each pass's own set-up.
constexpr int kExtraSetups = 60;

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Peak RSS of the process without the calibration kernel's table, which
/// is resident throughout (main() runs the kernel before any workload).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double kib = static_cast<double>(ru.ru_maxrss) -  // ru_maxrss is KiB
                     static_cast<double>(kKernelTableBytes) / 1024.0;
  return kib / 1024.0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke]\nworkloads:",
               argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  std::map<std::string, double> metrics;
  std::size_t passes = 0;
  std::size_t setup_samples = 0;
  std::size_t verdict_samples = 0;
  std::uint64_t sim_events = 0;  // per pass; 0 for the replay
  // Medians of the clock readings behind wall_s and setup_s (untraced).
  double raw_wall_s = 0.0;
  double raw_setup_s = 0.0;

  void fail(const std::string& why) {
    if (correct) first_error = why;
    correct = false;
  }
  void account(const Pass& p) {
    attempted += p.ops;
    failed += p.failures;
    if (!p.error.empty()) fail(p.error);
  }
};

/// The period closes of one pass, each taken as its median over the passes:
/// every pass of a seed closes the same periods on the same records, so the
/// i-th close of each pass is a repeat of one measurement. Passes that
/// disagree on the number of closes are pooled instead.
std::vector<double> typical_closes(
    const std::vector<std::vector<double>>& by_pass) {
  std::vector<double> out;
  const std::size_t n = by_pass.empty() ? 0 : by_pass.front().size();
  const bool aligned =
      std::all_of(by_pass.begin(), by_pass.end(),
                  [n](const std::vector<double>& p) { return p.size() == n; });
  if (!aligned) {
    for (const std::vector<double>& p : by_pass) {
      out.insert(out.end(), p.begin(), p.end());
    }
    return out;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> repeats;
    for (const std::vector<double>& p : by_pass) repeats.push_back(p[i]);
    out.push_back(percentile(std::move(repeats), 0.5));
  }
  return out;
}

Outcome run_untraced(const Workload& w, const Options& opt) {
  Outcome o;
  const Clock::time_point start = Clock::now();
  std::vector<double> setups;
  std::vector<double> raw_setups;
  for (int i = 0; i < kExtraSetups; ++i) {
    const Pass p = w.run_pass(opt, PassMode::kSetupOnly);
    setups.push_back(p.setup_s);
    raw_setups.push_back(p.raw_setup_s);
  }
  std::vector<double> walls;
  std::vector<double> raw_walls;
  std::vector<std::vector<double>> closes;  // per pass
  std::string first_report;
  double last_pass_s = 0.0;
  do {
    const Clock::time_point p0 = Clock::now();
    const Pass p = w.run_pass(opt, PassMode::kUntraced);
    last_pass_s = seconds_since(p0);
    o.account(p);
    if (walls.empty()) {
      first_report = p.report;
    } else if (p.report != first_report) {
      o.fail("pass " + std::to_string(walls.size()) +
             " report differs from pass 0 for the same seed");
    }
    std::fprintf(stderr, "pass %zu: wall_s %.6f (raw %.6f)\n", walls.size(),
                 p.wall_s, p.raw_wall_s);
    setups.push_back(p.setup_s);
    raw_setups.push_back(p.raw_setup_s);
    walls.push_back(p.wall_s);
    raw_walls.push_back(p.raw_wall_s);
    o.sim_events = p.sim_events;
    closes.push_back(p.close_ms);
  } while (!opt.smoke && seconds_since(start) + last_pass_s < opt.seconds);

  o.passes = walls.size();
  o.setup_samples = setups.size();
  const std::vector<double> typical = typical_closes(closes);
  o.verdict_samples = typical.size();
  o.raw_wall_s = percentile(raw_walls, 0.5);
  o.raw_setup_s = percentile(raw_setups, 0.5);
  o.metrics["wall_s"] = percentile(walls, 0.5);
  o.metrics["setup_s"] = percentile(setups, 0.5);
  o.metrics["peak_rss_mb"] = peak_rss_mb();
  o.metrics["verdict_ms_p50"] = percentile(typical, 0.5);
  o.metrics["verdict_ms_p90"] = percentile(typical, 0.9);
  o.metrics["diagnosis_accuracy"] =
      o.attempted == 0 ? 0.0
                       : 1.0 - static_cast<double>(o.failed) /
                                   static_cast<double>(o.attempted);
  if (o.attempted == 0) o.fail("no diagnosis operation was scored");
  return o;
}

Outcome run_traced(const Workload& w, const Options& opt) {
  Outcome o;
  const Pass plain = w.run_pass(opt, PassMode::kUntraced);
  const Pass traced = w.run_pass(opt, PassMode::kTraced);
  o.passes = 2;
  o.sim_events = traced.sim_events;
  o.account(plain);
  o.account(traced);
  if (plain.report != traced.report) {
    o.fail("traced report differs from untraced report:\n--- untraced\n" +
           plain.report + "\n--- traced\n" + traced.report);
  }
  if (plain.sim_events != traced.sim_events) {
    o.fail("traced sim.events " + std::to_string(traced.sim_events) +
           " != untraced " + std::to_string(plain.sim_events));
  }
  for (const Metric& m : kPerLayer) o.metrics[m.name] = 0.0;
  for (const auto& [name, v] : traced.layers) {
    if (!o.metrics.contains(name)) {
      o.fail("workload reported unknown per-layer metric " + name);
    }
    o.metrics[name] = v;
  }
  o.metrics["trace.overhead_share"] =
      plain.raw_wall_s > 0
          ? (traced.raw_wall_s - plain.raw_wall_s) / plain.raw_wall_s
          : 0.0;
  return o;
}

int run(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const auto arg = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    if (arg("--workload")) {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (arg("--seed")) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg("--seconds")) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg("--trace")) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (opt.workload == cand.name) w = &cand;
  }
  if (w == nullptr || !have_workload || !have_seed || opt.seconds <= 0) {
    return usage(argv[0]);
  }

  time_kernel();  // makes the kernel's table resident before any workload
  const Outcome o = opt.trace ? run_traced(*w, opt) : run_untraced(*w, opt);

  std::string prov = "{\"provenance\":{\"workload\":" + quote(w->name) +
                     ",\"seed\":" + std::to_string(opt.seed) +
                     ",\"seconds\":" + number(opt.seconds) +
                     ",\"trace\":" + (opt.trace ? "1" : "0") +
                     ",\"smoke\":" + (opt.smoke ? "1" : "0") +
                     ",\"build_type\":" + quote(RPM_PERF_BUILD_TYPE) +
                     ",\"compiler\":" + quote(RPM_PERF_COMPILER) +
                     ",\"nproc\":" +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ",\"passes\":" + std::to_string(o.passes) +
                     ",\"setup_samples\":" + std::to_string(o.setup_samples) +
                     ",\"verdict_samples\":" +
                     std::to_string(o.verdict_samples) +
                     ",\"sim_events\":" + std::to_string(o.sim_events) +
                     ",\"raw_wall_s\":" + number(o.raw_wall_s) +
                     ",\"raw_setup_s\":" + number(o.raw_setup_s) +
                     ",\"kernel_nominal_s\":" + number(kKernelNominalS) +
                     ",\"params\":{";
  bool first = true;
  for (const auto& [k, v] : w->params(opt)) {
    prov += (first ? "" : ",") + quote(k) + ":" + quote(v);
    first = false;
  }
  prov += "}}}";
  std::printf("%s\n", prov.c_str());

  if (!o.correct) {
    std::fprintf(stderr, "INCORRECT: %s\n", o.first_error.c_str());
  }
  std::string res = std::string("{\"correct\":") +
                    (o.correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(o.attempted) +
                    ",\"failed\":" + std::to_string(o.failed) +
                    ",\"metrics\":{";
  first = true;
  for (const Metric& m : opt.trace ? std::span<const Metric>(kPerLayer)
                                   : std::span<const Metric>(kEndToEnd)) {
    const auto it = o.metrics.find(m.name);
    res += (first ? "" : ",") + quote(m.name) + ":{\"value\":" +
           number(it == o.metrics.end() ? 0.0 : it->second) +
           ",\"unit\":" + quote(m.unit) + "}";
    first = false;
  }
  res += "}}";
  std::printf("%s\n", res.c_str());
  std::fflush(stdout);
  return o.correct ? 0 : 1;
}

}  // namespace
}  // namespace rpm::perf

int main(int argc, char** argv) {
  try {
    return rpm::perf::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rpm_perfbench: %s\n", e.what());
    return 1;
  }
}
