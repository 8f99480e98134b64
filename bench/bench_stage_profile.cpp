// Submit→verdict wall-clock breakdown (ROADMAP "Streaming period close").
//
// Drives the Analyzer directly — synthetic ToR-mesh records batched over 64
// hosts, no fabric in the loop — for a list of records/period, with the
// stage profiler on. Each run reports end-to-end wall time, events/sec, and
// the per-stage profile (ingest.submit, drain.triage/vote/sla/...,
// period.close), which is exactly the baseline the streaming-period-close
// work will optimize against: everything runs serially on the sim thread,
// and the stage rows show where.
//
// Flags:
//   --records L   comma list of records/period      (default 100000,1000000)
//   --reps N      measured periods per run          (default 3)
//   --budget-ms B period-close watchdog budget, 0 = off (default 0)
//   --out PATH    output JSON                (default BENCH_profile.json)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/analyzer.h"
#include "core/controller.h"
#include "prof/prof.h"
#include "routing/ecmp.h"
#include "sim/scheduler.h"
#include "topo/topology.h"

namespace rpm {
namespace {

std::vector<std::uint64_t> parse_list(const char* s) {
  std::vector<std::uint64_t> out;
  std::uint64_t cur = 0;
  bool have = false;
  for (; *s != '\0'; ++s) {
    if (*s == ',') {
      if (have) out.push_back(cur);
      cur = 0;
      have = false;
    } else if (*s >= '0' && *s <= '9') {
      cur = cur * 10 + static_cast<std::uint64_t>(*s - '0');
      have = true;
    }
  }
  if (have) out.push_back(cur);
  return out;
}

struct CellResult {
  std::uint64_t records = 0;  // records/period
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t periods = 0;
  std::uint64_t budget_overruns = 0;
  prof::ProfileReport stages;
};

/// One records/period run: fresh Analyzer, fresh profiler epoch; 1 warm-up
/// period + `reps` measured periods.
CellResult run_cell(const topo::Topology& topo, const core::Controller& ctrl,
                    std::uint64_t records_per_period, int reps,
                    TimeNs budget) {
  constexpr std::size_t kBatch = 128;
  constexpr std::uint32_t kHosts = 64;

  sim::InlineScheduler sched;
  core::AnalyzerConfig cfg;
  cfg.period = sec(5);
  core::Analyzer analyzer(topo, ctrl, sched, cfg);

  const std::vector<topo::HostInfo>& hosts = topo.hosts();
  core::ProbeRecord proto;
  proto.kind = core::ProbeKind::kTorMesh;
  proto.status = core::ProbeStatus::kOk;
  proto.network_rtt = usec(5);
  proto.responder_delay = usec(2);
  proto.prober_delay = usec(3);

  std::uint64_t seq = 1;
  std::uint64_t next_id = 1;
  const auto run_period = [&](int period_idx) {
    sched.run_until(cfg.period * static_cast<TimeNs>(period_idx + 1));
    for (std::uint64_t done = 0; done < records_per_period; done += kBatch) {
      core::UploadBatch b;
      const std::size_t hi =
          static_cast<std::size_t>(done / kBatch) % kHosts % hosts.size();
      const topo::HostInfo& h = hosts[hi];
      b.host = h.id;
      b.seq = seq++;
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(kBatch, records_per_period - done));
      b.records.assign(n, proto);
      for (core::ProbeRecord& r : b.records) {
        r.id = next_id++;
        r.prober = h.rnics[0];
        r.prober_host = h.id;
        r.target = hosts[(hi + 1) % hosts.size()].rnics[0];
        r.sent_at = sched.now();
        // Spread RTTs so the SLA percentile tables do real work.
        r.network_rtt = usec(3) + static_cast<TimeNs>(r.id % 512) * 10;
      }
      analyzer.sink().submit(std::move(b));
    }
    (void)analyzer.analyze_now();
  };

  prof::ProfilerConfig pcfg;
  pcfg.period_close_budget = budget;
  pcfg.max_trace_events = 0;  // stats only; no trace allocation in the loop
  prof::profiler().enable(pcfg);
  run_period(0);  // warm-up: dedup maps, bucket capacity
  prof::profiler().enable(pcfg);  // reset buffers; keep only measured reps

  const auto t0 = std::chrono::steady_clock::now();
  for (int p = 0; p < reps; ++p) run_period(p + 1);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  prof::profiler().disable();

  CellResult res;
  res.records = records_per_period;
  res.wall_ms = secs * 1e3;
  res.events_per_sec =
      static_cast<double>(records_per_period * static_cast<std::uint64_t>(
                                                   reps)) /
      (secs > 0 ? secs : 1e-9);
  res.periods = static_cast<std::uint64_t>(reps);
  res.budget_overruns = prof::profiler().budget_overruns();
  res.stages = prof::profiler().report();
  return res;
}

int run(int argc, char** argv) {
  std::vector<std::uint64_t> records = {100000, 1000000};
  int reps = 3;
  std::uint64_t budget_ms = 0;
  std::string out_path = "BENCH_profile.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--records") == 0 && i + 1 < argc) {
      records = parse_list(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--budget-ms") == 0 && i + 1 < argc) {
      budget_ms = std::stoull(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--records L] [--reps N] [--budget-ms B] "
                   "[--out P]\n",
                   argv[0]);
      return 2;
    }
  }
  if (records.empty() || reps < 1) {
    std::fprintf(stderr, "empty grid\n");
    return 2;
  }

  // 64-host 2-pod Clos; the workload addresses hosts by index so the cell
  // driver works for any size >= 1.
  topo::ClosConfig tcfg;
  tcfg.num_pods = 2;
  tcfg.tors_per_pod = 4;
  tcfg.aggs_per_pod = 2;
  tcfg.spines_per_plane = 2;
  tcfg.hosts_per_tor = 8;
  tcfg.rnics_per_host = 1;
  const topo::Topology topo = topo::build_clos(tcfg);
  routing::EcmpRouter router(topo);
  core::Controller ctrl(topo, router);

  bench::BenchJson out;
  out.bench = "stage_profile";
  out.params = [&](json::Writer& w) {
    std::string list;
    for (std::uint64_t x : records) {
      if (!list.empty()) list += ',';
      list += std::to_string(x);
    }
    w.key("hosts").integer(topo.hosts().size())
        .key("batch").integer(128)
        .key("reps").integer(reps)
        .key("records_list").string(list)
        .key("budget_ms").integer(budget_ms);
  };

  bench::print_header("Submit -> verdict wall-clock stage profile");
  bench::print_row_header(
      {"records/period", "wall ms/period", "events/sec", "overruns"});

  std::vector<CellResult> cells;
  for (const std::uint64_t rpp : records) {
    const CellResult& cell = cells.emplace_back(run_cell(
        topo, ctrl, rpp, reps, static_cast<TimeNs>(budget_ms) * 1000000));
    std::printf("%-22llu%-22.1f%-22.0f%-22llu\n",
                static_cast<unsigned long long>(rpp), cell.wall_ms / reps,
                cell.events_per_sec,
                static_cast<unsigned long long>(cell.budget_overruns));
  }
  out.metrics = [&cells](json::Writer& w) {
    w.key("runs").begin_array();
    for (const CellResult& cell : cells) {
      w.begin_object()
          .key("records").integer(cell.records)
          .key("wall_ms").fixed(cell.wall_ms, 1)
          .key("events_per_sec").fixed(cell.events_per_sec, 0)
          .key("budget_overruns").integer(cell.budget_overruns);
      cell.stages.write_stage_rows(w.key("stages"), true);
      w.end_object();
    }
    w.end_array();
  };
  // Top-level stages row: the last (largest) run, for the standard schema.
  out.stages = cells.back().stages;

  if (!out.write_file(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace rpm

int main(int argc, char** argv) { return rpm::run(argc, argv); }
