// Micro-benchmarks (google-benchmark) for the hot paths of the simulator
// and the R-Pingmesh pipeline: 5-tuple hashing, ECMP resolution, fabric
// fluid steps (busy and quiet), DCQCN updates, packet sends, scheduler
// churn, a full Analyzer period, and the telemetry primitives sprinkled
// through all of the above.
#include <any>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "cc/cc.h"
#include "core/analyzer.h"
#include "core/controller.h"
#include "fabric/fabric.h"
#include "host/cluster.h"
#include "obs/flight_recorder.h"
#include "routing/ecmp.h"
#include "sketch/sketch.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "topo/topology.h"
#include "transport/transport.h"

namespace rpm {
namespace {

topo::ClosConfig bench_clos() {
  topo::ClosConfig cfg;
  cfg.num_pods = 4;
  cfg.tors_per_pod = 4;
  cfg.aggs_per_pod = 4;
  cfg.spines_per_plane = 4;
  cfg.hosts_per_tor = 4;
  cfg.rnics_per_host = 2;
  return cfg;
}

void BM_FiveTupleHash(benchmark::State& state) {
  FiveTuple t;
  t.src_ip = IpAddr{0x0A000001};
  t.dst_ip = IpAddr{0x0A00F001};
  std::uint16_t port = 0;
  for (auto _ : state) {
    t.src_port = ++port;
    benchmark::DoNotOptimize(t.stable_hash());
  }
}
BENCHMARK(BM_FiveTupleHash);

void BM_EcmpResolve(benchmark::State& state) {
  const topo::Topology topo = topo::build_clos(bench_clos());
  const routing::EcmpRouter router(topo);
  FiveTuple t;
  t.src_ip = topo.rnic(RnicId{0}).ip;
  t.dst_ip = topo.rnic(RnicId{100}).ip;
  std::uint16_t port = 0;
  for (auto _ : state) {
    t.src_port = ++port;
    benchmark::DoNotOptimize(router.resolve(RnicId{0}, RnicId{100}, t));
  }
}
BENCHMARK(BM_EcmpResolve);

void BM_FabricSend(benchmark::State& state) {
  const topo::Topology topo = topo::build_clos(bench_clos());
  const routing::EcmpRouter router(topo);
  sim::InlineScheduler sched;
  fabric::Fabric fab(topo, router, sched);
  fabric::Datagram d;
  d.src = RnicId{0};
  d.dst = RnicId{100};
  d.tuple.src_ip = topo.rnic(d.src).ip;
  d.tuple.dst_ip = topo.rnic(d.dst).ip;
  std::uint16_t port = 0;
  for (auto _ : state) {
    d.tuple.src_port = ++port;
    benchmark::DoNotOptimize(fab.send(d));
  }
}
BENCHMARK(BM_FabricSend);

void BM_FluidStep(benchmark::State& state) {
  const topo::Topology topo = topo::build_clos(bench_clos());
  const routing::EcmpRouter router(topo);
  sim::InlineScheduler sched;
  fabric::Fabric fab(topo, router, sched);
  // A realistic flow population.
  const auto flows = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < flows; ++i) {
    fabric::FlowSpec f;
    f.src = RnicId{i % static_cast<std::uint32_t>(topo.num_rnics())};
    f.dst = RnicId{(i * 37 + 11) % static_cast<std::uint32_t>(topo.num_rnics())};
    if (f.src == f.dst) f.dst = RnicId{(f.dst.value + 1) %
                                       static_cast<std::uint32_t>(topo.num_rnics())};
    f.tuple.src_ip = topo.rnic(f.src).ip;
    f.tuple.dst_ip = topo.rnic(f.dst).ip;
    f.tuple.src_port = static_cast<std::uint16_t>(1000 + i);
    f.demand_Bps = gbps_to_Bps(10);
    fab.add_flow(f);
  }
  for (auto _ : state) {
    fab.step_once();
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FluidStep)->Arg(16)->Arg(128)->Arg(512);

// A DML job's compute phase on the fluid plane: an 8-rank All2All (56 DCQCN
// flows, the shape of perfbench's dml_alltoall) at zero demand on a drained
// fabric. One iteration = range(0) steps plus the demand change that ends
// the phase, which pays for any CC calls the steps deferred.
void BM_FluidStepQuiet(benchmark::State& state) {
  topo::ClosConfig c;
  c.num_pods = 2;
  c.tors_per_pod = 2;
  c.aggs_per_pod = 2;
  c.spines_per_plane = 2;
  c.hosts_per_tor = 4;
  c.rnics_per_host = 2;
  const topo::Topology topo = topo::build_clos(c);
  const routing::EcmpRouter router(topo);
  sim::InlineScheduler sched;
  fabric::Fabric fab(topo, router, sched);
  cc::Dcqcn dcqcn;
  std::vector<FlowId> flows;
  for (std::uint32_t a = 0; a < 32; a += 4) {
    for (std::uint32_t b = 0; b < 32; b += 4) {
      if (a == b) continue;
      fabric::FlowSpec f;
      f.src = RnicId{a};
      f.dst = RnicId{b};
      f.tuple.src_ip = topo.rnic(f.src).ip;
      f.tuple.dst_ip = topo.rnic(f.dst).ip;
      f.tuple.src_port = static_cast<std::uint16_t>(20000 + flows.size());
      f.controller = &dcqcn;
      flows.push_back(fab.add_flow(f));
    }
  }
  const auto phase = state.range(0);
  for (auto _ : state) {
    for (std::int64_t i = 0; i < phase; ++i) fab.step_once();
    fab.set_flow_demand(flows.front(), 0.0);
  }
  state.SetItemsProcessed(state.iterations() * phase);
}
BENCHMARK(BM_FluidStepQuiet)->Arg(3000);

// One DCQCN update on a clean path after 20k clean updates, the state of a
// flow two seconds into a compute phase: alpha has decayed below the
// smallest normal double.
void BM_DcqcnUpdateAfterCleanStretch(benchmark::State& state) {
  cc::Dcqcn dcqcn;
  const double line = gbps_to_Bps(100);
  double rate = dcqcn.reset(0, line, line);
  fabric::CcFeedback fb;
  fb.dt = usec(100);
  for (int i = 0; i < 20'000; ++i) rate = dcqcn.update(0, fb, rate);
  for (auto _ : state) {
    rate = dcqcn.update(0, fb, rate);
    benchmark::DoNotOptimize(rate);
  }
}
BENCHMARK(BM_DcqcnUpdateAfterCleanStretch);

void BM_Equation1(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::equation1_min_tuples(n, 0.99));
  }
}
BENCHMARK(BM_Equation1)->Arg(4)->Arg(32)->Arg(128);

void BM_AnalyzerPeriod(benchmark::State& state) {
  const topo::Topology topo = topo::build_clos(bench_clos());
  const routing::EcmpRouter router(topo);
  sim::InlineScheduler sched;
  core::Controller ctrl(topo, router);
  // Register everything so QPN checks hit the registry.
  for (const topo::HostInfo& h : topo.hosts()) {
    std::vector<core::RnicCommInfo> infos;
    for (RnicId r : h.rnics) {
      infos.push_back({r, topo.rnic(r).ip, Gid{r.value + 1}, Qpn{0x100}});
    }
    ctrl.register_agent(h.id, infos);
  }
  core::Analyzer analyzer(topo, ctrl, sched);

  // Synthesize a period's worth of records (~the paper's scale per 20 s for
  // this cluster size).
  const auto n_records = static_cast<std::size_t>(state.range(0));
  std::vector<core::ProbeRecord> batch;
  Rng rng(5);
  for (std::size_t i = 0; i < n_records; ++i) {
    core::ProbeRecord r;
    r.id = i;
    r.kind = core::ProbeKind::kTorMesh;
    r.prober = RnicId{static_cast<std::uint32_t>(rng.index(topo.num_rnics()))};
    const auto& peers = topo.rnics_under_tor(topo.rnic(r.prober).tor);
    r.target = peers[rng.index(peers.size())];
    r.prober_host = topo.rnic(r.prober).host;
    r.target_qpn = Qpn{0x100};
    r.status = rng.chance(0.01) ? core::ProbeStatus::kTimeout
                                : core::ProbeStatus::kOk;
    r.network_rtt = usec(5);
    r.responder_delay = usec(8);
    batch.push_back(r);
  }
  for (auto _ : state) {
    state.PauseTiming();
    analyzer.upload(HostId{0}, batch);
    state.ResumeTiming();
    benchmark::DoNotOptimize(analyzer.analyze_now());
  }
  state.SetItemsProcessed(state.iterations() * n_records);
}
BENCHMARK(BM_AnalyzerPeriod)->Arg(10000)->Arg(50000);

// Per-event cost of the scheduler itself: range(0) events stay pending, and
// each one, when it runs, reschedules a copy of itself (a 40-byte capture)
// 1-1024 ns ahead. One iteration = one event popped, run and pushed.
void BM_SchedulerChurn(benchmark::State& state) {
  struct Churn {
    sim::Scheduler* sched;
    std::uint64_t lcg;
    std::uint64_t pad[3];
    void operator()() {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      sched->schedule_after(static_cast<TimeNs>(1 + (lcg >> 54)), *this);
    }
  };
  static_assert(sizeof(Churn) == 40);
  sim::InlineScheduler sched;
  const auto pending = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < pending; ++i) {
    sched.schedule_after(static_cast<TimeNs>(i % 1024),
                         Churn{&sched, i, {}});
  }
  for (auto _ : state) benchmark::DoNotOptimize(sched.step());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerChurn)->Arg(1000)->Arg(10000)->Arg(100000);

// Full per-message cost of the control-plane transport on a clean channel:
// send + scheduled delivery + handler + ack + (no-op) retry timer — the
// events every Agent upload and Controller RPC pays.
void BM_TransportSendDeliver(benchmark::State& state) {
  sim::InlineScheduler sched;
  transport::ControlPlane cp(sched, Rng(9));
  std::uint64_t delivered = 0;
  transport::Channel& ch = cp.make_channel(
      "bench.ch",
      [&](std::uint64_t, std::any&) { ++delivered; });
  for (auto _ : state) {
    ch.send(std::any(std::uint64_t{1}));
    sched.run_all();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransportSendDeliver);

// Cost of a full peer outage cycle on a channel with traffic in flight:
// messages sent against a down peer retry on their (jittered) backoff
// through a 4 s outage, long enough to reach the 2 s cap; then the peer
// recovers, a fresh send joins them, and all nine are delivered and acked —
// the path every Agent upload channel takes through an Analyzer brownout.
void BM_TransportPeerOutage(benchmark::State& state) {
  constexpr TimeNs kOutage = sec(4);
  sim::InlineScheduler sched;
  transport::ControlPlane cp(sched, Rng(9));
  std::uint64_t delivered = 0;
  transport::Channel& ch = cp.make_channel(
      "bench.outage", [&](std::uint64_t, std::any&) { ++delivered; });
  for (auto _ : state) {
    ch.set_peer_down(true);
    for (int i = 0; i < 8; ++i) ch.send(std::any(std::uint64_t{1}));
    sched.run_until(sched.now() + kOutage);
    ch.set_peer_down(false);
    ch.send(std::any(std::uint64_t{2}));
    sched.run_all();  // every message acked: the retry timers go quiet
  }
  if (delivered != 9 * static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("a message was not delivered after the outage");
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * 9);
}
BENCHMARK(BM_TransportPeerOutage);

// Analyzer ingestion: range(0) records (spread over per-host batches)
// submitted through the Analyzer's sink, which folds each batch into the
// period's tables as it arrives, then one period close over those tables.
void BM_AnalyzerIngest(benchmark::State& state) {
  const topo::Topology topo = topo::build_clos(bench_clos());
  const routing::EcmpRouter router(topo);
  sim::InlineScheduler sched;
  core::Controller ctrl(topo, router);
  core::Analyzer analyzer(topo, ctrl, sched);

  const auto n_records = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBatch = 128;  // records per upload message
  core::ProbeRecord proto;
  proto.kind = core::ProbeKind::kTorMesh;
  proto.prober = RnicId{0};
  proto.target = RnicId{1};
  proto.prober_host = HostId{0};
  proto.status = core::ProbeStatus::kOk;
  proto.network_rtt = usec(5);

  std::uint64_t seq = 1;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<core::UploadBatch> batches;
    for (std::size_t done = 0; done < n_records; done += kBatch) {
      core::UploadBatch b;
      b.host = HostId{static_cast<std::uint32_t>(
          (done / kBatch) % topo.hosts().size())};
      b.seq = seq++;
      b.records.assign(std::min(kBatch, n_records - done), proto);
      batches.push_back(std::move(b));
    }
    state.ResumeTiming();
    for (core::UploadBatch& b : batches) {
      analyzer.sink().submit(std::move(b));
    }
    benchmark::DoNotOptimize(analyzer.analyze_now());  // includes the close
  }
  state.SetItemsProcessed(state.iterations() * n_records);
}
BENCHMARK(BM_AnalyzerIngest)->Arg(10000)->Arg(100000);

// The Agent's per-probe hot path pays one begin_probe + ~7 record() calls.
// range(0) is the sampling rate in per-mille (0, 1, 1000); -1 benchmarks the
// recorder left disabled, which must collapse every call to a single branch
// (the <2% overhead budget of the observability layer).
void BM_FlightRecorderProbePath(benchmark::State& state) {
  obs::FlightRecorder rec;
  if (state.range(0) >= 0) {
    obs::FlightRecorderConfig cfg;
    cfg.sample_rate = static_cast<double>(state.range(0)) / 1000.0;
    cfg.capacity = 4096;
    rec.enable(cfg);
  }
  std::uint64_t id = 0;
  for (auto _ : state) {
    ++id;
    // Mirrors the real instrumentation: every per-event call site is guarded
    // by the cached sampling decision (ProbeRecord::flight_sampled /
    // Datagram::trace_id != 0), so unsampled probes pay only begin_probe.
    const bool sampled = rec.begin_probe(id, "tor-mesh", id);
    if (sampled) {
      rec.record(id, obs::ProbeEventKind::kVerbsPost);
      rec.record(id, obs::ProbeEventKind::kSendCqe, id);
      rec.record(id, obs::ProbeEventKind::kHop, 1, 2);
      rec.record(id, obs::ProbeEventKind::kHop, 2, 2);
      rec.record(id, obs::ProbeEventKind::kResponderRecv, id);
      rec.record(id, obs::ProbeEventKind::kProberAckCqe, id);
      rec.record(id, obs::ProbeEventKind::kCompleted, 5000, 8000);
    }
    benchmark::DoNotOptimize(sampled);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecorderProbePath)->Arg(-1)->Arg(0)->Arg(1)->Arg(1000);

// The instrumented hot paths above pay one of these per event; the increment
// must stay in the low nanoseconds (one plain add through a cached handle)
// for the telemetry layer to be free. ClobberMemory keeps the compiler from
// folding the loop's adds into one.
void BM_TelemetryCounterInc(benchmark::State& state) {
  telemetry::MetricsRegistry reg;
  const telemetry::Counter c =
      reg.counter("bench_counter_total", "bench", {{"host", "0"}});
  for (auto _ : state) {
    c.inc();
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_TelemetryCounterInc);

void BM_TelemetryHistogramObserve(benchmark::State& state) {
  telemetry::MetricsRegistry reg;
  const telemetry::Histogram h =
      reg.histogram("bench_rtt_ns", "bench", {{"host", "0"}});
  double v = 1000.0;
  for (auto _ : state) {
    v += 17.0;
    if (v > 1e6) v = 1000.0;
    h.observe(v);
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_TelemetryHistogramObserve);

// The Analyzer's record walk pays one of these per completed probe and
// table: a responder delay (integer ns, 2-8 us) into a sketch whose dense
// range already covers it, so an add is one logarithm and an increment.
void BM_QuantileSketchAdd(benchmark::State& state) {
  sketch::QuantileSketch s;
  s.add(2000.0);
  s.add(8000.0);
  double v = 2000.0;
  for (auto _ : state) {
    s.add(v);
    v = v >= 8000.0 ? 2000.0 : v + 1.0;
  }
  benchmark::DoNotOptimize(s.count());
}
BENCHMARK(BM_QuantileSketchAdd);

// Cold path: get-or-create lookup by (name, labels) — what a component pays
// once at construction, never per event.
void BM_TelemetryCounterLookup(benchmark::State& state) {
  telemetry::MetricsRegistry reg;
  reg.counter("bench_lookup_total", "bench", {{"host", "42"}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reg.counter("bench_lookup_total", "bench", {{"host", "42"}}));
  }
}
BENCHMARK(BM_TelemetryCounterLookup);

void BM_TelemetrySnapshotExport(benchmark::State& state) {
  telemetry::MetricsRegistry reg;
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < n; ++i) {
    reg.counter("bench_series_total", "bench", {{"id", std::to_string(i)}})
        .inc(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(telemetry::to_prometheus(reg.snapshot()));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TelemetrySnapshotExport)->Arg(100)->Arg(1000);

// Standalone ingest-throughput measurement behind `--ingest-json[=PATH]`:
// 100k records per period in 128-record batches over 64 hosts, submitted
// through an Analyzer's sink and closed, since a bare IngestSink keeps
// nothing. Written as BENCH_ingest.json — events/sec over submit plus close,
// and the period's wire-byte volume — so re-anchors can see the ingest perf
// curve without running the whole google-benchmark suite.
int write_ingest_json(const std::string& path) {
  constexpr std::size_t kRecords = 100000;
  constexpr std::size_t kBatch = 128;

  core::ProbeRecord proto;
  proto.kind = core::ProbeKind::kTorMesh;
  proto.prober = RnicId{0};
  proto.target = RnicId{1};
  proto.prober_host = HostId{0};
  proto.status = core::ProbeStatus::kOk;
  proto.network_rtt = usec(5);

  const auto make_batches = [&](std::uint64_t& seq) {
    std::vector<core::UploadBatch> batches;
    for (std::size_t done = 0; done < kRecords; done += kBatch) {
      core::UploadBatch b;
      b.host = HostId{static_cast<std::uint32_t>((done / kBatch) % 64)};
      b.seq = seq++;
      b.records.assign(std::min(kBatch, kRecords - done), proto);
      batches.push_back(std::move(b));
    }
    return batches;
  };

  std::uint64_t seq = 1;
  std::size_t period_bytes = 0;
  for (const core::UploadBatch& b : make_batches(seq)) {
    period_bytes += core::upload_batch_wire_bytes(b);
  }

  bench::BenchJson out;
  out.bench = "ingest";
  out.params = [&](json::Writer& w) {
    w.key("records_per_period").integer(kRecords)
        .key("batch").integer(kBatch)
        .key("hosts").integer(64);
  };
  const topo::Topology topo = topo::build_clos(bench_clos());  // 64 hosts
  const routing::EcmpRouter router(topo);
  sim::InlineScheduler sched;
  core::Controller ctrl(topo, router);
  core::Analyzer analyzer(topo, ctrl, sched);
  const auto period = [&] {
    for (core::UploadBatch& b : make_batches(seq)) {
      analyzer.sink().submit(std::move(b));
    }
    analyzer.analyze_now();
  };
  // Warm-up period, then three measured periods.
  period();
  const auto t0 = std::chrono::steady_clock::now();
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) period();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double events_per_sec = static_cast<double>(kRecords * kReps) / secs;
  out.metrics = [&](json::Writer& w) {
    w.key("bytes_per_period").integer(period_bytes)
        .key("events_per_sec").fixed(events_per_sec, 0);
  };

  if (!out.write_file(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s: %s\n", path.c_str(), out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace rpm

int main(int argc, char** argv) {
  // --ingest-json[=PATH] short-circuits into the direct ingest measurement;
  // everything else is standard BENCHMARK_MAIN behavior.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ingest-json") return rpm::write_ingest_json("BENCH_ingest.json");
    if (arg.rfind("--ingest-json=", 0) == 0) {
      return rpm::write_ingest_json(arg.substr(std::strlen("--ingest-json=")));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
