// Tests of src/obs: flight-recorder sampling/eviction/correlation semantics,
// the marker track, the chrome://tracing document, diagnosis evidence-chain
// lookup and rendering, and end-to-end recorder behavior under injected
// faults (anomalous RNIC + degraded control plane).
#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "core/rpingmesh.h"
#include "faults/faults.h"
#include "obs/chrome_trace.h"
#include "obs/diagnosis.h"
#include "obs/flight_recorder.h"
#include "prof/prof.h"
#include "telemetry/metrics.h"

namespace rpm {
namespace {

using obs::FlightRecorder;
using obs::FlightRecorderConfig;
using obs::ProbeEventKind;
using obs::ProbeTimeline;

FlightRecorderConfig sample_all(std::size_t capacity = 64) {
  FlightRecorderConfig cfg;
  cfg.sample_rate = 1.0;
  cfg.capacity = capacity;
  return cfg;
}

// ---- recorder unit tests (local instances; the global stays untouched) ----

TEST(FlightRecorderTest, DisabledRecorderIsInert) {
  FlightRecorder rec;
  EXPECT_FALSE(rec.enabled());
  EXPECT_FALSE(rec.begin_probe(1, "tor-mesh", 100));
  rec.record(1, ProbeEventKind::kSendCqe, 42);
  rec.bind_batch(0, 7, {1});
  rec.batch_event(0, 7, ProbeEventKind::kTransportAttempt, 1);
  rec.unbind_batch(0, 7);
  EXPECT_EQ(rec.probes_seen(), 0u);
  EXPECT_EQ(rec.probes_sampled(), 0u);
  EXPECT_EQ(rec.live_timelines(), 0u);
  EXPECT_EQ(rec.timeline(1), nullptr);
  EXPECT_FALSE(rec.tracking(1));
}

TEST(FlightRecorderTest, SamplingIsDeterministicAcrossEnables) {
  FlightRecorderConfig cfg;
  cfg.sample_rate = 0.3;
  cfg.capacity = 256;
  FlightRecorder rec;
  rec.enable(cfg);
  std::vector<bool> first;
  for (std::uint64_t id = 1; id <= 200; ++id) {
    first.push_back(rec.begin_probe(id, "tor-mesh"));
  }
  // Re-enabling resets the sampling Rng: the same decisions replay.
  rec.enable(cfg);
  for (std::uint64_t id = 1; id <= 200; ++id) {
    EXPECT_EQ(rec.begin_probe(id, "tor-mesh"), first[id - 1]) << id;
  }
  // A 30% rate over 200 draws lands strictly between the endpoints.
  const auto hits = std::count(first.begin(), first.end(), true);
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, 200);
}

TEST(FlightRecorderTest, SampleRateEndpoints) {
  FlightRecorder rec;
  FlightRecorderConfig cfg;
  cfg.sample_rate = 0.0;
  rec.enable(cfg);
  for (std::uint64_t id = 1; id <= 50; ++id) {
    EXPECT_FALSE(rec.begin_probe(id, "x"));
  }
  EXPECT_EQ(rec.probes_seen(), 50u);
  EXPECT_EQ(rec.probes_sampled(), 0u);

  cfg.sample_rate = 1.0;
  rec.enable(cfg);
  for (std::uint64_t id = 1; id <= 50; ++id) {
    EXPECT_TRUE(rec.begin_probe(id, "x"));
  }
  EXPECT_EQ(rec.probes_sampled(), 50u);
  EXPECT_EQ(rec.live_timelines(), 50u);
}

TEST(FlightRecorderTest, RingEvictsOldestTimeline) {
  FlightRecorder rec;
  rec.enable(sample_all(/*capacity=*/2));
  rec.begin_probe(1, "a");
  rec.begin_probe(2, "b");
  rec.begin_probe(3, "c");  // evicts probe 1
  EXPECT_EQ(rec.evicted(), 1u);
  EXPECT_EQ(rec.timeline(1), nullptr);
  ASSERT_NE(rec.timeline(2), nullptr);
  ASSERT_NE(rec.timeline(3), nullptr);
  rec.record(1, ProbeEventKind::kCompleted);  // evicted id: ignored
  const auto tls = rec.timelines();
  ASSERT_EQ(tls.size(), 2u);
  EXPECT_EQ(tls[0]->probe_id, 2u);  // oldest first
  EXPECT_EQ(tls[1]->probe_id, 3u);
}

TEST(FlightRecorderTest, PerProbeEventCapDropsExcess) {
  FlightRecorder rec;
  FlightRecorderConfig cfg = sample_all();
  cfg.max_events_per_probe = 3;
  rec.enable(cfg);
  rec.begin_probe(9, "a");  // event 1: kEnqueued
  for (std::uint64_t i = 0; i < 5; ++i) {
    rec.record(9, ProbeEventKind::kHop, i);
  }
  ASSERT_NE(rec.timeline(9), nullptr);
  EXPECT_EQ(rec.timeline(9)->events.size(), 3u);
  EXPECT_EQ(rec.dropped_events(), 3u);
}

TEST(FlightRecorderTest, FallbackClockStampsMonotonically) {
  FlightRecorder rec;
  rec.enable(sample_all());  // no clock installed: deterministic tick
  rec.begin_probe(1, "a", /*t1=*/123);
  rec.record(1, ProbeEventKind::kVerbsPost);
  rec.record(1, ProbeEventKind::kSendCqe, 456);
  const ProbeTimeline* tl = rec.timeline(1);
  ASSERT_NE(tl, nullptr);
  ASSERT_EQ(tl->events.size(), 3u);
  EXPECT_EQ(tl->events[0].kind, ProbeEventKind::kEnqueued);
  EXPECT_EQ(tl->events[0].a, 123u);
  EXPECT_LT(tl->events[0].t, tl->events[1].t);
  EXPECT_LT(tl->events[1].t, tl->events[2].t);
  EXPECT_FALSE(tl->closed());
  rec.record(1, ProbeEventKind::kCompleted, 5000, 8000);
  EXPECT_TRUE(tl->closed());
}

TEST(FlightRecorderTest, BatchEventsFanOutToBoundTimelines) {
  FlightRecorder rec;
  rec.enable(sample_all());
  rec.begin_probe(1, "a");
  rec.begin_probe(2, "a");
  rec.begin_probe(3, "a");
  rec.bind_batch(/*owner_tag=*/0, /*chan_seq=*/41, {1, 2});
  rec.batch_event(0, 41, ProbeEventKind::kTransportAttempt, 1);
  EXPECT_NE(rec.timeline(1)->find(ProbeEventKind::kTransportAttempt), nullptr);
  EXPECT_NE(rec.timeline(2)->find(ProbeEventKind::kTransportAttempt), nullptr);
  EXPECT_EQ(rec.timeline(3)->find(ProbeEventKind::kTransportAttempt), nullptr);
  rec.unbind_batch(0, 41);
  rec.batch_event(0, 41, ProbeEventKind::kTransportAttempt, 2);  // no-op
  std::size_t attempts = 0;
  for (const auto& e : rec.timeline(1)->events) {
    if (e.kind == ProbeEventKind::kTransportAttempt) ++attempts;
  }
  EXPECT_EQ(attempts, 1u);
}

TEST(FlightRecorderTest, JsonAndChromeRenderings) {
  FlightRecorder rec;
  rec.enable(sample_all());
  rec.begin_probe(7, "tor-mesh", 123);
  rec.record(7, ProbeEventKind::kSendCqe, 456);
  rec.record(7, ProbeEventKind::kCompleted, 5000, 8000);
  const std::string json = rec.to_json();
  EXPECT_NE(json.find("\"probe_id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"agent-enqueue\""), std::string::npos);
  EXPECT_NE(json.find("\"closed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"probes_sampled\":1"), std::string::npos);
  const std::string chrome = rec.chrome_events();
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(chrome.find("\"probe_id\":7"), std::string::npos);
}

TEST(FlightRecorderTest, MarkersUseRecorderClockAndNeverDrawFromSampling) {
  FlightRecorderConfig cfg;
  cfg.sample_rate = 0.3;
  cfg.capacity = 256;
  FlightRecorder plain;
  plain.enable(cfg);
  TimeNs now = 0;
  FlightRecorder marked;
  marked.enable(cfg, [&now] { return now; });
  for (std::uint64_t id = 1; id <= 200; ++id) {
    now = static_cast<TimeNs>(id) * 1000;
    marked.marker("period-close", id, 2 * id);
    EXPECT_EQ(marked.begin_probe(id, "tor-mesh"),
              plain.begin_probe(id, "tor-mesh"))
        << id;
  }
  ASSERT_EQ(marked.markers().size(), 200u);
  const obs::Marker& m = marked.markers().back();
  EXPECT_EQ(m.t, 200'000);
  EXPECT_STREQ(m.name, "period-close");
  EXPECT_EQ(m.a, 200u);
  EXPECT_EQ(m.b, 400u);
}

TEST(FlightRecorderTest, MarkerFifoDropsOldestPastCap) {
  FlightRecorderConfig cfg = sample_all();
  cfg.max_markers = 2;
  FlightRecorder rec;
  rec.enable(cfg);
  rec.marker("first");
  rec.marker("second");
  rec.marker("third");
  ASSERT_EQ(rec.markers().size(), 2u);
  EXPECT_STREQ(rec.markers()[0].name, "second");
  EXPECT_STREQ(rec.markers()[1].name, "third");
}

TEST(FlightRecorderTest, ChromeTraceJoinsMarkersProbesAndStages) {
  FlightRecorder rec;
  rec.enable(sample_all());
  rec.marker("say \"hi\"\t", 3, 1);
  rec.begin_probe(7, "tor-mesh", 123);
  rec.record(7, ProbeEventKind::kCompleted, 5000, 8000);
  prof::Profiler& p = prof::profiler();
  p.enable();
  p.record(prof::Stage::kPeriodClose, 1000);
  p.disable();

  const json::Value doc = json::Value::parse(
      obs::chrome_trace({rec.chrome_events(), p.chrome_events()}));
  EXPECT_EQ(doc.get_string("displayTimeUnit"), "ms");
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  std::set<std::int64_t> pids;
  for (const json::Value& e : doc.find("traceEvents")->as_array()) {
    pids.insert(e.get_int("pid"));
    if (e.get_int("pid") != 1) continue;
    // Markers are global instants carrying their a/b payload.
    EXPECT_EQ(e.get_string("name"), "say \"hi\"\t");
    EXPECT_EQ(e.get_string("ph"), "i");
    EXPECT_EQ(e.get_string("s"), "g");
    EXPECT_EQ(e.find("dur"), nullptr);
    ASSERT_NE(e.find("args"), nullptr);
    EXPECT_EQ(e.find("args")->get_int("a"), 3);
    EXPECT_EQ(e.find("args")->get_int("b"), 1);
  }
  EXPECT_EQ(pids, (std::set<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(obs::chrome_trace({"", ""}),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

// ---- diagnosis evidence chains ----

TEST(DiagnosisLogTest, FindAndJsonRendering) {
  obs::DiagnosisLog log;
  obs::EvidenceChain c;
  c.id = 11;
  c.problem_id = 3;
  c.verdict = "switch-network-problem";
  c.triage_branch = "switch attribution";
  c.probe_ids = {100, 101};
  c.total_probes = 2;
  c.link_votes.push_back({5, 7});
  c.thresholds.push_back({"min_anomalies_for_problem", 3.0, 7.0, true});
  log.chains.push_back(std::move(c));
  ASSERT_NE(log.find(11), nullptr);
  EXPECT_EQ(log.find(11)->problem_id, 3u);
  EXPECT_EQ(log.find(12), nullptr);
  ASSERT_NE(log.find_problem(3), nullptr);
  EXPECT_EQ(log.find_problem(3)->id, 11u);
  EXPECT_EQ(log.find_problem(0), nullptr);
  const std::string j = obs::to_json(log);
  EXPECT_NE(j.find("\"probe_ids\":[100,101]"), std::string::npos);
  EXPECT_NE(j.find("\"link_votes\":[{\"id\":5,\"votes\":7}]"),
            std::string::npos);
  EXPECT_NE(j.find("\"exceeded\":true"), std::string::npos);
  EXPECT_NE(j.find("\"threshold\":3"), std::string::npos);
}

// ---- end-to-end: the recorder under faults ----

topo::ClosConfig clos_cfg() {
  topo::ClosConfig cfg;
  cfg.num_pods = 2;
  cfg.tors_per_pod = 2;
  cfg.aggs_per_pod = 2;
  cfg.spines_per_plane = 2;
  cfg.hosts_per_tor = 2;
  cfg.rnics_per_host = 2;
  return cfg;
}

// The built-in instrumentation writes to the process-wide recorder; leave
// it disabled for whoever runs after this test, pass or fail.
struct RecorderGuard {
  ~RecorderGuard() { obs::recorder().disable(); }
};

TEST(FlightRecorderE2E, FaultyRunYieldsCoherentTimelinesAndEvidence) {
  RecorderGuard guard;
  host::Cluster cluster(topo::build_clos(clos_cfg()));
  FlightRecorderConfig fcfg;
  fcfg.sample_rate = 1.0;
  fcfg.capacity = 1 << 15;
  obs::recorder().enable(
      fcfg, [&cluster]() -> TimeNs { return cluster.scheduler().now(); });

  core::RPingmesh rpm(cluster);
  rpm.start();
  cluster.run_for(sec(25));
  faults::FaultInjector inj(cluster);
  inj.inject_rnic_down(RnicId{5});
  inj.inject_control_plane_degradation(msec(5), 0.3);
  cluster.run_for(sec(21));

  auto& rec = obs::recorder();
  EXPECT_GT(rec.probes_sampled(), 0u);

  // Each injection left a marker on the recorder clock (b = 1: inject).
  std::vector<std::string> injected;
  for (const obs::Marker& m : rec.markers()) {
    if (m.b != 1) continue;
    injected.emplace_back(m.name);
    EXPECT_EQ(m.t, sec(25));
  }
  EXPECT_EQ(injected, (std::vector<std::string>{"rnic-down",
                                                "control-plane-degradation"}));

  // Every sampled timed-out probe terminates coherently: opens with the
  // Agent enqueue, never reports completion, events stamped in order.
  std::size_t timed_out = 0;
  for (const ProbeTimeline* tl : rec.timelines()) {
    if (tl->find(ProbeEventKind::kTimedOut) == nullptr) continue;
    ++timed_out;
    ASSERT_FALSE(tl->events.empty());
    EXPECT_EQ(tl->events.front().kind, ProbeEventKind::kEnqueued);
    EXPECT_EQ(tl->find(ProbeEventKind::kCompleted), nullptr);
    for (std::size_t i = 1; i < tl->events.size(); ++i) {
      EXPECT_LE(tl->events[i - 1].t, tl->events[i].t);
    }
  }
  EXPECT_GT(timed_out, 0u);

  // The RNIC verdict's evidence chain names probes the recorder kept.
  const core::PeriodReport* rep = rpm.analyzer().last_report();
  ASSERT_NE(rep, nullptr);
  const core::Problem* p = nullptr;
  for (const core::Problem& q : rep->problems) {
    if (q.category == core::ProblemCategory::kRnicProblem) p = &q;
  }
  ASSERT_NE(p, nullptr);
  ASSERT_TRUE(p->evidence.valid());
  const obs::EvidenceChain* chain = rpm.analyzer().evidence(p->evidence);
  ASSERT_NE(chain, nullptr);
  ASSERT_FALSE(chain->probe_ids.empty());
  std::size_t resolved = 0;
  for (std::uint64_t pid : chain->probe_ids) {
    if (rec.timeline(pid) != nullptr) ++resolved;
  }
  EXPECT_GT(resolved, 0u) << "explain() must name recorded probe ids";

  // explain() renders the same chain, receipts included.
  const std::string j = rpm.analyzer().explain(p->problem_id);
  ASSERT_FALSE(j.empty());
  EXPECT_NE(j.find(std::to_string(chain->probe_ids.front())),
            std::string::npos);
  EXPECT_NE(j.find("\"thresholds\":[{"), std::string::npos);
  rpm.stop();
}

TEST(FlightRecorderE2E, BrownoutRequeuesExpiredUploadsWithoutDoubleCount) {
  RecorderGuard guard;
  host::ClusterConfig ccfg;
  // Brownout: with 75% per-attempt loss a batch dies ~18% of the time
  // after max_attempts (0.75^6), while registrations and pinglist RPCs
  // mostly survive their retries — so Agents keep probing and uploading.
  ccfg.control_plane.loss_prob = 0.75;
  host::Cluster cluster(topo::build_clos(clos_cfg()), ccfg);
  FlightRecorderConfig fcfg;
  fcfg.sample_rate = 1.0;
  fcfg.capacity = 1 << 15;
  obs::recorder().enable(
      fcfg, [&cluster]() -> TimeNs { return cluster.scheduler().now(); });

  const telemetry::Snapshot before = telemetry::registry().snapshot();
  core::RPingmesh rpm(cluster);
  rpm.start();
  cluster.run_for(sec(90));

  const telemetry::Snapshot snap = telemetry::registry().snapshot();
  EXPECT_GT(snap.sum("rpm_agent_upload_requeues_total") -
                before.sum("rpm_agent_upload_requeues_total"),
            0.0);
  // Requeued batches reuse their original sequence number, so the Analyzer's
  // (host, seq) dedup counts each batch once no matter how often the Agent
  // re-sends it: duplicates may arrive, but every acceptance is unique.
  EXPECT_GT(snap.sum("rpm_analyzer_batches_total", {{"result", "accepted"}}),
            0.0);
  bool saw_requeued = false;
  for (const ProbeTimeline* tl : obs::recorder().timelines()) {
    if (tl->find(ProbeEventKind::kRequeued) != nullptr) saw_requeued = true;
  }
  EXPECT_TRUE(saw_requeued) << "no sampled timeline carries a requeue event";
  rpm.stop();
}

}  // namespace
}  // namespace rpm
