// Tests for the pipeline wall-clock stage profiler (src/prof):
//
//  * disabled path is one branch — nothing reaches the buffer;
//  * every enable() starts from an empty profile;
//  * the period-close watchdog fires at the configured budget, bumps
//    rpm_prof_budget_overruns_total, and puts a "budget-overrun" instant
//    naming the top-cost stage on the profiler's own pid-3 track;
//  * the repo invariant: a chaos campaign with the profiler fully enabled
//    (scheduler hook included) emits byte-identical ChaosReport JSON to the
//    same campaign with the profiler off — wall time never leaks into sim
//    decisions — and two profiled same-seed runs dump byte-identical flight
//    records;
//  * rpm_prof_stage_* metrics appear in the Prometheus scrape while the
//    profiler is enabled and vanish after disable();
//  * chrome_events() produces pid-3 tracks that sim.dispatch cannot crowd
//    out.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "chaos/chaos.h"
#include "common/json.h"
#include "core/rpingmesh.h"
#include "faults/faults.h"
#include "host/cluster.h"
#include "obs/flight_recorder.h"
#include "prof/prof.h"
#include "sim/scheduler.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "topo/topology.h"

namespace rpm {
namespace {

using prof::PeriodCloseScope;
using prof::ProfileReport;
using prof::Profiler;
using prof::profiler;
using prof::Stage;
using prof::StageScope;

/// Every test leaves the process-wide profiler and recorder off.
class ProfTest : public ::testing::Test {
 protected:
  ~ProfTest() override {
    profiler().disable();
    obs::recorder().disable();
  }
};

TEST_F(ProfTest, StageNamesAreDotted) {
  EXPECT_STREQ(prof::stage_name(Stage::kSimDispatch), "sim.dispatch");
  EXPECT_STREQ(prof::stage_name(Stage::kIngestSubmit), "ingest.submit");
  EXPECT_STREQ(prof::stage_name(Stage::kDrainTriage), "drain.triage");
  EXPECT_STREQ(prof::stage_name(Stage::kDrainVote), "drain.vote");
  EXPECT_STREQ(prof::stage_name(Stage::kDrainBottleneck), "drain.bottleneck");
  EXPECT_STREQ(prof::stage_name(Stage::kDrainSla), "drain.sla");
  EXPECT_STREQ(prof::stage_name(Stage::kDrainImpact), "drain.impact");
  EXPECT_STREQ(prof::stage_name(Stage::kDrainDiaglog), "drain.diaglog");
  EXPECT_STREQ(prof::stage_name(Stage::kDigestFlush), "digest.flush");
  EXPECT_STREQ(prof::stage_name(Stage::kGlobalMerge), "global.merge");
  EXPECT_STREQ(prof::stage_name(Stage::kTransportDeliver),
               "transport.deliver");
  EXPECT_STREQ(prof::stage_name(Stage::kSketchFlush), "sketch.flush");
  EXPECT_STREQ(prof::stage_name(Stage::kPeriodClose), "period.close");
}

TEST_F(ProfTest, DisabledPathAllocatesNothing) {
  profiler().disable();
  // A fresh enable() empties the buffer; disable() keeps it readable, so
  // whatever we observe below is attributable to this test.
  profiler().enable();
  profiler().disable();

  // Scopes and direct records while disabled must not touch the buffer.
  for (int i = 0; i < 1000; ++i) {
    StageScope scope(Stage::kIngestSubmit);
    profiler().record(Stage::kDrainVote, 123);
  }
  { PeriodCloseScope close_scope; }
  EXPECT_EQ(profiler().chrome_events(), "[]");
  EXPECT_EQ(profiler().last_period_close().seq, 0u);
  const ProfileReport rep = profiler().report();
  for (std::size_t i = 0; i < prof::kNumStages; ++i) {
    EXPECT_EQ(rep.stages[i].count, 0u);
  }
}

TEST_F(ProfTest, RecordFoldsCountTotalMinMax) {
  profiler().enable();
  profiler().record(Stage::kDrainVote, 100);
  profiler().record(Stage::kDrainVote, 300);
  profiler().record(Stage::kDrainVote, 200);
  profiler().disable();

  const ProfileReport rep = profiler().report();
  const prof::StageStats& st = rep.stage(Stage::kDrainVote);
  EXPECT_EQ(st.count, 3u);
  EXPECT_EQ(st.total_ns, 600u);
  EXPECT_EQ(st.min_ns, 100u);
  EXPECT_EQ(st.max_ns, 300u);
  // DDSketch 1% relative accuracy around the true median of 200.
  EXPECT_NEAR(st.p50_ns(), 200.0, 200.0 * 0.02);

  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"stage\":\"drain.vote\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"budget_overruns\":0"), std::string::npos);
  // A repeated report() is byte-stable.
  EXPECT_EQ(profiler().report().to_json(), json);
}

TEST_F(ProfTest, WatchdogFiresAtConfiguredBudget) {
  obs::FlightRecorderConfig fcfg;
  fcfg.sample_rate = 0.0;  // markers only
  obs::recorder().enable(fcfg);

  prof::ProfilerConfig cfg;
  cfg.period_close_budget = 1;  // 1 ns: any real close overruns
  profiler().enable(cfg);
  // The registry's overrun series is process-global and never reset, so
  // the close below must add exactly one to whatever it already reads.
  const auto overruns_scraped = [] {
    const telemetry::Snapshot snap = telemetry::registry().snapshot();
    const telemetry::SeriesSample* s =
        snap.find("rpm_prof_budget_overruns_total");
    return s == nullptr ? 0 : s->counter_value;
  };
  const auto scraped_before = overruns_scraped();
  {
    PeriodCloseScope close_scope;
    // Make drain.sla unambiguously the top-cost stage of this close.
    profiler().record(Stage::kDrainSla, 50'000'000);
    profiler().record(Stage::kDrainVote, 10);
  }
  EXPECT_EQ(profiler().budget_overruns(), 1u);
  const prof::PeriodCloseInfo close = profiler().last_period_close();
  EXPECT_EQ(close.seq, 1u);
  EXPECT_TRUE(close.overrun);
  EXPECT_GT(close.wall_ns, 0u);
  EXPECT_EQ(close.top_stage, Stage::kDrainSla);

  // The overrun is a thread-scoped instant on the profiler's own track,
  // carrying the close's wall ns and top-cost stage; the sim-time flight
  // recorder gets nothing.
  const json::Value events = json::Value::parse(profiler().chrome_events());
  const json::Value* overrun = nullptr;
  for (const json::Value& e : events.as_array()) {
    if (e.get_string("name") == "budget-overrun") overrun = &e;
  }
  ASSERT_NE(overrun, nullptr);
  EXPECT_EQ(overrun->get_int("pid"), 3);
  EXPECT_EQ(overrun->get_string("ph"), "i");
  EXPECT_EQ(overrun->get_string("s"), "t");
  ASSERT_NE(overrun->find("args"), nullptr);
  EXPECT_EQ(overrun->find("args")->get_int("wall_ns"),
            static_cast<std::int64_t>(close.wall_ns));
  EXPECT_EQ(overrun->find("args")->get_string("top_stage"), "drain.sla");
  EXPECT_TRUE(obs::recorder().markers().empty());

  // Registry sees the overrun counter.
  EXPECT_EQ(overruns_scraped(), scraped_before + 1);

  // A generous budget does not fire.
  cfg.period_close_budget = sec(30);
  profiler().enable(cfg);
  {
    PeriodCloseScope close_scope;
    profiler().record(Stage::kDrainVote, 10);
  }
  EXPECT_EQ(profiler().budget_overruns(), 0u);
  EXPECT_FALSE(profiler().last_period_close().overrun);
}

TEST_F(ProfTest, EnableStartsFromAnEmptyProfile) {
  // Fill every part of the buffer: stage samples, a trace that overflows
  // its cap, and a watchdog overrun.
  prof::ProfilerConfig cfg;
  cfg.max_trace_events = 2;
  cfg.period_close_budget = 1;  // 1 ns: any real close overruns
  profiler().enable(cfg);
  profiler().record(Stage::kIngestSubmit, 10);
  profiler().record(Stage::kSimDispatch, 20);
  profiler().record(Stage::kDrainVote, 30);
  profiler().record(Stage::kGlobalMerge, 40);
  {
    PeriodCloseScope close_scope;
    profiler().record(Stage::kDrainSla, 50);
  }
  const ProfileReport full = profiler().report();
  ASSERT_GT(full.trace_events_dropped, 0u);
  ASSERT_EQ(profiler().budget_overruns(), 1u);
  ASSERT_EQ(profiler().last_period_close().seq, 1u);
  ASSERT_NE(profiler().chrome_events(), "[]");

  profiler().enable(cfg);
  const ProfileReport rep = profiler().report();
  for (std::size_t i = 0; i < prof::kNumStages; ++i) {
    EXPECT_EQ(rep.stages[i].count, 0u) << prof::stage_name(Stage(i));
    EXPECT_EQ(rep.stages[i].total_ns, 0u) << prof::stage_name(Stage(i));
    EXPECT_TRUE(rep.stages[i].sketch.empty()) << prof::stage_name(Stage(i));
  }
  EXPECT_EQ(rep.trace_events_dropped, 0u);
  EXPECT_EQ(profiler().budget_overruns(), 0u);
  EXPECT_EQ(profiler().last_period_close().seq, 0u);
  EXPECT_EQ(profiler().chrome_events(), "[]");
}

TEST_F(ProfTest, MetricsAppearWhileEnabledAndVanishAfterDisable) {
  profiler().enable();
  profiler().record(Stage::kGlobalMerge, 4242);
  const std::string prom =
      telemetry::to_prometheus(telemetry::registry().snapshot());
  EXPECT_NE(prom.find("rpm_prof_stage_count{stage=\"global.merge\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("rpm_prof_stage_total_ns{stage=\"global.merge\"} 4242"),
            std::string::npos);
  EXPECT_NE(prom.find("rpm_prof_stage_p99_ns{stage=\"global.merge\"}"),
            std::string::npos);

  profiler().disable();
  const std::string after =
      telemetry::to_prometheus(telemetry::registry().snapshot());
  // The collector is gone; no fresh stage series are exported. (The series
  // written while enabled persist in the registry by design — collectors
  // only add.) A never-observed stage never appears.
  EXPECT_EQ(after.find("rpm_prof_stage_count{stage=\"sim.dispatch\"}"),
            std::string::npos);
}

TEST_F(ProfTest, ChromeEventsEmitPid3Tracks) {
  profiler().enable();
  {
    StageScope scope(Stage::kTransportDeliver);
  }
  profiler().disable();
  const std::string events = profiler().chrome_events();
  EXPECT_NE(events.find("\"name\":\"transport.deliver\""), std::string::npos);
  EXPECT_NE(events.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(events.find("\"ph\":\"X\""), std::string::npos);

  // Trace capture can be disabled independently of the stats.
  prof::ProfilerConfig cfg;
  cfg.max_trace_events = 0;
  profiler().enable(cfg);
  {
    StageScope scope(Stage::kTransportDeliver);
  }
  profiler().disable();
  EXPECT_EQ(profiler().chrome_events(), "[]");
  EXPECT_EQ(profiler().report().stage(Stage::kTransportDeliver).count, 1u);

  // Overflow is counted, not kept.
  cfg.max_trace_events = 2;
  profiler().enable(cfg);
  for (int i = 0; i < 5; ++i) profiler().record(Stage::kDrainVote, 10);
  profiler().disable();
  EXPECT_EQ(profiler().report().trace_events_dropped, 3u);

  // sim.dispatch feeds the stats only: a flood of dispatch samples neither
  // fills the track nor hides the period close that follows it.
  cfg.max_trace_events = 4096;
  profiler().enable(cfg);
  for (int i = 0; i < 5000; ++i) profiler().record(Stage::kSimDispatch, 10);
  profiler().record(Stage::kPeriodClose, 1000);
  profiler().disable();
  const std::string flood = profiler().chrome_events();
  EXPECT_NE(flood.find("\"name\":\"period.close\""), std::string::npos);
  EXPECT_EQ(flood.find("\"name\":\"sim.dispatch\""), std::string::npos);
  EXPECT_EQ(profiler().report().stage(Stage::kSimDispatch).count, 5000u);
  EXPECT_EQ(profiler().report().trace_events_dropped, 0u);
}

TEST_F(ProfTest, SchedulerDispatchHookRecordsAndDetaches) {
  sim::InlineScheduler sched;
  profiler().attach_scheduler(sched);
  profiler().enable();
  int fired = 0;
  sched.schedule_after(10, [&] { ++fired; });
  sched.schedule_after(20, [&] { ++fired; });
  sched.run_until(100);
  profiler().disable();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(profiler().report().stage(Stage::kSimDispatch).count, 2u);

  Profiler::detach_scheduler(sched);
  profiler().enable();
  sched.schedule_after(10, [&] { ++fired; });
  sched.run_until(200);
  profiler().disable();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(profiler().report().stage(Stage::kSimDispatch).count, 0u);
}

// ---- the repo invariant: profiler on vs off, byte-identical output ----

topo::ClosConfig clos_cfg() {
  topo::ClosConfig cfg;
  cfg.num_pods = 4;
  cfg.tors_per_pod = 2;
  cfg.aggs_per_pod = 2;
  cfg.spines_per_plane = 2;
  cfg.hosts_per_tor = 1;
  cfg.rnics_per_host = 2;
  cfg.host_link.capacity_gbps = 100.0;
  cfg.fabric_link.capacity_gbps = 100.0;
  return cfg;
}

/// One full chaos campaign (federated, standby Controller) with the
/// profiler in the given state; returns the deterministic ChaosReport JSON.
/// With `flight`, the flight recorder samples the run and `*flight` gets its
/// dump.
std::string campaign_report(bool profiler_on, std::string* flight = nullptr) {
  host::ClusterConfig ccfg;
  ccfg.seed = 7;
  host::Cluster cluster(topo::build_clos(clos_cfg()), ccfg);
  if (flight != nullptr) {
    obs::FlightRecorderConfig fcfg;
    fcfg.sample_rate = 0.05;
    obs::recorder().enable(fcfg, [&cluster] {
      return cluster.scheduler().now();
    });
  }

  core::RPingmeshConfig rcfg;
  rcfg.analyzer.period = sec(5);
  rcfg.federation.pods = 2;
  rcfg.federation.standby_controller = true;
  core::RPingmesh rpm(cluster, rcfg);
  faults::FaultInjector injector(cluster);
  rpm.start();

  if (profiler_on) {
    prof::ProfilerConfig cfg;
    cfg.period_close_budget = 1;  // watchdog fires constantly: max stress
    profiler().enable(cfg);
    profiler().attach_scheduler(cluster.scheduler());
  }

  chaos::ChaosPlan plan;
  plan.seed = 7;
  plan.duration = sec(60);
  plan.controller_crash(sec(22));
  plan.controller_restart(sec(33));
  LinkId fabric_link{};
  for (const topo::Link& l : cluster.topology().links()) {
    if (l.from.is_switch() && l.to.is_switch()) {
      fabric_link = l.id;
      break;
    }
  }
  plan.inject(sec(40), "fabric-corruption",
              faults::FaultSpec::corruption(fabric_link, 0.5));

  chaos::ChaosRunner runner(cluster, rpm, injector);
  const std::string report = runner.run(plan).to_json();

  if (profiler_on) {
    // The run must actually have been profiled for the comparison to mean
    // anything.
    const ProfileReport rep = profiler().report();
    EXPECT_GT(rep.stage(Stage::kSimDispatch).count, 0u);
    EXPECT_GT(rep.stage(Stage::kIngestSubmit).count, 0u);
    EXPECT_GT(rep.stage(Stage::kDrainTriage).count, 0u);
    EXPECT_GT(rep.stage(Stage::kPeriodClose).count, 0u);
    EXPECT_GT(rep.stage(Stage::kTransportDeliver).count, 0u);
    EXPECT_GT(rep.stage(Stage::kDigestFlush).count, 0u);
    EXPECT_GT(rep.stage(Stage::kGlobalMerge).count, 0u);
    EXPECT_GT(profiler().budget_overruns(), 0u);
    profiler().disable();
    Profiler::detach_scheduler(cluster.scheduler());
  }
  if (flight != nullptr) {
    *flight = obs::recorder().to_json();
    obs::recorder().disable();
  }
  return report;
}

TEST_F(ProfTest, ProfilerOnVsOffByteIdenticalChaosReport) {
  const std::string off = campaign_report(false);
  const std::string on = campaign_report(true);
  EXPECT_EQ(off, on) << "wall-clock profiling leaked into sim decisions";
}

TEST_F(ProfTest, ProfiledSameSeedRunsDumpIdenticalFlightRecords) {
  // The watchdog fires on every close, yet wall time stays on the
  // profiler's own track: the sim-time record of two runs is the same.
  std::string first;
  std::string second;
  (void)campaign_report(true, &first);
  (void)campaign_report(true, &second);
  EXPECT_NE(first.find("\"markers\""), std::string::npos);
  EXPECT_NE(first.find("\"probe_id\""), std::string::npos);
  EXPECT_TRUE(first == second) << "wall time leaked into the flight recorder";
}

}  // namespace
}  // namespace rpm
