// Tests for the pipeline wall-clock stage profiler (src/prof):
//
//  * disabled path is one branch — no thread buffer is ever allocated;
//  * per-thread folds are deterministic: the same samples recorded from
//    many threads and from one thread produce byte-identical reports;
//  * the period-close watchdog fires at the configured budget, bumps
//    rpm_prof_budget_overruns_total, and drops a "budget-overrun" flight-
//    recorder marker naming the top-cost stage;
//  * the repo invariant: a chaos campaign with the profiler fully enabled
//    (scheduler hook included) emits byte-identical ChaosReport JSON to the
//    same campaign with the profiler off — wall time never leaks into sim
//    decisions;
//  * rpm_prof_stage_* metrics appear in the Prometheus scrape while the
//    profiler is enabled and vanish after disable();
//  * chrome_events() produces pid-3 tracks that sim.dispatch cannot crowd
//    out.
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/chaos.h"
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
  EXPECT_STREQ(prof::stage_name(Stage::kDrainSla), "drain.sla");
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
  // A fresh enable() resets the buffer registry; disable() keeps it
  // readable, so the count we observe below is attributable to this test.
  profiler().enable();
  profiler().disable();
  ASSERT_EQ(profiler().num_thread_buffers(), 0u);

  // Scopes and direct records while disabled must not touch any buffer.
  for (int i = 0; i < 1000; ++i) {
    StageScope scope(Stage::kIngestSubmit);
    profiler().record(Stage::kDrainVote, 123);
  }
  { PeriodCloseScope close_scope; }
  EXPECT_EQ(profiler().num_thread_buffers(), 0u);
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
  EXPECT_EQ(profiler().num_thread_buffers(), 1u);

  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"stage\":\"drain.vote\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"budget_overruns\":0"), std::string::npos);
}

TEST_F(ProfTest, MultiThreadFoldMatchesSingleThreadByteForByte) {
  // Same multiset of samples: 4 threads x 256 samples vs 1 thread x 1024.
  const auto sample = [](int i) {
    return static_cast<std::uint64_t>(1000 + (i * 37) % 5000);
  };

  profiler().enable();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t, &sample] {
      for (int i = 0; i < 256; ++i) {
        profiler().record(Stage::kIngestSubmit, sample(t * 256 + i));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  profiler().disable();
  EXPECT_EQ(profiler().num_thread_buffers(), 4u);
  const std::string multi = profiler().report().to_json();

  profiler().enable();
  for (int i = 0; i < 1024; ++i) {
    profiler().record(Stage::kIngestSubmit, sample(i));
  }
  profiler().disable();
  EXPECT_EQ(profiler().num_thread_buffers(), 1u);
  const std::string single = profiler().report().to_json();

  EXPECT_EQ(multi, single);
  // And the fold itself is stable across repeated reads.
  EXPECT_EQ(profiler().report().to_json(), single);
}

TEST_F(ProfTest, WatchdogFiresAtConfiguredBudget) {
  obs::FlightRecorderConfig fcfg;
  fcfg.sample_rate = 0.0;  // markers only
  obs::recorder().enable(fcfg);

  prof::ProfilerConfig cfg;
  cfg.period_close_budget = 1;  // 1 ns: any real close overruns
  profiler().enable(cfg);
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

  // Both markers landed: the always-on period-close and the overrun.
  ASSERT_EQ(obs::recorder().markers().size(), 2u);
  const obs::Marker& pc = obs::recorder().markers()[0];
  const obs::Marker& ov = obs::recorder().markers()[1];
  EXPECT_STREQ(pc.name, "period-close");
  EXPECT_STREQ(ov.name, "budget-overrun");
  EXPECT_EQ(ov.a, close.wall_ns);
  EXPECT_EQ(ov.b, static_cast<std::uint64_t>(Stage::kDrainSla));
  EXPECT_NE(obs::recorder().to_json().find("budget-overrun"),
            std::string::npos);

  // Registry sees the overrun counter.
  const telemetry::Snapshot snap = telemetry::registry().snapshot();
  const telemetry::SeriesSample* s =
      snap.find("rpm_prof_budget_overruns_total");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->counter_value, 1u);

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
  EXPECT_EQ(profiler().chrome_events(), "");
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
std::string campaign_report(bool profiler_on) {
  host::ClusterConfig ccfg;
  ccfg.seed = 7;
  host::Cluster cluster(topo::build_clos(clos_cfg()), ccfg);

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
  return report;
}

TEST_F(ProfTest, ProfilerOnVsOffByteIdenticalChaosReport) {
  const std::string off = campaign_report(false);
  const std::string on = campaign_report(true);
  EXPECT_EQ(off, on) << "wall-clock profiling leaked into sim decisions";
}

}  // namespace
}  // namespace rpm
