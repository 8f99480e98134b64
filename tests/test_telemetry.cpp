// Tests for the self-observability subsystem: MetricsRegistry lifecycle,
// label deduplication, histogram percentiles, deterministic Prometheus
// golden output, and the PeriodicDumper scrape loop.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/scheduler.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"

namespace rpm::telemetry {
namespace {

// ---- registry lifecycle ----

TEST(MetricsRegistry, CounterRoundTrip) {
  MetricsRegistry reg;
  Counter c = reg.counter("t_events_total", "events");
  EXPECT_TRUE(c.valid());
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(reg.num_series(), 1u);
}

TEST(MetricsRegistry, DefaultHandlesAreInertNotCrashy) {
  Counter c;
  Gauge g;
  Histogram h;
  EXPECT_FALSE(c.valid());
  c.inc();
  g.set(1.0);
  h.observe(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsRegistry, ResetDropsEverything) {
  MetricsRegistry reg;
  reg.counter("t_a_total", "a").inc();
  reg.gauge("t_b", "b").set(1);
  const int id = reg.add_collector([](MetricsRegistry&) {});
  (void)id;
  EXPECT_EQ(reg.num_series(), 2u);
  EXPECT_EQ(reg.num_collectors(), 1u);
  reg.reset();
  EXPECT_EQ(reg.num_series(), 0u);
  EXPECT_EQ(reg.num_collectors(), 0u);
}

TEST(MetricsRegistry, EmptyNameThrows) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter("", "x"), std::invalid_argument);
}

TEST(MetricsRegistry, TypeMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("t_thing", "x");
  EXPECT_THROW(reg.gauge("t_thing", "x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("t_thing", "x"), std::invalid_argument);
}

// ---- label dedup ----

TEST(MetricsRegistry, SameLabelsDifferentOrderShareOneSeries) {
  MetricsRegistry reg;
  Counter a =
      reg.counter("t_req_total", "req", {{"host", "3"}, {"kind", "mesh"}});
  Counter b =
      reg.counter("t_req_total", "req", {{"kind", "mesh"}, {"host", "3"}});
  a.inc();
  b.inc();
  EXPECT_EQ(a.value(), 2u);
  EXPECT_EQ(b.value(), 2u);
  EXPECT_EQ(reg.num_series(), 1u);
}

TEST(MetricsRegistry, DistinctLabelValuesGetDistinctSeries) {
  MetricsRegistry reg;
  reg.counter("t_req_total", "req", {{"host", "0"}}).inc(1);
  reg.counter("t_req_total", "req", {{"host", "1"}}).inc(2);
  EXPECT_EQ(reg.num_series(), 2u);
  const Snapshot snap = reg.snapshot();
  const SeriesSample* s0 = snap.find("t_req_total", {{"host", "0"}});
  const SeriesSample* s1 = snap.find("t_req_total", {{"host", "1"}});
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s0->counter_value, 1u);
  EXPECT_EQ(s1->counter_value, 2u);
  EXPECT_DOUBLE_EQ(snap.sum("t_req_total"), 3.0);
  EXPECT_DOUBLE_EQ(snap.sum("t_req_total", {{"host", "1"}}), 2.0);
}

// ---- histogram percentiles ----

TEST(MetricsRegistry, HistogramPercentilesTrackDistribution) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("t_rtt_ns", "rtt");
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.sum(), 500'500.0);
  // QuantileSketch buckets are 1% wide; allow 2%.
  EXPECT_NEAR(h.percentile(0.50), 500.0, 10.0);
  EXPECT_NEAR(h.percentile(0.99), 990.0, 19.8);
  const Snapshot snap = reg.snapshot();
  const SeriesSample* s = snap.find("t_rtt_ns");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->hist_count, 1000u);
  EXPECT_NEAR(s->hist_p50, 500.0, 10.0);
  EXPECT_GE(s->hist_p999, s->hist_p50);
}

// ---- collectors ----

TEST(MetricsRegistry, CollectorRunsAtSnapshotTime) {
  MetricsRegistry reg;
  int calls = 0;
  {
    CollectorGuard guard(reg, [&calls](MetricsRegistry& r) {
      ++calls;
      r.gauge("t_depth", "depth").set(7.0);
    });
    EXPECT_EQ(reg.num_collectors(), 1u);
    const Snapshot snap = reg.snapshot();
    EXPECT_EQ(calls, 1);
    const SeriesSample* s = snap.find("t_depth");
    ASSERT_NE(s, nullptr);
    EXPECT_DOUBLE_EQ(s->gauge_value, 7.0);
  }
  // Guard out of scope: unregistered, further snapshots don't call it.
  EXPECT_EQ(reg.num_collectors(), 0u);
  (void)reg.snapshot();
  EXPECT_EQ(calls, 1);
}

// ---- golden exporter output ----

MetricsRegistry& golden_registry(MetricsRegistry& reg) {
  reg.counter("t_requests_total", "Requests handled",
              {{"kind", "b"}, {"host", "0"}})
      .inc(3);
  reg.counter("t_requests_total", "Requests handled",
              {{"host", "1"}, {"kind", "a"}})
      .inc(7);
  reg.gauge("t_queue_depth", "Current queue depth").set(2.5);
  return reg;
}

TEST(Export, PrometheusGolden) {
  MetricsRegistry reg;
  const std::string text = to_prometheus(golden_registry(reg).snapshot());
  EXPECT_EQ(text,
            "# HELP t_queue_depth Current queue depth\n"
            "# TYPE t_queue_depth gauge\n"
            "t_queue_depth 2.5\n"
            "# HELP t_requests_total Requests handled\n"
            "# TYPE t_requests_total counter\n"
            "t_requests_total{host=\"0\",kind=\"b\"} 3\n"
            "t_requests_total{host=\"1\",kind=\"a\"} 7\n");
}

TEST(Export, HistogramRendersAsSummary) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("t_lat_ns", "latency", {{"stage", "classify"}});
  for (int i = 0; i < 100; ++i) h.observe(1000.0);
  const std::string text = to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# TYPE t_lat_ns summary\n"), std::string::npos);
  EXPECT_NE(text.find("t_lat_ns{stage=\"classify\",quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("t_lat_ns{stage=\"classify\",quantile=\"0.999\"} "),
            std::string::npos);
  EXPECT_NE(text.find("t_lat_ns_sum{stage=\"classify\"} 100000\n"),
            std::string::npos);
  EXPECT_NE(text.find("t_lat_ns_count{stage=\"classify\"} 100\n"),
            std::string::npos);
}

TEST(Export, HistogramCountSumSurviveTextRoundTrip) {
  // The standard summary series must round-trip through the text format:
  // every histogram's `<name>_count`/`<name>_sum` line, parsed back out of
  // to_prometheus(), equals the snapshot's hist_count/hist_sum exactly.
  // This is what downstream scrapers (and the BENCH_*.json validators)
  // rely on — the quantile lines are approximations, these two are not.
  MetricsRegistry reg;
  Histogram a = reg.histogram("rt_lat_ns", "latency", {{"stage", "vote"}});
  Histogram b = reg.histogram("rt_lat_ns", "latency", {{"stage", "sla"}});
  Histogram c = reg.histogram("rt_close_ns", "close cost");
  for (int i = 1; i <= 1000; ++i) a.observe(static_cast<double>(i));
  b.observe(0.5);
  b.observe(2.25);
  c.observe(1e9);

  const Snapshot snap = reg.snapshot();
  const std::string text = to_prometheus(snap);

  // Parse "<series> <value>\n" lines back into a map.
  const auto parse_value = [&text](const std::string& series) {
    const std::string needle = series + ' ';
    const std::size_t pos = text.find(needle);
    EXPECT_NE(pos, std::string::npos) << series;
    if (pos == std::string::npos) return std::string();
    const std::size_t eol = text.find('\n', pos);
    return text.substr(pos + needle.size(), eol - pos - needle.size());
  };

  for (const SeriesSample& s : snap.series) {
    if (s.type != MetricType::kHistogram) continue;
    std::string labels;
    if (!s.labels.empty()) {
      labels = "{";
      for (const Label& l : s.labels) {
        if (labels.size() > 1) labels += ',';
        labels += l.key + "=\"" + l.value + '"';
      }
      labels += '}';
    }
    EXPECT_EQ(parse_value(s.name + "_count" + labels),
              std::to_string(s.hist_count))
        << s.name << labels;
    EXPECT_EQ(std::stod(parse_value(s.name + "_sum" + labels)), s.hist_sum)
        << s.name << labels;
  }
  // Ground truth for the parse itself.
  EXPECT_EQ(parse_value("rt_lat_ns_count{stage=\"vote\"}"), "1000");
  EXPECT_EQ(parse_value("rt_lat_ns_count{stage=\"sla\"}"), "2");
  EXPECT_EQ(std::stod(parse_value("rt_lat_ns_sum{stage=\"sla\"}")), 2.75);
  EXPECT_EQ(parse_value("rt_close_ns_count"), "1");
}

TEST(Export, SurvivabilityMetricsRoundTrip) {
  // The five metric families the control-plane survivability layer emits
  // (src/core agent + controller, src/transport) must survive the exporter
  // intact: a counter pair, a depth gauge, a registration gauge, and the
  // reconnect-backoff histogram (rendered as a summary).
  MetricsRegistry reg;
  reg.counter("rpm_agent_lease_expired_total", "Controller leases lost",
              {{"host", "1"}})
      .inc(2);
  reg.counter("rpm_agent_reregistrations_total",
              "Re-registrations after a lost lease", {{"host", "1"}})
      .inc();
  reg.gauge("rpm_transport_queue_depth", "Unacked in-flight messages",
            {{"channel", "upload/h1"}})
      .set(3);
  reg.gauge("rpm_controller_registered_agents",
            "Hosts with a live registration lease")
      .set(16);
  Histogram h = reg.histogram("rpm_agent_reconnect_backoff_delay_ns",
                              "Backoff before re-registration attempts",
                              {{"host", "1"}});
  h.observe(5e8);
  h.observe(1e9);

  const Snapshot snap = reg.snapshot();
  const std::string prom = to_prometheus(snap);
  EXPECT_NE(prom.find("rpm_agent_lease_expired_total{host=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("rpm_agent_reregistrations_total{host=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("rpm_transport_queue_depth{channel=\"upload/h1\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("rpm_controller_registered_agents 16\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE rpm_agent_reconnect_backoff_delay_ns summary"),
            std::string::npos);
  EXPECT_NE(
      prom.find("rpm_agent_reconnect_backoff_delay_ns_count{host=\"1\"} 2\n"),
      std::string::npos);
}

TEST(Export, PrometheusEscapesHostileLabelValues) {
  // A label value is free text (file paths, service names, summaries): the
  // exposition format requires \, ", and newline escaped, or one hostile
  // value corrupts the whole scrape.
  MetricsRegistry reg;
  reg.counter("t_hostile_total", "Help with \\ backslash\nand newline",
              {{"path", "C:\\temp\n\"quoted\""}})
      .inc();
  const std::string text = to_prometheus(reg.snapshot());
  EXPECT_NE(
      text.find("t_hostile_total{path=\"C:\\\\temp\\n\\\"quoted\\\"\"} 1\n"),
      std::string::npos)
      << text;
  // HELP text escapes backslash and newline (quotes stay literal there).
  EXPECT_NE(
      text.find("# HELP t_hostile_total Help with \\\\ backslash\\nand "
                "newline\n"),
      std::string::npos)
      << text;
  // No raw newline survives inside any line: every '\n' starts a full
  // "name...", "# ..." or empty-tail line.
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    EXPECT_TRUE(line[0] == '#' || line.rfind("t_hostile_total", 0) == 0)
        << "corrupted line: " << line;
  }
}

TEST(Export, HelpAndTypeEmittedOncePerFamily) {
  MetricsRegistry reg;
  reg.counter("t_family_total", "fam", {{"id", "0"}}).inc();
  reg.counter("t_family_total", "fam", {{"id", "1"}}).inc(2);
  reg.counter("t_family_total", "fam", {{"id", "2"}}).inc(3);
  const std::string text = to_prometheus(reg.snapshot());
  const auto count = [&text](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("# HELP t_family_total"), 1u);
  EXPECT_EQ(count("# TYPE t_family_total"), 1u);
  EXPECT_EQ(count("t_family_total{id="), 3u);
}

TEST(Export, DeterministicAcrossIdenticalRegistries) {
  MetricsRegistry a;
  MetricsRegistry b;
  EXPECT_EQ(to_prometheus(golden_registry(a).snapshot()),
            to_prometheus(golden_registry(b).snapshot()));
}

// ---- periodic dumper on the sim clock ----

TEST(Export, PeriodicDumperFollowsSimClock) {
  sim::InlineScheduler sched;
  MetricsRegistry reg;
  Counter ticks = reg.counter("t_ticks_total", "ticks");
  std::vector<std::string> dumps;
  PeriodicDumper dumper(
      sched, sec(1), [&dumps](const std::string& text) {
        dumps.push_back(text);
      },
      &reg);
  dumper.start(sec(1));
  ticks.inc(5);
  sched.run_until(sec(3));
  EXPECT_EQ(dumper.dumps(), 3u);
  ASSERT_EQ(dumps.size(), 3u);
  EXPECT_NE(dumps.back().find("t_ticks_total 5\n"), std::string::npos);
  dumper.stop();
  sched.run_until(sec(10));
  EXPECT_EQ(dumper.dumps(), 3u);
}

}  // namespace
}  // namespace rpm::telemetry
