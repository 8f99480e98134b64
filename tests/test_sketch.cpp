// Unit tests for src/sketch: quantile-sketch determinism (merge order and
// sharding invariance, canonical serialization), quantile error bounds,
// LinkSketch/HostSummary merge algebra, the bank's flush contract, the
// store's (exporter, seq) dedup, the exporter's flush cadence and delivery
// through an outage, and a small end-to-end check that sketch_mode=on
// actually thins the record volume an Analyzer processes.
#include <any>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/types.h"
#include "core/rpingmesh.h"
#include "host/cluster.h"
#include "sim/scheduler.h"
#include "sketch/exporter.h"
#include "sketch/sketch.h"
#include "topo/topology.h"
#include "transport/transport.h"

namespace rpm::sketch {
namespace {

std::vector<std::uint8_t> bytes_of(const QuantileSketch& s) {
  std::vector<std::uint8_t> out;
  s.encode(out);
  return out;
}

TEST(QuantileSketch, MergeIsOrderAndShardingInvariant) {
  // The same sample set, accumulated three ways: one sketch, two shards
  // merged A+B, two shards merged B+A — byte-identical encodings all around.
  std::mt19937_64 gen(7);
  std::uniform_real_distribution<double> dist(1.0, 1e7);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(dist(gen));

  QuantileSketch all;
  QuantileSketch a;
  QuantileSketch b;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    all.add(samples[i]);
    (i % 2 == 0 ? a : b).add(samples[i]);
  }
  QuantileSketch ab = a;
  ab.merge(b);
  QuantileSketch ba = b;
  ba.merge(a);

  EXPECT_EQ(bytes_of(ab), bytes_of(all));
  EXPECT_EQ(bytes_of(ba), bytes_of(all));
  EXPECT_EQ(ab.count(), all.count());
  EXPECT_DOUBLE_EQ(ab.sum(), ba.sum());
}

TEST(QuantileSketch, ManyWayShardingMatchesSingleSketch) {
  // 8 shards, merged in shard-index order, equal the single-accumulator
  // sketch.
  std::mt19937_64 gen(11);
  std::uniform_real_distribution<double> dist(100.0, 1e6);
  QuantileSketch all;
  std::vector<QuantileSketch> shards(8);
  for (int i = 0; i < 4096; ++i) {
    const double v = dist(gen);
    all.add(v);
    shards[static_cast<std::size_t>(i) % shards.size()].add(v);
  }
  QuantileSketch merged;
  for (const QuantileSketch& s : shards) merged.merge(s);
  EXPECT_EQ(bytes_of(merged), bytes_of(all));
}

TEST(QuantileSketch, SerializationRoundTripsExactly) {
  QuantileSketch s;
  s.add(0.0);        // zero bucket
  s.add(-5.0);       // also zero bucket (non-positive)
  s.add(123.456, 3);
  s.add(1e9);
  std::vector<std::uint8_t> buf;
  s.encode(buf);
  EXPECT_EQ(buf.size(), s.serialized_bytes());

  std::size_t off = 0;
  const QuantileSketch back = QuantileSketch::decode(buf, off);
  EXPECT_EQ(off, buf.size());
  EXPECT_EQ(bytes_of(back), buf);
  EXPECT_EQ(back.count(), s.count());
  EXPECT_DOUBLE_EQ(back.sum(), s.sum());
  EXPECT_DOUBLE_EQ(back.quantile(0.5), s.quantile(0.5));

  // Truncation is an error, not a garbage sketch.
  std::vector<std::uint8_t> cut(buf.begin(), buf.end() - 1);
  off = 0;
  EXPECT_THROW(QuantileSketch::decode(cut, off), std::runtime_error);
}

TEST(QuantileSketch, QuantileErrorWithinRelativeAccuracyBound) {
  std::mt19937_64 gen(3);
  std::lognormal_distribution<double> dist(10.0, 1.5);
  std::vector<double> samples;
  QuantileSketch s;
  for (int i = 0; i < 20000; ++i) {
    const double v = dist(gen);
    samples.push_back(v);
    s.add(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double truth =
        samples[static_cast<std::size_t>(q * (samples.size() - 1))];
    const double got = s.quantile(q);
    // Fixed-boundary DDSketch guarantee: relative error <= a (plus a hair of
    // slack for the discrete target index).
    EXPECT_NEAR(got, truth, truth * 2.0 * QuantileSketch::kRelativeAccuracy)
        << "q=" << q;
  }
}

TEST(LinkSketch, MergeIsCommutative) {
  LinkSketch a;
  a.pkts = 10;
  a.bytes = 1000;
  a.ecn_sum = 0.25;
  a.drops[2] = 3;
  a.hop_delay_ns.add(500.0);
  LinkSketch b;
  b.pkts = 5;
  b.bytes = 700;
  b.drops[2] = 1;
  b.drops[5] = 4;
  b.hop_delay_ns.add(900.0);
  b.queue_bytes.add(4096.0);

  LinkSketch ab = a;
  ab.merge(b);
  LinkSketch ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.pkts, 15u);
  EXPECT_EQ(ab.bytes, 1700u);
  EXPECT_EQ(ab.total_drops(), 8u);
  EXPECT_EQ(ba.pkts, ab.pkts);
  EXPECT_EQ(ba.total_drops(), ab.total_drops());
  EXPECT_DOUBLE_EQ(ba.ecn_sum, ab.ecn_sum);
  EXPECT_EQ(bytes_of(ba.hop_delay_ns), bytes_of(ab.hop_delay_ns));
  EXPECT_FALSE(ab.empty());
  EXPECT_TRUE(LinkSketch{}.empty());
}

TEST(HostSummary, MergeAggregatesAllComponents) {
  HostSummary a;
  a.folded_records = 2;
  a.tormesh_ok[{1, 2}] = 2;
  a.ok_delay_by_target[2].add(1000.0, 2);
  a.rtt.add(5000.0, 2);
  HostSummary b;
  b.folded_records = 3;
  b.tormesh_ok[{1, 2}] = 1;
  b.tormesh_ok[{3, 4}] = 2;
  b.ok_delay_by_target[2].add(2000.0);
  b.ok_delay_by_target[4].add(1500.0, 2);
  b.rtt.add(7000.0, 3);

  HostSummary ab = a;
  ab.merge(b);
  EXPECT_EQ(ab.folded_records, 5u);
  EXPECT_EQ((ab.tormesh_ok[{1, 2}]), 3u);
  EXPECT_EQ((ab.tormesh_ok[{3, 4}]), 2u);
  EXPECT_EQ(ab.ok_delay_by_target[2].count(), 3u);
  EXPECT_EQ(ab.rtt.count(), 5u);
  EXPECT_GT(ab.serialized_bytes(), 0u);
  EXPECT_TRUE(HostSummary{}.empty());
  EXPECT_FALSE(ab.empty());
}

TEST(LinkSketchBank, FlushReturnsNonEmptySortedAndClears) {
  LinkSketchBank bank(8);
  bank.on_forward(5, 100, 2000, 0, 0.0);
  bank.on_forward(1, 200, 3000, 512, 0.5);
  bank.on_drop(3, 2);
  EXPECT_EQ(bank.updates(), 3u);

  const auto flushed = bank.flush();
  ASSERT_EQ(flushed.size(), 3u);
  EXPECT_EQ(flushed[0].first, 1u);  // ascending link order
  EXPECT_EQ(flushed[1].first, 3u);
  EXPECT_EQ(flushed[2].first, 5u);
  EXPECT_EQ(flushed[1].second.total_drops(), 1u);
  EXPECT_EQ(flushed[2].second.pkts, 1u);

  EXPECT_TRUE(bank.flush().empty());  // drained
}

TEST(SketchStore, DeduplicatesByExporterAndSeq) {
  SketchStore store;
  const auto make_report = [](std::uint64_t seq) {
    SketchReport rep;
    rep.exporter = 1;
    rep.seq = seq;
    LinkSketch ls;
    ls.pkts = 1;
    ls.bytes = 100;
    rep.links.emplace_back(7u, ls);
    return rep;
  };
  EXPECT_TRUE(store.ingest(make_report(1)));
  EXPECT_TRUE(store.ingest(make_report(2)));
  EXPECT_FALSE(store.ingest(make_report(1)));  // retried delivery
  EXPECT_EQ(store.reports_merged(), 2u);
  EXPECT_EQ(store.duplicates(), 1u);

  const auto links = store.drain_period();
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links.at(7).pkts, 2u);
  EXPECT_TRUE(store.drain_period().empty());  // period state cleared
  // Dedup state survives the drain.
  EXPECT_FALSE(store.ingest(make_report(2)));
}

TEST(SketchExporter, FlushesPeriodicallyAndRetriesThroughOutage) {
  sim::InlineScheduler sched;
  transport::ChannelConfig cc;
  cc.base_latency = usec(50);
  cc.latency_jitter = 0;
  cc.retry_jitter = 0;
  transport::ControlPlane cp(sched, Rng(42), cc);
  SketchStore store;
  transport::Channel& ch =
      cp.make_channel("sketch/test", [&](std::uint64_t, std::any& p) {
        if (auto* rep = std::any_cast<SketchReport>(&p)) {
          store.ingest(std::move(*rep));
        }
      });
  LinkSketchBank bank(4);
  SketchExporter exp(sched, ch, bank);  // flushes every 5 s
  exp.start();

  // Two periods of traffic: two reports, both delivered and merged.
  bank.on_forward(0, 100, 1000, 0, 0.0);
  sched.run_until(sec(6));
  bank.on_forward(1, 100, 1000, 0, 0.0);
  sched.run_until(sec(11));
  EXPECT_EQ(exp.reports_sent(), 2u);
  EXPECT_EQ(store.reports_merged(), 2u);
  EXPECT_EQ(ch.in_flight(), 0u);

  // An empty period flushes nothing.
  sched.run_until(sec(16));
  EXPECT_EQ(exp.reports_sent(), 2u);

  // Outage: the channel keeps retrying the report it cannot deliver...
  ch.set_peer_down(true);
  bank.on_forward(2, 100, 1000, 0, 0.0);
  sched.run_until(sec(60));
  EXPECT_EQ(ch.in_flight(), 1u);
  EXPECT_EQ(ch.counters().expired, 0u);
  const std::uint64_t merged_before = store.reports_merged();

  // ...and delivers it, and the next period's, once the peer is back.
  ch.set_peer_down(false);
  bank.on_forward(3, 100, 1000, 0, 0.0);
  sched.run_until(sec(90));
  EXPECT_EQ(ch.in_flight(), 0u);
  EXPECT_EQ(store.reports_merged(), merged_before + 2);
  EXPECT_EQ(store.duplicates(), 0u);
  EXPECT_EQ(ch.counters().dropped, 0u);

  exp.stop();
  EXPECT_FALSE(exp.running());
}

TEST(SketchExporter, StopCountsEachAbandonedReportOnce) {
  // The transport counts the reports stop() abandons; the exporter must not
  // count them again.
  sim::InlineScheduler sched;
  transport::ControlPlane cp(sched, Rng(42), transport::ChannelConfig{});
  transport::Channel& ch =
      cp.make_channel("sketch/test", [](std::uint64_t, std::any&) {});
  LinkSketchBank bank(4);
  SketchExporter exp(sched, ch, bank);
  exp.start();
  ch.set_peer_down(true);
  bank.on_forward(0, 100, 1000, 0, 0.0);
  exp.flush_now();
  ASSERT_EQ(exp.reports_sent(), 1u);
  exp.stop();
  EXPECT_EQ(ch.counters().dropped, 1u);
}

TEST(SketchE2E, SketchModeThinsAnalyzerRecordVolume) {
  // Same small cluster, same seed, 60 simulated seconds: sketch_mode=on must
  // process far fewer raw records per period than off while still counting
  // every probe in the SLA table.
  const auto run = [](core::SketchMode mode) {
    topo::ClosConfig tc;
    tc.num_pods = 1;
    tc.tors_per_pod = 2;
    tc.aggs_per_pod = 2;
    tc.spines_per_plane = 1;
    tc.hosts_per_tor = 2;
    tc.rnics_per_host = 2;
    host::Cluster cluster(topo::build_clos(tc), [] {
      host::ClusterConfig c;
      c.seed = 21;
      return c;
    }());
    core::RPingmeshConfig rc;
    rc.analyzer.period = sec(20);
    rc.analyzer.sketch_mode = mode;
    core::RPingmesh rpm(cluster, rc);
    rpm.start();
    cluster.run_for(sec(60));
    struct Out {
      std::size_t records = 0;
      std::size_t sla_probes = 0;
    } out;
    for (const core::PeriodReport& rep : rpm.analyzer().history()) {
      out.records += rep.records_processed;
      out.sla_probes += rep.cluster_sla.probes;
    }
    return out;
  };
  const auto off = run(core::SketchMode::kOff);
  const auto on = run(core::SketchMode::kOn);
  ASSERT_GT(off.records, 0u);
  // The healthy steady state folds nearly everything.
  EXPECT_LT(on.records * 10, off.records)
      << "on=" << on.records << " off=" << off.records;
  // ...but the SLA probe population is preserved (folded records counted).
  EXPECT_EQ(on.sla_probes, off.sla_probes);
}

}  // namespace
}  // namespace rpm::sketch
