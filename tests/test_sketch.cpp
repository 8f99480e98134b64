// Unit tests for src/sketch: quantile-sketch determinism (merge order and
// sharding invariance, canonical serialization), quantile error bounds,
// HostSummary merge algebra, and a small end-to-end check that
// sketch_mode=on thins the record volume an Analyzer processes without
// adding a control-plane channel.
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/types.h"
#include "core/rpingmesh.h"
#include "host/cluster.h"
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

TEST(SketchE2E, SketchModeThinsAnalyzerRecordVolume) {
  // Same small cluster, same seed, 60 simulated seconds: sketch_mode=on must
  // process far fewer raw records per period than off while still counting
  // every probe in the SLA table. Folding happens inside the Agents' upload
  // path, so both modes wire the same control-plane channels.
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
      std::size_t channels = 0;
    } out;
    out.channels = cluster.control_plane().num_channels();
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
  EXPECT_GT(off.channels, 0u);
  EXPECT_EQ(on.channels, off.channels);
}

}  // namespace
}  // namespace rpm::sketch
