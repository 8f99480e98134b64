// Unit tests for src/sketch: quantile-sketch determinism (merge order and
// sharding invariance, canonical serialization, a decoder that rejects what
// encode() cannot write), quantile error bounds against the exact nearest
// rank, HostSummary merge algebra, and a small end-to-end check that
// sketch_mode=on thins the record volume an Analyzer processes without
// adding a control-plane channel.
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/codec.h"
#include "common/stats.h"
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

  // Seeded mutants: every truncation, every single-bit flip, and random
  // trailing bytes. Each one either throws or decodes to a sketch that
  // encodes back to exactly the bytes it consumed.
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const auto check = [&](const std::vector<std::uint8_t>& m) {
    std::size_t at = 0;
    try {
      const QuantileSketch d = QuantileSketch::decode(m, at);
      EXPECT_EQ(bytes_of(d), std::vector<std::uint8_t>(
                                 m.begin(), m.begin() + static_cast<long>(at)));
      ++accepted;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  };
  for (std::size_t len = 0; len < buf.size(); ++len) {
    check(std::vector<std::uint8_t>(buf.begin(),
                                    buf.begin() + static_cast<long>(len)));
  }
  for (std::size_t bit = 0; bit < buf.size() * 8; ++bit) {
    std::vector<std::uint8_t> m = buf;
    m[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    check(m);
  }
  std::mt19937_64 gen(29);
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<std::uint8_t> m = buf;
    const std::size_t extra = 1 + gen() % 16;
    for (std::size_t k = 0; k < extra; ++k) {
      m.push_back(static_cast<std::uint8_t>(gen()));
    }
    check(m);
  }
  EXPECT_GT(accepted, 32u);  // the trailing-byte mutants at least
  EXPECT_GT(rejected, buf.size());
}

TEST(QuantileSketch, DecodeRejectsEntriesEncodeCannotWrite) {
  // (index, count) entries after a count / zero-count header.
  const auto encoding =
      [](std::uint64_t count,
         const std::vector<std::pair<std::uint32_t, std::uint64_t>>& entries) {
        std::vector<std::uint8_t> out;
        codec::put_u64(out, count);
        codec::put_u64(out, 0);
        codec::put_u32(out, static_cast<std::uint32_t>(entries.size()));
        for (const auto& [i, n] : entries) {
          codec::put_u32(out, i);
          codec::put_u64(out, n);
        }
        return out;
      };
  const auto decodes = [](const std::vector<std::uint8_t>& in) {
    std::size_t off = 0;
    (void)QuantileSketch::decode(in, off);
  };
  EXPECT_NO_THROW(decodes(encoding(3, {{10, 1}, {12, 2}})));
  // An index no finite positive double reaches: the dense store would
  // otherwise span up to 2^32 buckets.
  EXPECT_THROW(decodes(encoding(1, {{0x7fffffffu, 1}})), std::runtime_error);
  EXPECT_THROW(decodes(encoding(2, {{10, 1}, {0x7fffffffu, 1}})),
               std::runtime_error);
  EXPECT_THROW(decodes(encoding(1, {{0x80000000u, 1}})), std::runtime_error);
  EXPECT_THROW(decodes(encoding(0, {{10, 0}})), std::runtime_error);
  EXPECT_THROW(decodes(encoding(2, {{10, 1}, {10, 1}})), std::runtime_error);
  EXPECT_THROW(decodes(encoding(2, {{12, 1}, {10, 1}})), std::runtime_error);
  EXPECT_THROW(decodes(encoding(4, {{10, 1}, {12, 2}})), std::runtime_error);
  EXPECT_THROW(decodes(encoding(1, {{10, ~0ull}, {12, 2}})),
               std::runtime_error);

  // The extreme finite doubles, +inf included, land in accepted buckets.
  QuantileSketch edges;
  edges.add(std::numeric_limits<double>::denorm_min());
  edges.add(std::numeric_limits<double>::max());
  edges.add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(edges.num_buckets(), 2u);
  std::size_t off = 0;
  const std::vector<std::uint8_t> buf = bytes_of(edges);
  EXPECT_EQ(bytes_of(QuantileSketch::decode(buf, off)), buf);
}

TEST(QuantileSketch, QuantileErrorWithinRelativeAccuracyBound) {
  // The truth is PercentileWindow's exact sample of nearest rank q*(n-1),
  // the rank the sketch takes too. Three samples tell the ranks apart: p90
  // is the sample of rank 1.8, which rounds to 3000 (a floor would take
  // 2000).
  std::mt19937_64 gen(3);
  std::lognormal_distribution<double> dist(10.0, 1.5);
  std::vector<double> lognormal;
  for (int i = 0; i < 20000; ++i) lognormal.push_back(dist(gen));
  for (const std::vector<double>& samples :
       {lognormal, std::vector<double>{1000.0, 2000.0, 3000.0}}) {
    QuantileSketch s;
    PercentileWindow exact;
    for (const double v : samples) {
      s.add(v);
      exact.add(v);
    }
    for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const double truth = exact.percentile(q);
      // Fixed-boundary DDSketch guarantee: relative error <= a (plus a
      // hair of slack for the bucket's representative value).
      EXPECT_NEAR(s.quantile(q), truth,
                  truth * 1.01 * QuantileSketch::kRelativeAccuracy)
          << "q=" << q << " n=" << samples.size();
    }
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
