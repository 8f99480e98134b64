// Unit tests for src/common: ids, time helpers, 5-tuples, RNG, statistics,
// seq dedup, little-endian fields, the leveled logger.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "common/codec.h"
#include "common/dedup.h"
#include "common/five_tuple.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"

namespace rpm {
namespace {

TEST(Types, TimeHelpers) {
  EXPECT_EQ(usec(1), 1'000);
  EXPECT_EQ(msec(1), 1'000'000);
  EXPECT_EQ(sec(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(sec(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_usec(usec(7)), 7.0);
}

TEST(Types, IdsAreStronglyTyped) {
  const HostId h{3};
  const RnicId r{3};
  EXPECT_TRUE(h.valid());
  EXPECT_FALSE(HostId{}.valid());
  EXPECT_EQ(h, HostId{3});
  EXPECT_NE(h, HostId{4});
  // h == r must not compile; verified by the type system, not at runtime.
  static_assert(!std::is_same_v<HostId, RnicId>);
  (void)r;
}

TEST(Types, IdHashUsableInSets) {
  std::unordered_set<RnicId> s;
  s.insert(RnicId{1});
  s.insert(RnicId{1});
  s.insert(RnicId{2});
  EXPECT_EQ(s.size(), 2u);
}

TEST(Types, GbpsConversion) {
  EXPECT_DOUBLE_EQ(gbps_to_Bps(8.0), 1e9);
}

TEST(FiveTuple, DefaultsToRoceV2) {
  const FiveTuple t;
  EXPECT_EQ(t.dst_port, kRoceUdpPort);
  EXPECT_EQ(t.protocol, 17);
}

TEST(FiveTuple, EqualityAndHash) {
  FiveTuple a;
  a.src_ip = IpAddr{1};
  a.dst_ip = IpAddr{2};
  a.src_port = 1000;
  FiveTuple b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.stable_hash(), b.stable_hash());
  b.src_port = 1001;
  EXPECT_NE(a, b);
  EXPECT_NE(a.stable_hash(), b.stable_hash());
}

TEST(FiveTuple, HashSpreadsAcrossSourcePorts) {
  // ECMP quality depends on distinct source ports producing distinct hashes.
  FiveTuple t;
  t.src_ip = IpAddr{0x0A000001};
  t.dst_ip = IpAddr{0x0A000002};
  std::set<std::uint64_t> hashes;
  for (std::uint16_t p = 1000; p < 1256; ++p) {
    t.src_port = p;
    hashes.insert(t.stable_hash());
  }
  EXPECT_EQ(hashes.size(), 256u);
}

TEST(FiveTuple, ToStringFormat) {
  FiveTuple t;
  t.src_ip = IpAddr{0x0A000001};
  t.dst_ip = IpAddr{0x0A000002};
  t.src_port = 4242;
  EXPECT_EQ(t.to_string(), "10.0.0.1:4242->10.0.0.2:4791/p17");
}

TEST(Rng, Deterministic) {
  Rng a(5), b(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, UniformIntBounds) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
  EXPECT_THROW(r.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, ChanceEdgeCases) {
  Rng r(1);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
  EXPECT_FALSE(r.chance(-1.0));
  EXPECT_TRUE(r.chance(2.0));
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng r(99);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng r(7);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.3);
  EXPECT_THROW(r.exponential(0.0), std::invalid_argument);
}

TEST(Rng, ForkIndependentStreams) {
  Rng parent(3);
  Rng child = parent.fork();
  // Child diverges from parent.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    any_diff |= parent.uniform_int(0, 1 << 30) != child.uniform_int(0, 1 << 30);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  r.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(OnlineStats, Basics) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 6.0}) s.add(x);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(PercentileWindow, EmptyIsZero) {
  PercentileWindow w;
  EXPECT_DOUBLE_EQ(w.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
}

TEST(PercentileWindow, KnownQuantiles) {
  PercentileWindow w;
  for (int i = 1; i <= 100; ++i) w.add(i);
  EXPECT_NEAR(w.percentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(w.percentile(0.99), 99.0, 1.0);
  EXPECT_NEAR(w.percentile(0.0), 1.0, 0.5);
  EXPECT_NEAR(w.percentile(1.0), 100.0, 0.5);
  EXPECT_DOUBLE_EQ(w.mean(), 50.5);
}

TEST(LogHistogram, PercentilesWithinBucketError) {
  LogHistogram h(1.0, 1e9);
  for (int i = 1; i <= 10000; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 10000u);
  // 4% bucket resolution.
  EXPECT_NEAR(h.percentile(0.5), 5000.0, 5000.0 * 0.08);
  EXPECT_NEAR(h.percentile(0.99), 9900.0, 9900.0 * 0.08);
}

TEST(LogHistogram, MergeAddsCounts) {
  LogHistogram a(1.0, 1e6), b(1.0, 1e6);
  a.add(10.0);
  b.add(1000.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
}

TEST(LogHistogram, RejectsInvalidBounds) {
  EXPECT_THROW(LogHistogram(0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(LogHistogram(10.0, 10.0), std::invalid_argument);
}

TEST(LogHistogram, MergeRejectsShapeMismatch) {
  LogHistogram a(1.0, 1e6), b(1.0, 1e9);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Dedup, SlidingWindowAcceptsEachSeqOnce) {
  DedupState st;
  constexpr std::uint64_t kWindow = 4;
  EXPECT_TRUE(dedup_accept(st, 100, kWindow));
  EXPECT_TRUE(dedup_accept(st, 101, kWindow));
  EXPECT_FALSE(dedup_accept(st, 100, kWindow));  // repeat
  EXPECT_FALSE(dedup_accept(st, 10, kWindow));   // far behind the window
  EXPECT_TRUE(dedup_accept(st, 97, kWindow));    // late, but inside
  EXPECT_FALSE(dedup_accept(st, 96, kWindow));   // just behind
  EXPECT_EQ(st.max_seq, 101u);
  // Sliding forward forgets seqs that can no longer arrive fresh.
  EXPECT_TRUE(dedup_accept(st, 110, kWindow));
  EXPECT_EQ(st.seen, (std::unordered_set<std::uint64_t>{110}));
  EXPECT_FALSE(dedup_accept(st, 101, kWindow));
}

TEST(Codec, LittleEndianFieldsAndTruncation) {
  std::vector<std::uint8_t> out;
  codec::put_u32(out, 0x01020304u);
  codec::put_u64(out, 0x0a0b0c0d0e0f1011ull);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0x04, 0x03, 0x02, 0x01, 0x11,
                                            0x10, 0x0f, 0x0e, 0x0d, 0x0c,
                                            0x0b, 0x0a}));
  std::size_t off = 0;
  EXPECT_EQ(codec::get_u32(out, off), 0x01020304u);
  EXPECT_EQ(codec::get_u64(out, off), 0x0a0b0c0d0e0f1011ull);
  EXPECT_EQ(off, out.size());
  EXPECT_THROW(codec::get_u32(out, off), std::runtime_error);
  off = out.size() - 7;
  EXPECT_THROW(codec::get_u64(out, off), std::runtime_error);
}

TEST(Log, ThresholdDropsLowerLevelsAndKeptLinesAreWhole) {
  // Capture std::clog; restore it and the threshold even if a check fails.
  struct Restore {
    std::streambuf* buf;
    LogLevel threshold;
    ~Restore() {
      std::clog.rdbuf(buf);
      set_log_threshold(threshold);
    }
  };
  std::ostringstream out;
  const Restore restore{std::clog.rdbuf(out.rdbuf()), log_threshold()};

  // Default: quiet below WARN.
  EXPECT_EQ(log_threshold(), LogLevel::kWarn);
  log_debug() << "dropped " << 1;
  log_info() << "dropped " << 2;
  log_warn() << "kept " << 3;
  log_error() << "kept " << 4.5;
  EXPECT_EQ(out.str(), "[WARN ] kept 3\n[ERROR] kept 4.5\n");

  // A line reaches the sink only when it ends, as one whole line.
  out.str("");
  {
    auto line = log_warn();
    line << "part one, ";
    EXPECT_EQ(out.str(), "");
    line << "part two";
  }
  EXPECT_EQ(out.str(), "[WARN ] part one, part two\n");

  out.str("");
  set_log_threshold(LogLevel::kDebug);
  EXPECT_EQ(log_threshold(), LogLevel::kDebug);
  log_debug() << "d";
  log_info() << "i";
  EXPECT_EQ(out.str(), "[DEBUG] d\n[INFO ] i\n");

  out.str("");
  set_log_threshold(LogLevel::kError);
  EXPECT_EQ(log_threshold(), LogLevel::kError);
  log_warn() << "dropped";
  log_error() << "e";
  EXPECT_EQ(out.str(), "[ERROR] e\n");
}

}  // namespace
}  // namespace rpm
