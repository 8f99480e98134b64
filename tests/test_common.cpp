// Unit tests for src/common: ids, time helpers, 5-tuples, RNG, statistics,
// seq dedup, little-endian fields, the JSON writer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "common/codec.h"
#include "common/dedup.h"
#include "common/five_tuple.h"
#include "common/json.h"
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

TEST(Dedup, SlidingWindowAcceptsEachSeqOnce) {
  DedupState st;
  constexpr std::uint64_t kTop = 1000;
  EXPECT_TRUE(dedup_accept(st, kTop - 1));
  EXPECT_TRUE(dedup_accept(st, kTop));
  EXPECT_FALSE(dedup_accept(st, kTop - 1));  // repeat
  EXPECT_FALSE(dedup_accept(st, 10));        // far behind the window
  EXPECT_TRUE(dedup_accept(st, kTop - kDedupWindow));  // late, but inside
  EXPECT_FALSE(dedup_accept(st, kTop - kDedupWindow - 1));  // just behind
  EXPECT_EQ(st.max_seq, kTop);
  // Sliding forward forgets seqs that can no longer arrive fresh.
  constexpr std::uint64_t kNext = kTop + kDedupWindow + 10;
  EXPECT_TRUE(dedup_accept(st, kNext));
  EXPECT_EQ(st.seen, (std::unordered_set<std::uint64_t>{kNext}));
  EXPECT_FALSE(dedup_accept(st, kTop));
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

// ---- the JSON writer ----

json::Value writer_fixture() {
  json::Value row{json::Object{}};
  row.set("id", 7);
  row.set("tags", json::Array{"a", json::Value(json::Array{}), 2.5});
  json::Value v{json::Object{}};
  v.set("int", -42);
  v.set("max", std::numeric_limits<std::int64_t>::max());
  v.set("double", 0.1);
  v.set("integral", 3.0);
  v.set("huge", 1e21);
  v.set("escapes", "q\"b\\n\nr\rt\tc\x01\x1f/");
  v.set("yes", true);
  v.set("nothing", nullptr);
  v.set("empty_array", json::Array{});
  v.set("empty_object", json::Object{});
  v.set("rows", json::Array{row, json::Value(json::Object{})});
  return v;
}

TEST(JsonWriter, DumpBytesArePinned) {
  // Every Value-based artifact (plans, corpus files, FuzzReport) prints in
  // these two layouts; a byte changed here changes all of them.
  const json::Value v = writer_fixture();
  EXPECT_EQ(v.dump(),
            "{\"int\":-42,\"max\":9223372036854775807,\"double\":0.1,"
            "\"integral\":3.0,\"huge\":1e+21,"
            "\"escapes\":\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001\\u001f/\","
            "\"yes\":true,\"nothing\":null,\"empty_array\":[],"
            "\"empty_object\":{},"
            "\"rows\":[{\"id\":7,\"tags\":[\"a\",[],2.5]},{}]}");
  EXPECT_EQ(v.dump(2),
            "{\n"
            "  \"int\": -42,\n"
            "  \"max\": 9223372036854775807,\n"
            "  \"double\": 0.1,\n"
            "  \"integral\": 3.0,\n"
            "  \"huge\": 1e+21,\n"
            "  \"escapes\": \"q\\\"b\\\\n\\nr\\rt\\tc\\u0001\\u001f/\",\n"
            "  \"yes\": true,\n"
            "  \"nothing\": null,\n"
            "  \"empty_array\": [],\n"
            "  \"empty_object\": {},\n"
            "  \"rows\": [\n"
            "    {\n"
            "      \"id\": 7,\n"
            "      \"tags\": [\n"
            "        \"a\",\n"
            "        [],\n"
            "        2.5\n"
            "      ]\n"
            "    },\n"
            "    {}\n"
            "  ]\n"
            "}");
  EXPECT_EQ(json::Value::parse(v.dump(2)).dump(), v.dump());
}

TEST(JsonWriter, PrettyRowsPutsOneArrayRowPerLine) {
  std::string out;
  json::Writer w(out, json::Layout::kPrettyRows);
  w.begin_object().key("seed").integer(7).key("rows").begin_array();
  w.begin_object().key("a").integer(1).key("b").string("x").end_object();
  w.begin_object().key("a").integer(2).key("b").null().end_object();
  w.end_array().key("none").begin_array().end_array().end_object().newline();
  EXPECT_EQ(out,
            "{\n"
            "  \"seed\": 7,\n"
            "  \"rows\": [\n"
            "    {\"a\": 1, \"b\": \"x\"},\n"
            "    {\"a\": 2, \"b\": null}\n"
            "  ],\n"
            "  \"none\": []\n"
            "}\n");
}

TEST(JsonWriter, EachNumberForm) {
  const auto one = [](const std::function<void(json::Writer&)>& put) {
    std::string out;
    json::Writer w(out);
    put(w);
    return out;
  };
  const double inf = std::numeric_limits<double>::infinity();
  // Exact integers.
  EXPECT_EQ(one([](json::Writer& w) {
              w.integer(std::numeric_limits<std::int64_t>::min());
            }),
            "-9223372036854775808");
  EXPECT_EQ(one([](json::Writer& w) {
              w.integer(std::numeric_limits<std::uint64_t>::max());
            }),
            "18446744073709551615");
  // Shortest round trip, integral values kept recognizably double.
  EXPECT_EQ(one([](json::Writer& w) { w.shortest(0.1); }), "0.1");
  EXPECT_EQ(one([](json::Writer& w) { w.shortest(3.0); }), "3.0");
  EXPECT_EQ(one([](json::Writer& w) { w.shortest(-0.0); }), "-0.0");
  EXPECT_EQ(one([](json::Writer& w) { w.shortest(1e21); }), "1e+21");
  // %.0f for integral values below 1e15, %.9g otherwise.
  EXPECT_EQ(one([](json::Writer& w) { w.number(42.0); }), "42");
  EXPECT_EQ(one([](json::Writer& w) { w.number(-2.5); }), "-2.5");
  EXPECT_EQ(one([](json::Writer& w) { w.number(1.0 / 3); }), "0.333333333");
  EXPECT_EQ(one([](json::Writer& w) { w.number(1e15); }), "1e+15");
  // Fixed decimals.
  EXPECT_EQ(one([](json::Writer& w) { w.fixed(1234.5, 2); }), "1234.50");
  EXPECT_EQ(one([](json::Writer& w) { w.fixed(0.0005, 3); }), "0.001");
  // JSON has no inf/nan.
  EXPECT_EQ(one([inf](json::Writer& w) {
              w.begin_array().shortest(inf).number(-inf).fixed(inf, 3);
              w.number(std::nan("")).end_array();
            }),
            "[null,null,null,null]");
  // The printf-style forms print exactly what printf does.
  char buf[64];
  for (const double v : {0.0, 1e-9, 0.125, 2.5, 1.0 / 7, 999.9995, 12345.678,
                         -3.14159, 4.35e6, 1e15 + 0.5, 6.02e23}) {
    for (int d = 0; d <= 6; ++d) {
      std::snprintf(buf, sizeof(buf), "%.*f", d, v);
      EXPECT_EQ(one([&](json::Writer& w) { w.fixed(v, d); }), buf) << v;
    }
    const bool integral = v == std::floor(v) && std::fabs(v) < 1e15;
    std::snprintf(buf, sizeof(buf), integral ? "%.0f" : "%.9g", v);
    EXPECT_EQ(one([&](json::Writer& w) { w.number(v); }), buf) << v;
  }
}

TEST(JsonValue, ParseRejectsUnescapedControlCharacters) {
  EXPECT_EQ(json::Value::parse("\"a\\nb\\u0001\"").as_string(), "a\nb\x01");
  EXPECT_THROW((void)json::Value::parse("\"a\nb\""), std::runtime_error);
  EXPECT_THROW((void)json::Value::parse("\"a\x01\""), std::runtime_error);
}

/// A document well past the file sink's 64 KiB chunk.
void big_document(json::Writer& w) {
  w.begin_array();
  for (int i = 0; i < 20000; ++i) {
    w.begin_object().key("i").integer(i).key("s").string("row \"").end_object();
  }
  w.end_array().newline();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(JsonWriter, FileSinkWritesTheStringSinksBytes) {
  std::string expected;
  json::Writer w(expected);
  big_document(w);
  ASSERT_GT(expected.size(), std::size_t{3} << 16);

  const std::string path = ::testing::TempDir() + "json_writer_sink.json";
  ASSERT_TRUE(json::write_file(path, json::Layout::kCompact, big_document));
  EXPECT_EQ(slurp(path), expected);
  std::remove(path.c_str());
}

TEST(JsonWriter, FileSinkReportsFailure) {
  // /dev/full accepts the open and fails every write: a short document fails
  // at the close, a long one at its first chunk.
  EXPECT_FALSE(json::write_file("/dev/full", json::Layout::kCompact,
                                [](json::Writer& w) { w.integer(1); }));
  EXPECT_FALSE(
      json::write_file("/dev/full", json::Layout::kCompact, big_document));
  EXPECT_FALSE(json::write_file(::testing::TempDir() + "no/such/dir.json",
                                json::Layout::kCompact,
                                [](json::Writer& w) { w.integer(1); }));
}

}  // namespace
}  // namespace rpm
