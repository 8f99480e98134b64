// The BENCH_*.json writer: whatever a bench puts in a string param or a
// string metric comes out escaped, so every document is valid JSON.
#include <gtest/gtest.h>

#include <string>

#include "bench_json.h"
#include "common/json.h"

namespace rpm {
namespace {

TEST(BenchJson, EscapesQuotesNewlinesAndControlCharacters) {
  const std::string hostile = "say \"hi\"\nthen\x01 stop\\";
  bench::BenchJson out;
  out.bench = "escape";
  out.params = [&](json::Writer& w) {
    w.key("label").string(hostile).key("n").integer(3);
  };
  out.metrics = [&](json::Writer& w) {
    w.key("note").string(hostile).key("ratio").fixed(2.0 / 3, 2);
  };
  const std::string text = out.str();
  for (const char c : text) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << text;
  }
  const json::Value doc = json::Value::parse(text);
  EXPECT_EQ(doc.get_string("bench"), "escape");
  ASSERT_NE(doc.find("params"), nullptr);
  EXPECT_EQ(doc.find("params")->get_string("label"), hostile);
  EXPECT_EQ(doc.find("params")->get_int("n"), 3);
  ASSERT_NE(doc.find("metrics"), nullptr);
  EXPECT_EQ(doc.find("metrics")->get_string("note"), hostile);
  EXPECT_EQ(doc.find("metrics")->get_double("ratio"), 0.67);
}

}  // namespace
}  // namespace rpm
