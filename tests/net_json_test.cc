// JsonValue: the program's one JSON type. The properties the serving
// plane rests on: int64 ids round-trip without passing through a double,
// doubles round-trip BIT-identically through their shortest decimal form
// (AppendJsonNumber), unsigned counts saturate instead of rendering
// negative, object member order is stable (rendering is deterministic),
// and hostile input — deep nesting, trailing garbage, malformed escapes —
// fails with a typed error instead of crashing.

#include "net/json.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/prng.h"
#include "obs/exporters.h"
#include "obs/trace.h"

namespace warpindex {
namespace {

JsonValue MustParse(const std::string& text) {
  JsonValue value;
  const Status status = JsonValue::Parse(text, &value);
  EXPECT_TRUE(status.ok()) << text << " -> " << status.ToString();
  return value;
}

TEST(NetJsonTest, ScalarRoundTrip) {
  EXPECT_EQ(MustParse("null").kind(), JsonValue::Kind::kNull);
  EXPECT_TRUE(MustParse("true").AsBool());
  EXPECT_FALSE(MustParse("false").AsBool());
  EXPECT_EQ(MustParse("42").AsInt(), 42);
  EXPECT_EQ(MustParse("-7").AsInt(), -7);
  EXPECT_DOUBLE_EQ(MustParse("2.5").AsDouble(), 2.5);
  EXPECT_EQ(MustParse("\"hi\"").AsString(), "hi");
}

TEST(NetJsonTest, IntegersStayIntegers) {
  // Sequence ids are int64 and must not be rounded through a double.
  const int64_t big = (int64_t{1} << 62) + 3;
  JsonValue value = JsonValue::Int(big);
  EXPECT_EQ(value.kind(), JsonValue::Kind::kInt);
  const JsonValue back = MustParse(value.Render());
  EXPECT_EQ(back.kind(), JsonValue::Kind::kInt);
  EXPECT_EQ(back.AsInt(), big);
}

TEST(NetJsonTest, DoublesRoundTripBitIdentically) {
  // The router ≡ in-process-engine property depends on every finite
  // double surviving render + parse with the same bits.
  const double values[] = {0.1,
                           1.0 / 3.0,
                           std::nextafter(1.0, 2.0),
                           1e-300,
                           -2.5e300,
                           123456789.123456789,
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max()};
  for (const double d : values) {
    const std::string text = JsonValue::Double(d).Render();
    const JsonValue back = MustParse(text);
    EXPECT_EQ(back.AsDouble(), d) << text;
  }
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(NetJsonTest, AppendJsonNumberRoundTripsARandomWalkBitIdentically) {
  // 10^6 doubles from a seeded Gaussian random walk, each scaled by a
  // random power of two so every exponent range is visited: the shortest
  // form must parse back (strtod) to the same bits.
  Prng prng(20011);
  double walk = 0.0;
  size_t mismatches = 0;
  std::string text;
  for (int i = 0; i < 1000000; ++i) {
    walk += prng.NextGaussian();
    const double value =
        std::ldexp(walk, static_cast<int>(prng.NextUint64() % 2000) - 1000);
    text.clear();
    AppendJsonNumber(value, &text);
    if (!SameBits(std::strtod(text.c_str(), nullptr), value)) {
      ++mismatches;
      ADD_FAILURE() << text;
    }
    if (mismatches > 5) {
      break;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(NetJsonTest, AppendJsonNumberEdgeCases) {
  const struct {
    double value;
    const char* text;
  } cases[] = {
      {0.1, "0.1"},
      {5.0, "5"},
      {1e21, "1e+21"},
      {5e-324, "5e-324"},
      {DBL_MAX, "1.7976931348623157e+308"},
      {-DBL_MAX, "-1.7976931348623157e+308"},
      {-0.0, "-0"},
  };
  for (const auto& c : cases) {
    std::string text;
    AppendJsonNumber(c.value, &text);
    EXPECT_EQ(text, c.text);
    EXPECT_TRUE(SameBits(std::strtod(text.c_str(), nullptr), c.value))
        << text;
  }
  for (const double non_finite :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    std::string text;
    AppendJsonNumber(non_finite, &text);
    EXPECT_EQ(text, "null");
  }
}

TEST(NetJsonTest, UnsignedCountsSaturate) {
  EXPECT_EQ(JsonValue::Uint(0).Render(), "0");
  EXPECT_EQ(JsonValue::Uint(uint64_t{1} << 40).Render(), "1099511627776");
  const std::string max = std::to_string(std::numeric_limits<int64_t>::max());
  EXPECT_EQ(JsonValue::Uint(std::numeric_limits<int64_t>::max()).Render(),
            max);
  EXPECT_EQ(JsonValue::Uint(std::numeric_limits<uint64_t>::max()).Render(),
            max);
}

TEST(NetJsonTest, IntAndDoubleAccessorsConvert) {
  EXPECT_EQ(JsonValue::Double(3.9).AsInt(), 3);   // truncates
  EXPECT_DOUBLE_EQ(JsonValue::Int(3).AsDouble(), 3.0);  // widens
  EXPECT_EQ(JsonValue::Str("x").AsInt(), 0);      // wrong kind -> zero
  EXPECT_FALSE(JsonValue::Int(1).AsBool());
}

TEST(NetJsonTest, AsIntOfOutOfRangeDoublesIsDefined) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  // A wire body's cost field read through GetInt: beyond int64 the old
  // cast was undefined behaviour; now it saturates.
  const JsonValue body =
      MustParse(R"({"dtw_evals": 1e300, "dtw_cells": -1e300})");
  EXPECT_EQ(body.GetInt("dtw_evals", 0), kMax);
  EXPECT_EQ(body.GetInt("dtw_cells", 0), kMin);
  EXPECT_EQ(MustParse("9223372036854775808.0").AsInt(), kMax);  // 2^63
  EXPECT_EQ(MustParse("-9223372036854775808.0").AsInt(), kMin);
  EXPECT_EQ(JsonValue::Double(std::numeric_limits<double>::infinity()).AsInt(),
            kMax);
  EXPECT_EQ(
      JsonValue::Double(-std::numeric_limits<double>::infinity()).AsInt(),
      kMin);
  EXPECT_EQ(JsonValue::Double(std::nan("")).AsInt(), 0);
  EXPECT_EQ(JsonValue::Double(-2.9).AsInt(), -2);  // in range: truncates
}

TEST(NetJsonTest, TryAsIntAcceptsOnlyIntegers) {
  int64_t out = 99;
  EXPECT_TRUE(MustParse("-42").TryAsInt(&out));
  EXPECT_EQ(out, -42);
  out = 99;
  EXPECT_FALSE(MustParse("3.0").TryAsInt(&out));  // a double, even integral
  EXPECT_FALSE(MustParse("1e3").TryAsInt(&out));
  EXPECT_FALSE(MustParse("\"7\"").TryAsInt(&out));
  EXPECT_FALSE(MustParse("null").TryAsInt(&out));
  EXPECT_FALSE(MustParse("[1]").TryAsInt(&out));
  EXPECT_EQ(out, 99);  // untouched on failure
}

TEST(NetJsonTest, StringEscapes) {
  JsonValue value = JsonValue::Str("a\"b\\c\n\t\x01");
  const JsonValue back = MustParse(value.Render());
  EXPECT_EQ(back.AsString(), "a\"b\\c\n\t\x01");
  // Parses the standard escape set too.
  EXPECT_EQ(MustParse("\"\\u0041\\n\\\"\"").AsString(), "A\n\"");
}

TEST(NetJsonTest, OneEscaperForRenderAndTheExporters) {
  // Quote, backslash, \n, \r, \t and the control bytes 0x01 / 0x1f escape
  // identically through JsonValue::Render and the trace exporter (both
  // call AppendJsonEscaped).
  const std::string raw = "q\"b\\n\nr\rt\tc\x01u\x1f";
  const std::string want = "\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001u\\u001f\"";
  EXPECT_EQ(JsonValue::Str(raw).Render(), want);
  std::string appended;
  AppendJsonEscaped(raw, &appended);
  EXPECT_EQ(appended, want);
  Trace trace;
  TraceSpan span;
  span.name = raw;
  trace.AppendSpan(span);
  const std::string exported = TraceToJsonArray(trace);
  EXPECT_NE(exported.find("\"name\":" + want), std::string::npos) << exported;
  EXPECT_EQ(MustParse(want).AsString(), raw);
}

TEST(NetJsonTest, ObjectOrderIsInsertionOrder) {
  JsonValue object = JsonValue::Object();
  object.Set("zeta", JsonValue::Int(1));
  object.Set("alpha", JsonValue::Int(2));
  EXPECT_EQ(object.Render(), "{\"zeta\":1,\"alpha\":2}");
  // Re-parsing keeps the order (stable fingerprints for the router's
  // replica-agreement check).
  EXPECT_EQ(MustParse(object.Render()).Render(), object.Render());
}

TEST(NetJsonTest, FindAndTypedLookups) {
  const JsonValue object =
      MustParse("{\"i\":7,\"d\":2.5,\"s\":\"x\",\"b\":true}");
  ASSERT_NE(object.Find("i"), nullptr);
  EXPECT_EQ(object.Find("missing"), nullptr);
  EXPECT_EQ(object.GetInt("i", -1), 7);
  EXPECT_DOUBLE_EQ(object.GetDouble("d", -1.0), 2.5);
  EXPECT_EQ(object.GetString("s", "none"), "x");
  EXPECT_TRUE(object.GetBool("b", false));
  EXPECT_EQ(object.GetInt("missing", -1), -1);
  EXPECT_EQ(object.GetString("i", "fallback"), "fallback");  // wrong kind
}

TEST(NetJsonTest, NestedArraysAndObjects) {
  const JsonValue value =
      MustParse("{\"shards\":[{\"shard\":0,\"mbr\":null},{\"shard\":1}]}");
  const JsonValue* shards = value.Find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->size(), 2u);
  EXPECT_EQ(shards->at(0).GetInt("shard", -1), 0);
  ASSERT_NE(shards->at(0).Find("mbr"), nullptr);
  EXPECT_TRUE(shards->at(0).Find("mbr")->is_null());
}

TEST(NetJsonTest, TrailingGarbageRejected) {
  JsonValue value;
  EXPECT_FALSE(JsonValue::Parse("42 junk", &value).ok());
  EXPECT_FALSE(JsonValue::Parse("{}{}", &value).ok());
  EXPECT_FALSE(JsonValue::Parse("", &value).ok());
}

TEST(NetJsonTest, MalformedInputRejected) {
  JsonValue value;
  for (const char* bad : {"{", "[1,", "\"open", "{\"a\":}", "tru",
                          "01", "+1", "nul", "{\"a\" 1}", "[1 2]"}) {
    EXPECT_FALSE(JsonValue::Parse(bad, &value).ok()) << bad;
  }
}

// Every parsed number is finite: a number beyond the double range is an
// error, not an infinity, so no wire body can carry one. Underflow to a
// denormal or to zero still parses.
TEST(NetJsonTest, NumbersBeyondTheDoubleRangeRejected) {
  JsonValue value;
  const std::string huge_integer(400, '9');
  for (const std::string& bad :
       {std::string("1e999"), std::string("-1e999"), huge_integer,
        "-" + huge_integer, std::string("[1e999,-1e999,3]"),
        std::string("{\"epsilon\":1e999}")}) {
    const Status status = JsonValue::Parse(bad, &value);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << bad.substr(0, 40);
    EXPECT_NE(status.message().find("out of range"), std::string::npos)
        << status.ToString();
  }
  EXPECT_EQ(MustParse("1e-320").AsDouble(), 1e-320);
  EXPECT_EQ(MustParse("1e-999").AsDouble(), 0.0);
  EXPECT_EQ(MustParse("1.7976931348623157e308").AsDouble(),
            std::numeric_limits<double>::max());
}

TEST(NetJsonTest, DepthBoundRejectsHostileNesting) {
  // A hostile peer cannot blow the stack with deep nesting.
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  JsonValue value;
  EXPECT_FALSE(JsonValue::Parse(deep, &value).ok());
  // A compliant body well under the bound parses fine.
  std::string ok_depth;
  for (int i = 0; i < 20; ++i) ok_depth += "[";
  for (int i = 0; i < 20; ++i) ok_depth += "]";
  EXPECT_TRUE(JsonValue::Parse(ok_depth, &value).ok());
}

TEST(NetJsonTest, RenderToAppends) {
  std::string out = "prefix:";
  JsonValue::Int(5).RenderTo(&out);
  EXPECT_EQ(out, "prefix:5");
}

}  // namespace
}  // namespace warpindex
