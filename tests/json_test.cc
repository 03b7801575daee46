#include "src/util/json.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace mto {
namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null").is_null());
  EXPECT_EQ(ParseJson("true").AsBool(), true);
  EXPECT_EQ(ParseJson("false").AsBool(), false);
  EXPECT_DOUBLE_EQ(ParseJson("3.25").AsDouble(), 3.25);
  EXPECT_DOUBLE_EQ(ParseJson("-2e3").AsDouble(), -2000.0);
  EXPECT_EQ(ParseJson("\"hi\"").AsString(), "hi");
}

TEST(JsonTest, ParsesNestedStructure) {
  const JsonValue v = ParseJson(R"({
    "name": "pool",
    "backends": [{"rate": 10.5}, {"rate": 2}],
    "enabled": true,
    "nested": {"a": [1, 2, 3]}
  })");
  EXPECT_EQ(v.At("name").AsString(), "pool");
  const auto& backends = v.At("backends").AsArray();
  ASSERT_EQ(backends.size(), 2u);
  EXPECT_DOUBLE_EQ(backends[0].At("rate").AsDouble(), 10.5);
  EXPECT_EQ(v.At("nested").At("a").AsArray().size(), 3u);
  EXPECT_TRUE(v.Has("enabled"));
  EXPECT_FALSE(v.Has("absent"));
}

TEST(JsonTest, ParsesStringEscapes) {
  EXPECT_EQ(ParseJson(R"("a\"b\\c\nd\tA")").AsString(), "a\"b\\c\nd\tA");
}

TEST(JsonTest, DecodesUnicodeEscapesAsUtf8) {
  EXPECT_EQ(ParseJson(R"("\u0041")").AsString(), "A");            // 1 byte
  EXPECT_EQ(ParseJson(R"("\u00e9")").AsString(), "\xC3\xA9");     // 2 bytes
  EXPECT_EQ(ParseJson(R"("\u20AC")").AsString(), "\xE2\x82\xAC");  // 3 bytes
  // Surrogate pairs decode to one astral code point (4-byte UTF-8), not
  // two garbage 3-byte sequences: U+1F600, then the last point U+10FFFF.
  EXPECT_EQ(ParseJson(R"("\uD83D\uDE00")").AsString(), "\xF0\x9F\x98\x80");
  EXPECT_EQ(ParseJson(R"("\uDBFF\uDFFF")").AsString(), "\xF4\x8F\xBF\xBF");
}

TEST(JsonTest, SurrogatePairsRoundTripThroughDump) {
  // Dump emits the decoded UTF-8 bytes raw (they are above 0x1F), so
  // parse -> dump -> parse is the identity on astral characters.
  const JsonValue v = ParseJson(R"({"emoji": "\uD83D\uDE00 ok"})");
  const JsonValue again = ParseJson(DumpJson(v));
  EXPECT_EQ(again.At("emoji").AsString(), v.At("emoji").AsString());
  EXPECT_EQ(again.At("emoji").AsString(), "\xF0\x9F\x98\x80 ok");
}

TEST(JsonTest, LoneAndMalformedSurrogatesAreRejected) {
  EXPECT_THROW(ParseJson(R"("\uD800")"), std::runtime_error);  // lone high
  EXPECT_THROW(ParseJson(R"("\uDC00")"), std::runtime_error);  // lone low
  EXPECT_THROW(ParseJson(R"("\uD800A")"), std::runtime_error);
  EXPECT_THROW(ParseJson(R"("\uD800\u0041")"), std::runtime_error);
  EXPECT_THROW(ParseJson(R"("\uD8")"), std::runtime_error);  // short escape
  EXPECT_THROW(ParseJson(R"("\uD83D\uD83D")"), std::runtime_error);
}

TEST(JsonTest, AsUintRejectsFractionsNegativesAndOverflow) {
  EXPECT_EQ(ParseJson("42").AsUint(), 42u);
  EXPECT_THROW(ParseJson("1.5").AsUint(), std::runtime_error);
  EXPECT_THROW(ParseJson("-1").AsUint(), std::runtime_error);
  EXPECT_THROW(ParseJson("1e20").AsUint(), std::runtime_error);  // >= 2^64
}

TEST(JsonTest, OutOfRangeNumbersAreRejected) {
  // strtod overflows these to ±inf, which DumpJson would write back as the
  // non-JSON token "inf"; the parser refuses them at their byte offset.
  for (const char* doc : {R"({"x": 1e999})", R"({"x": -1e999})"}) {
    try {
      ParseJson(doc);
      ADD_FAILURE() << "accepted " << doc;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("at offset 6: number out of range"),
                std::string::npos)
          << e.what();
    }
  }
  // The largest finite double still parses and round-trips through DumpJson.
  const JsonValue max = ParseJson(R"({"x": 1.7976931348623157e308})");
  EXPECT_EQ(max.At("x").AsDouble(), std::numeric_limits<double>::max());
  EXPECT_EQ(ParseJson(DumpJson(max)).At("x").AsDouble(),
            std::numeric_limits<double>::max());
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_THROW(ParseJson(""), std::runtime_error);
  EXPECT_THROW(ParseJson("{"), std::runtime_error);
  EXPECT_THROW(ParseJson("[1,]"), std::runtime_error);
  EXPECT_THROW(ParseJson("{\"a\": 1,}"), std::runtime_error);
  EXPECT_THROW(ParseJson("tru"), std::runtime_error);
  EXPECT_THROW(ParseJson("1 2"), std::runtime_error);  // trailing content
  EXPECT_THROW(ParseJson("\"unterminated"), std::runtime_error);
  EXPECT_THROW(ParseJson("{\"a\": 1, \"a\": 2}"), std::runtime_error);
}

TEST(JsonTest, NestingDepthIsBounded) {
  // A document of 100,000 '[' would recurse once per bracket; the parser
  // must refuse it with a parse error instead of overflowing the stack.
  try {
    ParseJson(std::string(100000, '['));
    ADD_FAILURE() << "accepted 100000 nested arrays";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting too deep"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(ParseJson(std::string(100000, '{')), std::runtime_error);
  // Exactly at the bound still parses.
  const std::string deepest = std::string(kMaxJsonDepth, '[') +
                              std::string(kMaxJsonDepth, ']');
  EXPECT_NO_THROW(ParseJson(deepest));
  const std::string too_deep = "[" + deepest + "]";
  EXPECT_THROW(ParseJson(too_deep), std::runtime_error);
}

TEST(JsonTest, TypeMismatchThrows) {
  const JsonValue v = ParseJson("{\"a\": 1}");
  EXPECT_THROW(v.At("a").AsString(), std::runtime_error);
  EXPECT_THROW(v.At("missing"), std::runtime_error);
  EXPECT_THROW(v.AsArray(), std::runtime_error);
}

TEST(JsonTest, KeysAreSorted) {
  const JsonValue v = ParseJson("{\"b\": 1, \"a\": 2, \"c\": 3}");
  EXPECT_EQ(v.Keys(), (std::vector<std::string>{"a", "b", "c"}));
}

}  // namespace
}  // namespace mto
