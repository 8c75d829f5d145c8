#include "common/json.h"

#include <gtest/gtest.h>

namespace medsync {
namespace {

TEST(JsonTest, DefaultIsNull) {
  Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_EQ(j.Dump(), "null");
}

TEST(JsonTest, ScalarConstructionAndDump) {
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(false).Dump(), "false");
  EXPECT_EQ(Json(42).Dump(), "42");
  EXPECT_EQ(Json(int64_t{-7}).Dump(), "-7");
  EXPECT_EQ(Json("hi").Dump(), "\"hi\"");
  EXPECT_EQ(Json(1.5).Dump(), "1.5");
}

TEST(JsonTest, ObjectKeysAreSortedCanonically) {
  Json j = Json::MakeObject();
  j.Set("zebra", 1);
  j.Set("alpha", 2);
  j.Set("mid", 3);
  EXPECT_EQ(j.Dump(), "{\"alpha\":2,\"mid\":3,\"zebra\":1}");
}

TEST(JsonTest, CanonicalDumpIsStableAcrossInsertionOrder) {
  Json a = Json::MakeObject();
  a.Set("x", 1);
  a.Set("y", Json::Array{Json(1), Json("two")});
  Json b = Json::MakeObject();
  b.Set("y", Json::Array{Json(1), Json("two")});
  b.Set("x", 1);
  EXPECT_EQ(a.Dump(), b.Dump());
  EXPECT_EQ(a, b);
}

TEST(JsonTest, AppendDumpEmbedsTheBytesOfATree) {
  // The socket transport writes its {"body","from","to"} envelope around a
  // shared body with AppendDump; the bytes must equal the tree's Dump().
  Json body = Json::MakeObject();
  body.Set("rows", Json(Json::Array{Json(1), Json(-2.5), Json("a\"b\n")}));
  body.Set("empty", Json::MakeObject());
  Json tree = Json::MakeObject();
  tree.Set("from", "doctor");
  tree.Set("to", "chain-node-\x01");
  tree.Set("body", body);

  std::string streamed = "{\"body\":";
  body.AppendDump(&streamed);
  streamed += ",\"from\":";
  Json::AppendString(&streamed, "doctor");
  streamed += ",\"to\":";
  Json::AppendString(&streamed, "chain-node-\x01");
  streamed += '}';
  EXPECT_EQ(streamed, tree.Dump());
  EXPECT_EQ(body.SerializedSize(), body.Dump().size());
}

TEST(JsonTest, StringEscaping) {
  Json j(std::string("a\"b\\c\nd\te"));
  EXPECT_EQ(j.Dump(), "\"a\\\"b\\\\c\\nd\\te\"");
  auto parsed = Json::Parse(j.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "a\"b\\c\nd\te");
}

TEST(JsonTest, ParseBasicDocument) {
  auto parsed = Json::Parse(
      R"({"name":"doctor","age":52,"tags":["a","b"],"ok":true,"x":null})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->At("name").AsString(), "doctor");
  EXPECT_EQ(parsed->At("age").AsInt(), 52);
  EXPECT_EQ(parsed->At("tags").size(), 2u);
  EXPECT_TRUE(parsed->At("ok").AsBool());
  EXPECT_TRUE(parsed->At("x").is_null());
  EXPECT_TRUE(parsed->At("missing").is_null());
}

TEST(JsonTest, ParseNumbers) {
  EXPECT_EQ(Json::Parse("0")->AsInt(), 0);
  EXPECT_EQ(Json::Parse("-123")->AsInt(), -123);
  EXPECT_DOUBLE_EQ(Json::Parse("1.25")->AsDouble(), 1.25);
  EXPECT_DOUBLE_EQ(Json::Parse("-2e3")->AsDouble(), -2000.0);
  EXPECT_EQ(Json::Parse("9223372036854775807")->AsInt(), INT64_MAX);
}

TEST(JsonTest, ParseWhitespaceTolerant) {
  auto parsed = Json::Parse("  {  \"a\" :\n[ 1 , 2 ]\t}  ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->At("a").size(), 2u);
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());  // trailing content
  EXPECT_FALSE(Json::Parse("{'a':1}").ok());
  EXPECT_FALSE(Json::Parse("-").ok());
}

TEST(JsonTest, ParseRejectsExcessiveNesting) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(JsonTest, UnicodeEscapeDecodesToUtf8) {
  auto parsed = Json::Parse("\"\\u00e9\\u0041\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "\xc3\xa9"
                                "A");
}

TEST(JsonTest, RoundTripComplexDocument) {
  Json doc = Json::MakeObject();
  doc.Set("list", Json::Array{Json(1), Json(2.5), Json("three"),
                              Json(nullptr), Json(true)});
  Json nested = Json::MakeObject();
  nested.Set("inner", Json::Array{});
  doc.Set("nested", std::move(nested));
  auto reparsed = Json::Parse(doc.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*reparsed, doc);
  // Pretty form parses back to the same value too.
  auto repretty = Json::Parse(doc.DumpPretty());
  ASSERT_TRUE(repretty.ok());
  EXPECT_EQ(*repretty, doc);
}

TEST(JsonTest, TypedGettersReportMissingFields) {
  Json j = Json::MakeObject();
  j.Set("n", 5);
  j.Set("s", "text");
  j.Set("b", true);
  EXPECT_EQ(*j.GetInt("n"), 5);
  EXPECT_EQ(*j.GetString("s"), "text");
  EXPECT_TRUE(*j.GetBool("b"));
  EXPECT_DOUBLE_EQ(*j.GetDouble("n"), 5.0);  // int promotes
  EXPECT_FALSE(j.GetInt("s").ok());
  EXPECT_FALSE(j.GetString("missing").ok());
  EXPECT_FALSE(j.GetBool("n").ok());
}

TEST(JsonTest, AppendBuildsArraysFromNull) {
  Json j;
  j.Append(1).Append("two");
  EXPECT_TRUE(j.is_array());
  EXPECT_EQ(j.size(), 2u);
}

TEST(JsonTest, SetBuildsObjectsFromNull) {
  Json j;
  j.Set("k", "v");
  EXPECT_TRUE(j.is_object());
  EXPECT_TRUE(j.Has("k"));
  EXPECT_FALSE(j.Has("other"));
}

TEST(JsonTest, NumericEqualityAcrossIntAndDouble) {
  EXPECT_EQ(Json(2), Json(2.0));
  EXPECT_NE(Json(2), Json(2.5));
}

// Identical is what a decoder may trust: equal types at every node and
// doubles equal bit for bit, since GetInt rejects 2.0 and -0.0 dumps "-0".
TEST(JsonTest, IdenticalRequiresEqualTypesAndBits) {
  auto doc = [](Json nonce, Json dose) {
    Json params = Json::MakeObject();
    params.Set("dose", std::move(dose));
    Json list = Json::MakeArray();
    list.Append(std::move(params));
    Json out = Json::MakeObject();
    out.Set("nonce", std::move(nonce));
    out.Set("params", std::move(list));
    return out;
  };
  EXPECT_TRUE(
      Json::Identical(doc(Json(2), Json(0.0)), doc(Json(2), Json(0.0))));
  EXPECT_EQ(doc(Json(2), Json(0.0)), doc(Json(2.0), Json(0.0)));
  EXPECT_FALSE(
      Json::Identical(doc(Json(2), Json(0.0)), doc(Json(2.0), Json(0.0))));
  EXPECT_EQ(doc(Json(2), Json(0.0)), doc(Json(2), Json(-0.0)));
  EXPECT_FALSE(
      Json::Identical(doc(Json(2), Json(0.0)), doc(Json(2), Json(-0.0))));
  Json longer = doc(Json(2), Json(0.0));
  longer.Set("extra", Json());
  EXPECT_FALSE(Json::Identical(doc(Json(2), Json(0.0)), longer));
  EXPECT_FALSE(Json::Identical(Json(), Json(false)));
  EXPECT_TRUE(Json::Identical(Json("a"), Json("a")));
}

// --- Hostile wire input. The socket transport feeds frame payloads through
// ParseWire, so every rejection below is a connection a remote peer cannot
// wedge or confuse, not a style preference.

TEST(JsonTest, ParseRejectsNonStrictNumbers) {
  // The permissive scan these used to slip through would hand strtod a
  // token the sender never wrote.
  for (const char* bad : {"+5", ".5", "1.", "01", "0x1f", "1e", "1e+",
                          "-.5", "--1", "1.2.3", "NaN", "Infinity"}) {
    EXPECT_FALSE(Json::Parse(bad).ok()) << bad;
  }
  // Strict grammar still admits every shape our own Dump emits.
  for (const char* good : {"0", "-0", "0.5", "10", "1e9", "1E-9", "2.5e+4"}) {
    EXPECT_TRUE(Json::Parse(good).ok()) << good;
  }
}

TEST(JsonTest, ParseRejectsUnpairedSurrogates) {
  // Lone high, lone low, high followed by a non-surrogate, and high at
  // end-of-escape-sequence: all malformed UTF-16, none may produce bytes.
  for (const char* bad :
       {"\"\\ud800\"", "\"\\udc00\"", "\"\\ud800x\"", "\"\\ud800\\u0041\"",
        "\"\\ud800\\ud800\"", "\"\\udfff tail\""}) {
    EXPECT_FALSE(Json::Parse(bad).ok()) << bad;
  }
  // A proper pair decodes to one astral code point (U+1F600, 4 UTF-8 bytes).
  auto paired = Json::Parse("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(paired.ok());
  EXPECT_EQ(paired->AsString(), "\xf0\x9f\x98\x80");
}

TEST(JsonTest, ParseWireReportsCorruptionNotInvalidArgument) {
  // On the wire path the malformed bytes indict the STREAM: the transport
  // keys its drop-the-connection logic off kCorruption.
  for (const char* bad : {"{", "+5", "\"\\ud800\"", "nul", "[1,]"}) {
    Result<Json> parsed = Json::ParseWire(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption) << bad;
  }
  // The same bytes through the trusted path stay InvalidArgument (caller
  // bug, not stream corruption).
  EXPECT_EQ(Json::Parse("{").status().code(), StatusCode::kInvalidArgument);
}

TEST(JsonTest, ParseWireEnforcesTighterDepthThanTrustedParse) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  // 100 levels: fine for our own checkpoints (limit 256), refused from the
  // socket (limit 64) — a remote peer cannot make the parser recurse deep.
  EXPECT_TRUE(Json::Parse(deep).ok());
  Result<Json> wire = Json::ParseWire(deep);
  ASSERT_FALSE(wire.ok());
  EXPECT_EQ(wire.status().code(), StatusCode::kCorruption);

  // An explicit caller-chosen limit still wins on the wire path.
  std::string shallow = "[[[[1]]]]";
  EXPECT_TRUE(Json::ParseWire(shallow).ok());
  EXPECT_FALSE(Json::ParseWire(shallow, {.max_depth = 2}).ok());
}

TEST(JsonTest, ParseSurvivesPathologicalInputsWithoutValue) {
  // Truncations and garbage that historically crash sloppy parsers.
  for (const char* bad :
       {"\"\\", "\"\\u", "\"\\u00", "\"\\ud83d\\u", "[", "[[", "{\"",
        "{\"a\"", "{\"a\":", "[}", "{]", "\x00", "\xff\xfe", "e", "-e"}) {
    EXPECT_FALSE(Json::Parse(bad).ok());
  }
}

}  // namespace
}  // namespace medsync
