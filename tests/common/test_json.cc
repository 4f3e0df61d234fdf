/**
 * @file
 * Tests for the JSON writer/parser pair: deterministic serialisation,
 * escaping, round-tripping and error reporting.
 */

#include <gtest/gtest.h>

#include "common/json.hh"

using namespace dasdram;

TEST(JsonWriter, ObjectAndArray)
{
    JsonWriter w;
    w.beginObject()
        .field("name", "mcf")
        .field("count", std::uint64_t(3))
        .key("ipc")
        .beginArray()
        .value(1.5)
        .value(0.25)
        .endArray()
        .field("ok", true)
        .endObject();
    EXPECT_EQ(w.str(),
              "{\"name\":\"mcf\",\"count\":3,\"ipc\":[1.5,0.25],"
              "\"ok\":true}");
}

TEST(JsonWriter, Escaping)
{
    JsonWriter w;
    w.value(std::string_view("a\"b\\c\nd\x01"));
    EXPECT_EQ(w.str(), "\"a\\\"b\\\\c\\nd\\u0001\"");
}

TEST(JsonWriter, DeterministicDoubles)
{
    JsonWriter a, b;
    a.value(0.1);
    b.value(0.1);
    EXPECT_EQ(a.str(), b.str());

    JsonWriter nested;
    nested.beginArray().value(-0.0).value(1e300).value(3.0).endArray();
    JsonValue v;
    ASSERT_TRUE(parseJson(nested.str(), v));
    ASSERT_EQ(v.array.size(), 3u);
    EXPECT_EQ(v.array[1].number, 1e300);
    EXPECT_EQ(v.array[2].number, 3.0);
}

TEST(JsonParse, RoundTripsWriterOutput)
{
    JsonWriter w;
    w.beginObject()
        .field("pi", 3.141592653589793)
        .field("neg", std::int64_t(-7))
        .key("obj")
        .beginObject()
        .field("s", "x y")
        .endObject()
        .key("null")
        .null()
        .endObject();

    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(w.str(), v, &err)) << err;
    ASSERT_TRUE(v.isObject());
    const JsonValue *pi = v.find("pi");
    ASSERT_NE(pi, nullptr);
    EXPECT_DOUBLE_EQ(pi->number, 3.141592653589793);
    const JsonValue *neg = v.find("neg");
    ASSERT_NE(neg, nullptr);
    EXPECT_DOUBLE_EQ(neg->number, -7.0);
    const JsonValue *obj = v.find("obj");
    ASSERT_NE(obj, nullptr);
    const JsonValue *s = obj->find("s");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->string, "x y");
    const JsonValue *null = v.find("null");
    ASSERT_NE(null, nullptr);
    EXPECT_EQ(null->kind, JsonValue::Kind::Null);
    EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(JsonParse, IntegerLiteralsAreExact)
{
    // Above 2^53 a double cannot hold every integer; exactUint can.
    JsonWriter w;
    w.beginArray()
        .value(std::uint64_t{9007199254740993ULL})
        .value(~std::uint64_t{0})
        .endArray();
    JsonValue v;
    ASSERT_TRUE(parseJson(w.str(), v));
    ASSERT_EQ(v.array.size(), 2u);
    EXPECT_EQ(v.array[0].exactUint, 9007199254740993ULL);
    EXPECT_EQ(v.array[1].exactUint, ~std::uint64_t{0});

    // Anything that is not a plain integer in range stays a double.
    ASSERT_TRUE(
        parseJson("[18446744073709551616, -1, 2.0, 1e3, 0.5, NaN]", v));
    for (const JsonValue &x : v.array) {
        EXPECT_TRUE(x.isNumber());
        EXPECT_FALSE(x.exactUint.has_value()) << x.number;
    }
    ASSERT_TRUE(parseJson("0", v));
    EXPECT_EQ(v.exactUint, 0u);
}

TEST(JsonParse, AcceptsWhitespaceAndUnicodeEscapes)
{
    JsonValue v;
    ASSERT_TRUE(parseJson("  { \"k\" : [ 1 , 2.5e1 ] }\n", v));
    ASSERT_TRUE(v.find("k")->isArray());
    EXPECT_DOUBLE_EQ(v.find("k")->array[1].number, 25.0);

    ASSERT_TRUE(parseJson("\"\\u0041\\u00e9\"", v));
    EXPECT_EQ(v.string, "A\xc3\xa9");
}

TEST(JsonParse, RejectsMalformedInput)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson("{\"a\":}", v, &err));
    EXPECT_FALSE(parseJson("[1,2", v));
    EXPECT_FALSE(parseJson("1 2", v));
    EXPECT_FALSE(parseJson("\"open", v));
    EXPECT_FALSE(parseJson("", v));
    EXPECT_FALSE(parseJson("{\"a\" 1}", v));
}
