#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "support/error.hpp"
#include "support/json_writer.hpp"
#include "support/rng.hpp"

namespace jepo {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(jsonEscape("hello world"), "hello world");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(JsonEscape, EscapesShortControlSequences) {
  EXPECT_EQ(jsonEscape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
}

TEST(JsonEscape, EscapesOtherControlCharsAsUnicode) {
  EXPECT_EQ(jsonEscape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
}

TEST(JsonEscape, LeavesUtf8BytesAlone) {
  EXPECT_EQ(jsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonNumber, RendersShortestRoundTrip) {
  EXPECT_EQ(jsonNumber(0.0), "0");
  EXPECT_EQ(jsonNumber(0.5), "0.5");
  EXPECT_EQ(jsonNumber(-3.0), "-3");
}

TEST(JsonNumber, NonFiniteRendersAsNull) {
  EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(jsonNumber(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonValueTest, RendersEveryKind) {
  EXPECT_EQ(JsonValue().render(), "null");
  EXPECT_EQ(JsonValue(true).render(), "true");
  EXPECT_EQ(JsonValue(false).render(), "false");
  EXPECT_EQ(JsonValue(42).render(), "42");
  EXPECT_EQ(JsonValue(-7L).render(), "-7");
  EXPECT_EQ(JsonValue(3.25).render(), "3.25");
  EXPECT_EQ(JsonValue("s").render(), "\"s\"");
  EXPECT_EQ(JsonValue(std::string("a\"b")).render(), "\"a\\\"b\"");
}

TEST(JsonValueTest, NanValueRendersAsNull) {
  EXPECT_EQ(JsonValue(std::nan("")).render(), "null");
}

TEST(JsonValueTest, UnsignedValuesAtAndAbove2To63StayPositive) {
  EXPECT_EQ(JsonValue(UINT64_MAX).render(), "18446744073709551615");
  EXPECT_EQ(JsonValue(std::uint64_t{1} << 63).render(),
            "9223372036854775808");
  EXPECT_EQ(JsonValue(std::uint64_t{(std::uint64_t{1} << 63) - 1}).render(),
            "9223372036854775807");
}

TEST(JsonWriterTest, BuildsNestedDocument) {
  JsonWriter w;
  w.beginObject();
  w.kv("name", "bench");
  w.key("rows");
  w.beginArray();
  w.beginObject();
  w.kv("x", 1);
  w.kv("y", 2.5);
  w.endObject();
  w.value(7);
  w.endArray();
  w.key("empty");
  w.beginObject();
  w.endObject();
  w.endObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"bench\",\"rows\":[{\"x\":1,\"y\":2.5},7],"
            "\"empty\":{}}");
}

TEST(JsonWriterTest, TopLevelArrayAndNull) {
  JsonWriter w;
  w.beginArray();
  w.null();
  w.value(true);
  w.endArray();
  EXPECT_EQ(w.str(), "[null,true]");
}

TEST(JsonWriterTest, RawValueTakesItsSeparatorsLikeAnyValue) {
  const auto raw = [](std::string& out) { out += R"({"x":[1,2]})"; };
  JsonWriter w;
  w.beginObject();
  w.kv("a", 1);
  w.key("b");
  w.rawValue(raw);
  w.key("c");
  w.beginArray();
  w.rawValue(raw);
  w.rawValue(raw);
  w.endArray();
  w.endObject();
  EXPECT_EQ(w.str(),
            R"({"a":1,"b":{"x":[1,2]},"c":[{"x":[1,2]},{"x":[1,2]}]})");

  JsonWriter keyless;
  keyless.beginObject();
  EXPECT_THROW(keyless.rawValue(raw), PreconditionError);
}

TEST(JsonWriterTest, EscapesKeys) {
  JsonWriter w;
  w.beginObject();
  w.kv("we\"ird", 1);
  w.endObject();
  EXPECT_EQ(w.str(), "{\"we\\\"ird\":1}");
}

TEST(JsonWriterTest, MisuseTripsPreconditions) {
  {
    JsonWriter w;
    w.beginObject();
    EXPECT_THROW(w.value(1), PreconditionError);  // value without a key
  }
  {
    JsonWriter w;
    w.beginArray();
    EXPECT_THROW(w.endObject(), PreconditionError);  // mismatched end
  }
  {
    JsonWriter w;
    w.beginObject();
    w.key("k");
    EXPECT_THROW(w.key("k2"), PreconditionError);  // two keys in a row
  }
  {
    JsonWriter w;
    w.beginObject();
    EXPECT_THROW(w.str(), PreconditionError);  // unbalanced document
  }
}

TEST(JsonWriterTest, TakeMovesTheDocumentOutAfterTheBalanceCheck) {
  JsonWriter w;
  w.reserve(64);
  w.beginObject();
  EXPECT_THROW(w.take(), PreconditionError);
  w.kv("k", std::string("v"));
  w.endObject();
  EXPECT_EQ(w.take(), "{\"k\":\"v\"}");
  EXPECT_EQ(w.str(), "");
}

// ---------------------------------------------------------------------------
// Generators: the in-place writer against reference formatters.

/// The per-character escaper the writer must agree with byte for byte.
std::string referenceEscape(const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '\b') {
      out += "\\b";
    } else if (c == '\f') {
      out += "\\f";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c < 0x20) {
      out += "\\u00";
      out += kHex[c >> 4];
      out += kHex[c & 0xF];
    } else {
      out += raw;
    }
  }
  return out;
}

/// Random runs of plain bytes (0x20..0xff minus quote and backslash) and
/// escapable bytes (control chars, quote, backslash), run lengths 0..24.
std::string randomRuns(Rng& rng) {
  std::string s;
  const std::uint64_t runs = rng.nextBelow(6);
  for (std::uint64_t r = 0; r < runs; ++r) {
    const bool plain = rng.nextBelow(2) == 0;
    const std::uint64_t len = rng.nextBelow(25);
    for (std::uint64_t i = 0; i < len; ++i) {
      unsigned char c;
      if (plain) {
        do {
          c = static_cast<unsigned char>(0x20 + rng.nextBelow(0xe0));
        } while (c == '"' || c == '\\');
      } else {
        const std::uint64_t pick = rng.nextBelow(0x22);
        c = pick < 0x20 ? static_cast<unsigned char>(pick)
                        : (pick == 0x20 ? '"' : '\\');
      }
      s += static_cast<char>(c);
    }
  }
  return s;
}

TEST(JsonWriterGenerator, EscapedStringsMatchTheReferenceEscaper) {
  Rng rng(0x15c4);
  std::string every;
  for (int c = 0; c < 256; ++c) every += static_cast<char>(c);
  for (int i = 0; i < 10000; ++i) {
    const std::string s = i == 0 ? every : randomRuns(rng);
    const std::string want = referenceEscape(s);
    JsonWriter w;
    w.beginObject();
    w.kv(s, s);
    w.endObject();
    ASSERT_EQ(w.str(), "{\"" + want + "\":\"" + want + "\"}")
        << "case " << i;
    ASSERT_EQ(jsonEscape(s), want) << "case " << i;
    ASSERT_EQ(JsonValue(s).render(), "\"" + want + "\"") << "case " << i;
  }
}

TEST(JsonWriterGenerator, DoublesMatchJsonNumberAndRoundTrip) {
  Rng rng(0xd0b1e);
  const double specials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::bit_cast<double>(std::uint64_t{0x000fffffffffffff}),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      0.1,
      1e21,
      1e-7,
  };
  const auto check = [](double v) {
    JsonWriter w;
    w.beginArray();
    w.value(v);
    w.endArray();
    const std::string num = jsonNumber(v);
    ASSERT_EQ(w.str(), "[" + num + "]");
    ASSERT_EQ(JsonValue(v).render(), num);
    if (!std::isfinite(v)) {
      ASSERT_EQ(num, "null");
      return;
    }
    // Shortest round-trip form: parses back to the very same bits.
    ASSERT_EQ(std::bit_cast<std::uint64_t>(std::strtod(num.c_str(), nullptr)),
              std::bit_cast<std::uint64_t>(v))
        << num;
  };
  for (const double v : specials) check(v);
  for (int i = 0; i < 10000; ++i) {
    std::uint64_t bits = rng();
    // Every fourth pattern is subnormal (zero exponent field).
    if (i % 4 == 0) bits &= 0x800fffffffffffffULL;
    check(std::bit_cast<double>(bits));
  }
  // float widens to double exactly as it always did.
  JsonWriter w;
  w.beginArray();
  w.value(0.1f);
  w.endArray();
  EXPECT_EQ(w.str(), "[" + jsonNumber(static_cast<double>(0.1f)) + "]");
}

template <class T>
void expectIntegerLimits() {
  for (const T v : {std::numeric_limits<T>::min(), T{0},
                    std::numeric_limits<T>::max()}) {
    JsonWriter w;
    w.beginObject();
    w.kv("n", v);
    w.endObject();
    EXPECT_EQ(w.str(), "{\"n\":" + std::to_string(v) + "}");
  }
}

TEST(JsonWriterGenerator, EveryIntegerOverloadRendersItsLimits) {
  expectIntegerLimits<short>();
  expectIntegerLimits<unsigned short>();
  expectIntegerLimits<int>();
  expectIntegerLimits<unsigned>();
  expectIntegerLimits<long>();
  expectIntegerLimits<unsigned long>();
  expectIntegerLimits<long long>();
  expectIntegerLimits<unsigned long long>();
  EXPECT_EQ(JsonValue(std::numeric_limits<long long>::min()).render(),
            "-9223372036854775808");
  EXPECT_EQ(JsonValue(std::numeric_limits<unsigned>::max()).render(),
            "4294967295");
}

}  // namespace
}  // namespace jepo
