// support/json_reader.hpp — the strict parser behind the jepod protocol.
// Round-trips against json_writer where the two meet (escaping, number
// rendering) and pins the failure modes the daemon turns into typed
// "bad-json" responses.
#include "support/json_reader.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"
#include "support/json_writer.hpp"
#include "support/rng.hpp"

namespace jepo {
namespace {

using json::Value;
using json::parseJson;

TEST(JsonReader, ParsesScalars) {
  EXPECT_TRUE(parseJson("null").isNull());
  EXPECT_TRUE(parseJson("true").asBool());
  EXPECT_FALSE(parseJson("false").asBool());
  EXPECT_DOUBLE_EQ(parseJson("1.5").asDouble(), 1.5);
  EXPECT_DOUBLE_EQ(parseJson("-2e3").asDouble(), -2000.0);
  EXPECT_EQ(parseJson("\"hi\"").asString(), "hi");
  EXPECT_EQ(parseJson("  42  ").asUint64(), 42u);
}

TEST(JsonReader, IntegersRoundTripExactly) {
  // 2^63 - 1 and 2^64 - 1 are not representable as doubles; seeds and
  // heap limits must survive anyway.
  EXPECT_EQ(parseJson("9223372036854775807").asInt64(),
            9223372036854775807LL);
  EXPECT_EQ(parseJson("18446744073709551615").asUint64(),
            18446744073709551615ULL);
  EXPECT_EQ(parseJson("-9223372036854775808").asInt64(),
            INT64_MIN);
  EXPECT_THROW(parseJson("-1").asUint64(), Error);
  EXPECT_THROW(parseJson("1.5").asInt64(), Error);
  EXPECT_THROW(parseJson("1e3").asInt64(), Error);  // not an integer literal
}

TEST(JsonReader, ParsesNestedStructures) {
  const Value v = parseJson(
      R"({"a":[1,2,{"b":"c"}],"d":{"e":null},"f":true})");
  ASSERT_TRUE(v.isObject());
  const Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->asArray().size(), 3u);
  EXPECT_EQ(a->asArray()[2].find("b")->asString(), "c");
  EXPECT_TRUE(v.find("d")->find("e")->isNull());
  EXPECT_TRUE(v.boolOr("f", false));
  EXPECT_EQ(v.find("zzz"), nullptr);
}

TEST(JsonReader, DecodesEscapes) {
  EXPECT_EQ(parseJson(R"("a\"b\\c\/d\n\t\r\b\f")").asString(),
            "a\"b\\c/d\n\t\r\b\f");
  EXPECT_EQ(parseJson(R"("\u0041\u000a\u00e9")").asString(),
            "A\n\xc3\xa9");
}

TEST(JsonReader, DecodesUnicodeEscapesToUtf8) {
  // A compliant client may escape any non-ASCII char instead of sending
  // raw UTF-8; both spellings must decode to the same bytes.
  EXPECT_EQ(parseJson(R"("\u20ac")").asString(), "\xe2\x82\xac");  // U+20AC EURO SIGN
  EXPECT_EQ(parseJson(R"("\uFFFF")").asString(), "\xef\xbf\xbf");
  // Surrogate pair: U+1F600 GRINNING FACE, with mixed-case hex digits.
  EXPECT_EQ(parseJson(R"("\ud83d\ude00")").asString(), "\xf0\x9f\x98\x80");
  EXPECT_EQ(parseJson(R"("\uD83D\uDE00")").asString(), "\xf0\x9f\x98\x80");
}

TEST(JsonReader, RejectsMalformedSurrogates) {
  const char* bad[] = {
      R"("\ud83d")",       // lone high surrogate
      R"("\ud83dx")",      // high surrogate not followed by an escape
      R"("\ud83d\n")",     // high surrogate followed by a non-\u escape
      R"("\ud83d\u0041")",  // high surrogate paired with a non-surrogate
      R"("\ude00")",       // lone low surrogate
  };
  for (const char* text : bad) {
    EXPECT_THROW(parseJson(text), Error) << "input: " << text;
  }
}

TEST(JsonReader, RoundTripsWriterOutput) {
  JsonWriter w;
  w.beginObject();
  w.kv("text", "line1\nline2\ttabbed \"quoted\" \x01 control");
  w.kv("num", 0.30000000000000004);
  w.kv("count", 12345678901234567ULL);
  w.key("arr");
  w.beginArray();
  w.value(false);
  w.null();
  w.endArray();
  w.endObject();

  const Value v = parseJson(w.str());
  EXPECT_EQ(v.find("text")->asString(),
            "line1\nline2\ttabbed \"quoted\" \x01 control");
  EXPECT_DOUBLE_EQ(v.find("num")->asDouble(), 0.30000000000000004);
  EXPECT_EQ(v.find("count")->asUint64(), 12345678901234567ULL);
  EXPECT_FALSE(v.find("arr")->asArray()[0].asBool());
  EXPECT_TRUE(v.find("arr")->asArray()[1].isNull());
}

TEST(JsonReader, RejectsMalformedInput) {
  const char* bad[] = {
      "",              // empty
      "{",             // unterminated object
      "[1,]",          // trailing comma
      "{\"a\":}",      // missing value
      "{\"a\" 1}",     // missing colon
      "{a:1}",         // unquoted key
      "\"abc",         // unterminated string
      "tru",           // bad literal
      "NaN",           // non-finite literal
      "Infinity",
      "01",            // leading zero
      "1.",            // bare decimal point
      "+1",            // leading plus
      "\"\x01\"",      // raw control char in string
      "{} {}",         // trailing tokens
      "\"\\q\"",       // bad escape
      "\"\\u12\"",     // short \u escape
  };
  for (const char* text : bad) {
    EXPECT_THROW(parseJson(text), Error) << "input: " << text;
  }
}

TEST(JsonReader, RejectsPathologicalNesting) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_THROW(parseJson(deep), Error);
}

TEST(JsonReader, LenientHelpersFallBackOnMissingOrMistyped) {
  const Value v = parseJson(R"({"s":"x","n":7,"b":true,"wrong":"notnum"})");
  EXPECT_EQ(v.stringOr("s", "d"), "x");
  EXPECT_EQ(v.stringOr("missing", "d"), "d");
  EXPECT_EQ(v.uint64Or("n", 0), 7u);
  EXPECT_EQ(v.uint64Or("wrong", 9), 9u);
  EXPECT_DOUBLE_EQ(v.doubleOr("n", 0.0), 7.0);
  EXPECT_TRUE(v.boolOr("b", false));
  EXPECT_TRUE(v.boolOr("missing", true));
}


// ------------------------------------------------------------- generator

/// What the reader reports for a document that is one JSON string: the
/// decoded bytes, or its error text ("json: <what> at byte <n>").
struct Decoded {
  bool ok = false;
  std::string text;
  bool operator==(const Decoded&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Decoded& d) {
  return os << (d.ok ? "value " : "error ") << ::testing::PrintToString(d.text);
}

/// Reference decoder for a document holding one JSON string, written one
/// byte at a time from RFC 8259 and the reader's error messages and
/// offsets: an error is reported at the byte that breaks the grammar (for
/// a surrogate that does not pair up, just after its four hex digits), and
/// running out of input is "unexpected end of input" at the document's end.
class ReferenceDecoder {
 public:
  explicit ReferenceDecoder(std::string_view doc) : doc_(doc) {}

  Decoded decode() {
    try {
      std::string out = decodeString();
      while (pos_ < doc_.size() && (doc_[pos_] == ' ' || doc_[pos_] == '\t' ||
                                    doc_[pos_] == '\n' || doc_[pos_] == '\r')) {
        ++pos_;
      }
      if (pos_ != doc_.size()) fail("trailing characters", pos_);
      return {true, std::move(out)};
    } catch (const Decoded& error) {
      return error;
    }
  }

 private:
  [[noreturn]] static void fail(std::string_view what, std::size_t at) {
    throw Decoded{false, "json: " + std::string(what) + " at byte " +
                             std::to_string(at)};
  }

  unsigned char next() {
    if (pos_ >= doc_.size()) fail("unexpected end of input", doc_.size());
    return static_cast<unsigned char>(doc_[pos_++]);
  }

  unsigned hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const std::size_t at = pos_;
      const unsigned char h = next();
      unsigned digit = 0;
      if (h >= '0' && h <= '9') {
        digit = h - '0';
      } else if (h >= 'a' && h <= 'f') {
        digit = h - 'a' + 10;
      } else if (h >= 'A' && h <= 'F') {
        digit = h - 'A' + 10;
      } else {
        fail("invalid \\u escape", at);
      }
      code = code * 16 + digit;
    }
    return code;
  }

  static void appendUtf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::string decodeString() {
    if (next() != '"') fail("expected '\"'", 0);
    std::string out;
    for (;;) {
      const std::size_t at = pos_;
      const unsigned char c = next();
      if (c == '"') return out;
      if (c < 0x20) fail("unescaped control character in string", at);
      if (c != '\\') {
        out += static_cast<char>(c);
        continue;
      }
      const std::size_t escAt = pos_;
      switch (next()) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = hex4();
          if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate in \\u escape", pos_);
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            constexpr std::string_view kNoLow =
                "high surrogate must be followed by \\u low surrogate";
            const std::size_t backslashAt = pos_;
            if (next() != '\\') fail(kNoLow, backslashAt);
            const std::size_t uAt = pos_;
            if (next() != 'u') fail(kNoLow, uAt);
            const unsigned low = hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("invalid low surrogate in \\u escape", pos_);
            }
            code = 0x10000 + (code - 0xD800) * 0x400 + (low - 0xDC00);
          }
          appendUtf8(out, code);
          break;
        }
        default: fail("invalid escape", escAt);
      }
    }
  }

  std::string_view doc_;
  std::size_t pos_ = 0;
};

Decoded readerDecode(std::string_view doc) {
  try {
    return {true, parseJson(doc).asString()};
  } catch (const Error& e) {
    return {false, e.what()};
  }
}

std::string hex4Text(Rng& rng, unsigned code) {
  static constexpr char kLower[] = "0123456789abcdef";
  static constexpr char kUpper[] = "0123456789ABCDEF";
  std::string out = "\\u";
  for (int shift = 12; shift >= 0; shift -= 4) {
    const unsigned d = (code >> shift) & 0xF;
    out += rng.nextBelow(2) == 0 ? kLower[d] : kUpper[d];
  }
  return out;
}

/// One piece of a generated string body: mostly runs of plain bytes
/// (including raw UTF-8 and other high bytes) and every kind of escape;
/// about one piece in thirty is malformed.
std::string randomPiece(Rng& rng) {
  if (rng.nextBelow(30) == 0) {
    switch (rng.nextBelow(8)) {
      case 0: return std::string(1, static_cast<char>(rng.nextBelow(0x20)));
      case 1: return hex4Text(rng, 0xDC00 + rng.nextBelow(0x400));
      case 2: return hex4Text(rng, 0xD800 + rng.nextBelow(0x400));
      case 3:
        return hex4Text(rng, 0xD800 + rng.nextBelow(0x400)) +
               hex4Text(rng, rng.nextBelow(0xD800));
      case 4:
        return hex4Text(rng, 0xD800 + rng.nextBelow(0x400)) + "\\n";
      case 5: {
        char esc;
        do {
          esc = static_cast<char>(rng.nextBelow(256));
        } while (std::string_view("\"\\/bfnrtu").find(esc) !=
                 std::string_view::npos);
        return std::string("\\") + esc;
      }
      case 6: {
        std::string out =
            hex4Text(rng, static_cast<unsigned>(rng.nextBelow(0x10000)));
        out[2 + rng.nextBelow(4)] = "gxG\"\\ z"[rng.nextBelow(7)];
        return out;
      }
      default: return "\\u" + std::string(rng.nextBelow(4), '7');
    }
  }
  switch (rng.nextBelow(5)) {
    case 0:
    case 1: {
      std::string run;
      const std::uint64_t len = rng.nextBelow(40);
      for (std::uint64_t i = 0; i < len; ++i) {
        unsigned char c;
        do {
          c = static_cast<unsigned char>(0x20 + rng.nextBelow(0xe0));
        } while (c == '"' || c == '\\');
        run += static_cast<char>(c);
      }
      return run;
    }
    case 2: {
      static constexpr const char* kShort[] = {"\\\"", "\\\\", "\\/", "\\b",
                                               "\\f",  "\\n",  "\\r", "\\t"};
      return kShort[rng.nextBelow(8)];
    }
    case 3: {
      unsigned code;
      do {
        code = static_cast<unsigned>(rng.nextBelow(0x10000));
      } while (code >= 0xD800 && code <= 0xDFFF);
      return hex4Text(rng, code);
    }
    default: {
      const auto code =
          static_cast<unsigned>(0x10000 + rng.nextBelow(0x100000));
      return hex4Text(rng, 0xD800 + ((code - 0x10000) >> 10)) +
             hex4Text(rng, 0xDC00 + ((code - 0x10000) & 0x3FF));
    }
  }
}

/// A document holding one generated string; one in ten is cut short
/// (anywhere, escapes included) and one in twenty carries trailing text.
std::string randomStringDocument(Rng& rng) {
  std::string doc = "\"";
  const std::uint64_t pieces = rng.nextBelow(12);
  for (std::uint64_t i = 0; i < pieces; ++i) doc += randomPiece(rng);
  doc += '"';
  switch (rng.nextBelow(20)) {
    case 0:
    case 1: doc.resize(rng.nextBelow(doc.size())); break;
    case 2: doc += rng.nextBelow(2) == 0 ? " \n" : " x"; break;
    default: break;
  }
  return doc;
}

TEST(JsonReaderGenerator, DecodedStringsMatchTheReferenceDecoder) {
  // Every byte alone and after a backslash, then seeded documents.
  std::vector<std::string> docs;
  for (int c = 0; c < 256; ++c) {
    const char byte = static_cast<char>(c);
    docs.push_back({'"', byte, '"'});
    docs.push_back({'"', '\\', byte, '"'});
  }
  Rng rng(0x1eade7);
  for (int i = 0; i < 10000; ++i) docs.push_back(randomStringDocument(rng));
  int valid = 0;
  for (std::size_t i = 0; i < docs.size(); ++i) {
    const std::string& doc = docs[i];
    const Decoded want = ReferenceDecoder(doc).decode();
    ASSERT_EQ(readerDecode(doc), want)
        << "case " << i << ": " << ::testing::PrintToString(doc);
    if (!want.ok || doc.back() != '"') continue;
    ++valid;
    // The same bytes as an object key and as a member value.
    const Value obj = parseJson("{" + doc + ":" + doc + "}");
    ASSERT_NE(obj.find(want.text), nullptr) << "case " << i;
    ASSERT_EQ(obj.find(want.text)->asString(), want.text) << "case " << i;
  }
  // The mix exercises both outcomes.
  EXPECT_GT(valid, 3000);
  EXPECT_LT(valid, 9000);
}

}  // namespace
}  // namespace jepo
