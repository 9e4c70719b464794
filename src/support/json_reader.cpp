#include "support/json_reader.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "support/json_writer.hpp"

namespace jepo::json {

bool Value::asBool() const {
  JEPO_REQUIRE(isBool(), "JSON value is not a bool");
  return bool_;
}

double Value::asDouble() const {
  JEPO_REQUIRE(isNumber(), "JSON value is not a number");
  return number_;
}

std::int64_t Value::asInt64() const {
  JEPO_REQUIRE(isNumber(), "JSON value is not a number");
  if (!exactInt_) throw Error("JSON number is not an exact int64");
  return int_;
}

std::uint64_t Value::asUint64() const {
  JEPO_REQUIRE(isNumber(), "JSON value is not a number");
  if (!exactUint_) throw Error("JSON number is not an exact uint64");
  return uint_;
}

const std::string& Value::asString() const {
  JEPO_REQUIRE(isString(), "JSON value is not a string");
  return string_;
}

std::string Value::takeString() {
  JEPO_REQUIRE(isString(), "JSON value is not a string");
  return std::exchange(string_, {});
}

const std::vector<Value>& Value::asArray() const {
  JEPO_REQUIRE(isArray(), "JSON value is not an array");
  return array_;
}

const Value* Value::find(std::string_view key) const noexcept {
  if (!isObject()) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value* Value::find(std::string_view key) noexcept {
  return const_cast<Value*>(std::as_const(*this).find(key));
}

std::string Value::stringOr(std::string_view key, std::string def) const {
  const Value* v = find(key);
  return (v != nullptr && v->isString()) ? v->asString() : std::move(def);
}

std::uint64_t Value::uint64Or(std::string_view key,
                              std::uint64_t def) const {
  const Value* v = find(key);
  return (v != nullptr && v->isNumber() && v->exactUint_) ? v->uint_ : def;
}

double Value::doubleOr(std::string_view key, double def) const {
  const Value* v = find(key);
  return (v != nullptr && v->isNumber()) ? v->number_ : def;
}

bool Value::boolOr(std::string_view key, bool def) const {
  const Value* v = find(key);
  return (v != nullptr && v->isBool()) ? v->bool_ : def;
}

Value Value::makeBool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::makeNumber(double d, bool exactInt, std::int64_t i,
                        bool exactUint, std::uint64_t u) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  v.exactInt_ = exactInt;
  v.int_ = i;
  v.exactUint_ = exactUint;
  v.uint_ = u;
  return v;
}

Value Value::makeString(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::makeArray(std::vector<Value> items) {
  Value v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

Value Value::makeObject(std::vector<Member> members) {
  Value v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parseDocument() {
    skipWs();
    Value v = parseValue(/*depth=*/0);
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  // Nesting bound: a hostile client must not be able to overflow the
  // daemon's stack with ten thousand '['s.
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json: " + what + " at byte " + std::to_string(pos_));
  }

  bool atEnd() const noexcept { return pos_ >= text_.size(); }

  char peek() const {
    if (atEnd()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void skipWs() {
    while (!atEnd()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void expectLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      fail("invalid literal");
    }
    pos_ += lit.size();
  }

  Value parseValue(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    switch (peek()) {
      case 'n': expectLiteral("null"); return Value::makeNull();
      case 't': expectLiteral("true"); return Value::makeBool(true);
      case 'f': expectLiteral("false"); return Value::makeBool(false);
      case '"': return Value::makeString(parseString());
      case '[': return parseArray(depth);
      case '{': return parseObject(depth);
      default: return parseNumber();
    }
  }

  Value parseArray(int depth) {
    expect('[');
    std::vector<Value> items;
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return Value::makeArray(std::move(items));
    }
    for (;;) {
      skipWs();
      items.push_back(parseValue(depth + 1));
      skipWs();
      const char c = take();
      if (c == ']') return Value::makeArray(std::move(items));
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']'");
      }
    }
  }

  Value parseObject(int depth) {
    expect('{');
    std::vector<Member> members;
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return Value::makeObject(std::move(members));
    }
    for (;;) {
      skipWs();
      if (peek() != '"') fail("expected object key");
      std::string key = parseString();
      skipWs();
      expect(':');
      skipWs();
      Value v = parseValue(depth + 1);
      members.emplace_back(std::move(key), std::move(v));
      skipWs();
      const char c = take();
      if (c == '}') return Value::makeObject(std::move(members));
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}'");
      }
    }
  }

  unsigned takeHex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = take();
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        --pos_;
        fail("invalid \\u escape");
      }
    }
    return code;
  }

  std::string parseString() {
    expect('"');
    std::string out;
    for (;;) {
      // The bytes that end a plain run are exactly those a JSON string
      // must escape: the quote, the backslash and control characters.
      const std::size_t run = detail::plainJsonPrefix(text_.substr(pos_));
      out.append(text_, pos_, run);
      pos_ += run;
      const char c = take();
      if (c == '"') return out;
      if (c != '\\') {
        --pos_;
        fail("unescaped control character in string");
      }
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // Full JSON \uXXXX decoding to UTF-8, including surrogate
          // pairs — a standards-compliant client is free to escape any
          // non-ASCII character instead of sending raw UTF-8 bytes.
          unsigned code = takeHex4();
          if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate in \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (take() != '\\' || take() != 'u') {
              --pos_;
              fail("high surrogate must be followed by \\u low surrogate");
            }
            const unsigned low = takeHex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("invalid low surrogate in \\u escape");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
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
          break;
        }
        default:
          --pos_;
          fail("invalid escape");
      }
    }
  }

  Value parseNumber() {
    const std::size_t start = pos_;
    if (!atEnd() && text_[pos_] == '-') ++pos_;
    if (atEnd() || !isDigit(text_[pos_])) fail("invalid number");
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (!atEnd() && isDigit(text_[pos_])) ++pos_;
    }
    bool integral = true;
    if (!atEnd() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (atEnd() || !isDigit(text_[pos_])) fail("invalid number");
      while (!atEnd() && isDigit(text_[pos_])) ++pos_;
    }
    if (!atEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (!atEnd() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (atEnd() || !isDigit(text_[pos_])) fail("invalid number");
      while (!atEnd() && isDigit(text_[pos_])) ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    if (errno == ERANGE && !std::isfinite(d)) fail("number out of range");

    bool exactInt = false;
    std::int64_t i = 0;
    bool exactUint = false;
    std::uint64_t u = 0;
    if (integral) {
      errno = 0;
      const long long ll = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        exactInt = true;
        i = ll;
      }
      if (token[0] != '-') {
        errno = 0;
        const unsigned long long ull = std::strtoull(token.c_str(), &end, 10);
        if (errno == 0 && end == token.c_str() + token.size()) {
          exactUint = true;
          u = ull;
        }
      } else if (exactInt && i >= 0) {
        exactUint = true;  // "-0"
        u = static_cast<std::uint64_t>(i);
      }
    }
    return Value::makeNumber(d, exactInt, i, exactUint, u);
  }

  static bool isDigit(char c) noexcept { return c >= '0' && c <= '9'; }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parseJson(std::string_view text) {
  return Parser(text).parseDocument();
}

}  // namespace jepo::json
