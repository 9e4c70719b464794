// Minimal streaming JSON writer: objects, arrays, escaped strings, numbers.
//
// Header-only on purpose — the obs layer (src/obs) renders Chrome traces
// with it while jepo_support's ThreadPool links jepo_obs for task spans;
// keeping this file link-free breaks what would otherwise be a dependency
// cycle between the two libraries. Benches reuse the same writer for their
// --json reports, so every machine-readable artifact shares one escaping
// and number-formatting policy.
//
// JSON has no NaN/Infinity: non-finite doubles render as null so a bad
// measurement can never produce an unparseable report (the CI validator
// then flags the null energy instead of a parse error).
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace jepo {

namespace detail {

constexpr bool needsJsonEscape(unsigned char c) {
  return c < 0x20 || c == '"' || c == '\\';
}

/// Does any byte of `w` need an escape? Exact (no false positives), by the
/// classic has-zero-byte / has-less-than word tricks.
constexpr bool wordNeedsJsonEscape(std::uint64_t w) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
  const std::uint64_t quote = w ^ (kOnes * '"');
  const std::uint64_t backslash = w ^ (kOnes * '\\');
  return (((w - kOnes * 0x20) & ~w) | ((quote - kOnes) & ~quote) |
          ((backslash - kOnes) & ~backslash)) &
         kHigh;
}

/// Length of the longest prefix of `s` that needs no escape, scanned
/// eight bytes at a time.
inline std::size_t plainJsonPrefix(std::string_view s) {
  std::size_t i = 0;
  for (; s.size() - i >= 8; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, s.data() + i, sizeof word);
    if (wordNeedsJsonEscape(word)) break;
  }
  while (i < s.size() && !needsJsonEscape(static_cast<unsigned char>(s[i]))) {
    ++i;
  }
  return i;
}

}  // namespace detail

/// Append `s` to `out` as valid JSON string *contents* (no surrounding
/// quotes): quote, backslash, the short escapes, and \u00XX for other
/// control chars. Runs of plain bytes go out in one append each.
inline void appendJsonEscaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (;;) {
    const std::size_t run = detail::plainJsonPrefix(s);
    out.append(s.data(), run);
    if (run == s.size()) return;
    const auto c = static_cast<unsigned char>(s[run]);
    s.remove_prefix(run + 1);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(esc, sizeof esc);
      }
    }
  }
}

/// Append `s` as a quoted, escaped JSON string.
inline void appendJsonString(std::string& out, std::string_view s) {
  out += '"';
  appendJsonEscaped(out, s);
  out += '"';
}

/// Longest text writeJsonNumber produces ("-2.2250738585072014e-308").
inline constexpr std::size_t kMaxJsonNumberChars = 24;

/// Write the shortest round-trip decimal for a finite double, null
/// otherwise, at `p`, which has room for kMaxJsonNumberChars; returns the
/// end.
inline char* writeJsonNumber(char* p, double v) {
  if (!std::isfinite(v)) {
    std::memcpy(p, "null", 4);
    return p + 4;
  }
  return std::to_chars(p, p + kMaxJsonNumberChars, v).ptr;
}

/// Append writeJsonNumber's text.
inline void appendJsonNumber(std::string& out, double v) {
  char buf[kMaxJsonNumberChars];
  out.append(buf, writeJsonNumber(buf, v));
}

/// Append an integer's decimal digits (signed or unsigned, never wrapped).
template <class T>
void appendJsonInteger(std::string& out, T v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

/// appendJsonEscaped into a fresh string.
inline std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  appendJsonEscaped(out, s);
  return out;
}

/// appendJsonNumber into a fresh string.
inline std::string jsonNumber(double v) {
  std::string out;
  appendJsonNumber(out, v);
  return out;
}

/// A tagged scalar for callers that assemble heterogeneous rows (bench
/// reports mix strings, counts, percentages and booleans in one record).
class JsonValue {
 public:
  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  JsonValue(int v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(long v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(long long v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(unsigned v) : kind_(Kind::kUint), uint_(v) {}
  JsonValue(unsigned long v) : kind_(Kind::kUint), uint_(v) {}
  JsonValue(unsigned long long v) : kind_(Kind::kUint), uint_(v) {}
  JsonValue(double v) : kind_(Kind::kDouble), double_(v) {}
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}
  JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  JsonValue(std::string_view s) : kind_(Kind::kString), string_(s) {}

  /// Append this value's JSON text to `out`.
  void appendTo(std::string& out) const {
    switch (kind_) {
      case Kind::kNull: out += "null"; return;
      case Kind::kBool: out += bool_ ? "true" : "false"; return;
      case Kind::kInt: appendJsonInteger(out, int_); return;
      case Kind::kUint: appendJsonInteger(out, uint_); return;
      case Kind::kDouble: appendJsonNumber(out, double_); return;
      case Kind::kString: appendJsonString(out, string_); return;
    }
    out += "null";
  }

  std::string render() const {
    std::string out;
    appendTo(out);
    return out;
  }

 private:
  enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString };
  Kind kind_;
  bool bool_ = false;
  long long int_ = 0;
  unsigned long long uint_ = 0;
  double double_ = 0.0;
  std::string string_;
};

/// Streaming writer with automatic comma/colon placement. Usage:
///
///   JsonWriter w;
///   w.beginObject();
///   w.key("rows"); w.beginArray(); w.value(1); w.value("x"); w.endArray();
///   w.endObject();
///   w.str();   // {"rows":[1,"x"]}
///
/// Misuse (value without key inside an object, unbalanced end*) trips
/// JEPO_REQUIRE — the writers are all test-covered, so a trip is a bug in
/// the calling report code, never data-dependent.
class JsonWriter {
 public:
  void beginObject() {
    separator(false);
    out_ += '{';
    stack_.push_back({/*array=*/false, /*first=*/true});
  }

  void endObject() {
    JEPO_REQUIRE(!stack_.empty() && !stack_.back().array,
                 "endObject outside an object");
    JEPO_REQUIRE(!keyPending_, "endObject with a dangling key");
    stack_.pop_back();
    out_ += '}';
  }

  void beginArray() {
    separator(false);
    out_ += '[';
    stack_.push_back({/*array=*/true, /*first=*/true});
  }

  void endArray() {
    JEPO_REQUIRE(!stack_.empty() && stack_.back().array,
                 "endArray outside an array");
    stack_.pop_back();
    out_ += ']';
  }

  void key(std::string_view k) {
    JEPO_REQUIRE(!stack_.empty() && !stack_.back().array,
                 "key outside an object");
    JEPO_REQUIRE(!keyPending_, "two keys in a row");
    separator(true);
    out_ += '"';
    appendJsonEscaped(out_, k);
    out_ += "\":";
    keyPending_ = true;
  }

  // Every value lands in the document in place, so no call builds a
  // JsonValue or a temporary string. The std::string and const char*
  // overloads are exact matches that keep strings off the JsonValue and
  // bool conversions; float promotes to double; every integer type (bool
  // aside) takes the template.
  void value(const JsonValue& v) {
    separator(false);
    v.appendTo(out_);
  }
  void value(std::string_view s) {
    separator(false);
    appendJsonString(out_, s);
  }
  void value(const std::string& s) { value(std::string_view(s)); }
  void value(const char* s) { value(std::string_view(s)); }
  void value(bool v) {
    separator(false);
    out_ += v ? "true" : "false";
  }
  void value(double v) {
    separator(false);
    appendJsonNumber(out_, v);
  }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  void value(T v) {
    separator(false);
    appendJsonInteger(out_, v);
  }
  void null() {
    separator(false);
    out_ += "null";
  }

  /// The next value, appended unchecked by `append(out)`: the caller
  /// vouches that it appends exactly one valid JSON value. For hot output
  /// whose layout never changes (a profile response's records), written
  /// from literal fragments without per-key bookkeeping.
  template <class Append>
  void rawValue(Append&& append) {
    separator(false);
    append(out_);
  }

  /// key + value in one call, for flat objects.
  template <class T>
  void kv(std::string_view k, const T& v) {
    key(k);
    value(v);
  }

  /// Pre-size the document for callers that can estimate its length.
  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  /// The document so far; complete (balanced) once the stack is empty.
  const std::string& str() const {
    JEPO_REQUIRE(stack_.empty() && !keyPending_,
                 "JSON document is unbalanced");
    return out_;
  }

  /// Move the complete document out (same balance check as str()); the
  /// writer is left empty.
  std::string take() {
    JEPO_REQUIRE(stack_.empty() && !keyPending_,
                 "JSON document is unbalanced");
    return std::exchange(out_, std::string());
  }

 private:
  struct Level {
    bool array;
    bool first;
  };

  /// Emit the comma that separates this token from its predecessor.
  /// `forKey`: the token is a key (values right after a key never separate).
  void separator(bool forKey) {
    if (keyPending_) {
      JEPO_REQUIRE(!forKey, "two keys in a row");
      keyPending_ = false;
      return;
    }
    if (stack_.empty()) return;
    JEPO_REQUIRE(stack_.back().array || forKey,
                 "object members need a key first");
    if (!stack_.back().first) out_ += ',';
    stack_.back().first = false;
  }

  std::string out_;
  std::vector<Level> stack_;
  bool keyPending_ = false;
};

}  // namespace jepo
