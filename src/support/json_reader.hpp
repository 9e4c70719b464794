// Minimal strict JSON parser — the read half of json_writer.hpp.
//
// The jepod daemon speaks newline-delimited JSON over a Unix socket, so
// (unlike the benches, which only ever *emit* JSON) it must parse
// arbitrary bytes a client sends. The parser is strict RFC-8259 subset:
// no comments, no trailing commas, no NaN/Infinity literals, UTF-8 passed
// through verbatim, and \uXXXX escapes (including surrogate pairs) decoded
// to UTF-8 — a client's encoder may escape non-ASCII either way. Malformed
// input throws Error with a byte offset so the daemon can turn it into a
// typed "bad-json" response instead of dying.
//
// Numbers keep both views: every number parses as double, and integers
// that fit int64/uint64 are additionally exposed exactly (heap limits and
// seeds must not round-trip through floating point).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace jepo::json {

class Value;

/// Object members in source order (the protocol never needs map lookup
/// speed; order-preserving keeps rendering/debugging deterministic).
using Member = std::pair<std::string, Value>;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  Kind kind() const noexcept { return kind_; }
  bool isNull() const noexcept { return kind_ == Kind::kNull; }
  bool isBool() const noexcept { return kind_ == Kind::kBool; }
  bool isNumber() const noexcept { return kind_ == Kind::kNumber; }
  bool isString() const noexcept { return kind_ == Kind::kString; }
  bool isArray() const noexcept { return kind_ == Kind::kArray; }
  bool isObject() const noexcept { return kind_ == Kind::kObject; }

  /// Typed accessors; JEPO_REQUIRE trips on kind mismatch, so protocol
  /// code validates kinds first (or uses the lenient helpers below).
  bool asBool() const;
  double asDouble() const;
  /// The exact integer value. Throws Error when the number was not
  /// written as an integer that fits the target type.
  std::int64_t asInt64() const;
  std::uint64_t asUint64() const;
  const std::string& asString() const;
  /// Move the string out, leaving this value an empty string.
  std::string takeString();
  const std::vector<Value>& asArray() const;

  /// Member lookup (first match); nullptr when absent or not an object.
  const Value* find(std::string_view key) const noexcept;
  Value* find(std::string_view key) noexcept;

  // --- lenient helpers for optional protocol fields -----------------------
  std::string stringOr(std::string_view key, std::string def) const;
  std::uint64_t uint64Or(std::string_view key, std::uint64_t def) const;
  double doubleOr(std::string_view key, double def) const;
  bool boolOr(std::string_view key, bool def) const;

  // Construction (used by the parser; handy in tests).
  static Value makeNull() { return Value(); }
  static Value makeBool(bool b);
  static Value makeNumber(double d, bool exactInt, std::int64_t i,
                          bool exactUint, std::uint64_t u);
  static Value makeString(std::string s);
  static Value makeArray(std::vector<Value> items);
  static Value makeObject(std::vector<Member> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  bool exactInt_ = false;       // number_ was an integer literal in int64
  std::int64_t int_ = 0;
  bool exactUint_ = false;      // ... and/or in uint64 range
  std::uint64_t uint_ = 0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<Member> object_;
};

/// Parse one complete JSON document; trailing non-whitespace is an error.
/// Throws Error("json: <what> at byte <offset>") on malformed input.
Value parseJson(std::string_view text);

}  // namespace jepo::json
