// Runtime value model for the MiniJava VM.
//
// Values are a small tagged union: Java's primitive widths are tracked
// exactly (int wraps at 32 bits, long at 64) because JEPO's long→int and
// double→float refactorings are only legal when the observable behaviour is
// preserved — the semantic-preservation tests depend on faithful widths.
#pragma once

#include <cstdint>
#include <string>

#include "support/error.hpp"

namespace jepo::jvm {

enum class ValKind : std::uint8_t {
  kNull,
  kBool,
  kByte,
  kShort,
  kInt,
  kLong,
  kChar,
  kFloat,
  kDouble,
  kRef,  // index into the Heap (string, builder, array, object, boxed)
};

using Ref = std::uint32_t;

/// Sentinel for "no object": used by lazy literal pools, the row-load
/// cache, and the GC forwarding table for objects that did not survive a
/// collection. Never a valid heap index (the heap caps out well below 2^32).
inline constexpr Ref kInvalidRef = 0xFFFFFFFFu;

struct Value {
  ValKind kind = ValKind::kNull;
  union {
    std::int64_t i;
    double d;
    Ref ref;
  };

  Value() : i(0) {}

  static Value null() { return Value{}; }
  static Value ofBool(bool b) { return make(ValKind::kBool, b ? 1 : 0); }
  static Value ofByte(std::int64_t v) {
    return make(ValKind::kByte, static_cast<std::int8_t>(v));
  }
  static Value ofShort(std::int64_t v) {
    return make(ValKind::kShort, static_cast<std::int16_t>(v));
  }
  static Value ofInt(std::int64_t v) {
    return make(ValKind::kInt, static_cast<std::int32_t>(v));
  }
  static Value ofLong(std::int64_t v) { return make(ValKind::kLong, v); }
  static Value ofChar(std::int64_t v) {
    return make(ValKind::kChar, static_cast<std::uint16_t>(v));
  }
  static Value ofFloat(double v) {
    Value out;
    out.kind = ValKind::kFloat;
    out.d = static_cast<float>(v);  // round through binary32
    return out;
  }
  static Value ofDouble(double v) {
    Value out;
    out.kind = ValKind::kDouble;
    out.d = v;
    return out;
  }
  static Value ofRef(Ref r) {
    Value out;
    out.kind = ValKind::kRef;
    out.ref = r;
    return out;
  }

  bool isNull() const noexcept { return kind == ValKind::kNull; }
  bool isRef() const noexcept { return kind == ValKind::kRef; }
  bool isIntegral() const noexcept {
    return kind == ValKind::kByte || kind == ValKind::kShort ||
           kind == ValKind::kInt || kind == ValKind::kLong ||
           kind == ValKind::kChar;
  }
  bool isFloating() const noexcept {
    return kind == ValKind::kFloat || kind == ValKind::kDouble;
  }
  bool isNumeric() const noexcept { return isIntegral() || isFloating(); }

  std::int64_t asInt() const {
    JEPO_REQUIRE(isIntegral() || kind == ValKind::kBool,
                 "value is not integral");
    return i;
  }
  double asDouble() const {
    if (isFloating()) return d;
    JEPO_REQUIRE(isIntegral(), "value is not numeric");
    return static_cast<double>(i);
  }
  bool asBool() const {
    JEPO_REQUIRE(kind == ValKind::kBool, "value is not boolean");
    return i != 0;
  }
  Ref asRef() const {
    JEPO_REQUIRE(kind == ValKind::kRef, "value is not a reference");
    return ref;
  }

 private:
  static Value make(ValKind k, std::int64_t v) {
    Value out;
    out.kind = k;
    out.i = v;
    return out;
  }
};

}  // namespace jepo::jvm
