// Token model for the MiniJava front-end.
//
// MiniJava is the Java subset JEPO's rules fire on (DESIGN.md §1): classes,
// static/instance members, the eight primitive types plus wrapper classes,
// Strings/StringBuilder, 1-D and 2-D arrays, the full operator set including
// ternary and short-circuit forms, control statements, and try/catch/throw.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace jepo::jlang {

enum class Tok : std::uint8_t {
  kEof = 0,
  kIdentifier,
  // Literals. Numeric tokens keep their raw spelling so the parser can tell
  // scientific notation from plain decimals (Table I's rule 2).
  kIntLiteral,
  kLongLiteral,    // 123L
  kFloatLiteral,   // 1.5f
  kDoubleLiteral,  // 1.5, 1.5e3
  kCharLiteral,
  kStringLiteral,
  // Keywords.
  kKwClass, kKwPublic, kKwPrivate, kKwStatic, kKwFinal, kKwVoid,
  kKwByte, kKwShort, kKwInt, kKwLong, kKwFloat, kKwDouble, kKwChar,
  kKwBoolean,
  kKwIf, kKwElse, kKwWhile, kKwFor, kKwReturn, kKwNew,
  kKwTry, kKwCatch, kKwFinally, kKwThrow,
  kKwSwitch, kKwCase, kKwDefault, kKwBreak, kKwContinue,
  kKwTrue, kKwFalse, kKwNull, kKwThis,
  kKwPackage, kKwImport,
  // Punctuation and operators.
  kLParen, kRParen, kLBrace, kRBrace, kLBracket, kRBracket,
  kSemicolon, kComma, kDot, kColon, kQuestion,
  kAssign,        // =
  kPlusAssign, kMinusAssign, kStarAssign, kSlashAssign, kPercentAssign,
  kPlus, kMinus, kStar, kSlash, kPercent,
  kPlusPlus, kMinusMinus,
  kLt, kGt, kLe, kGe, kEqEq, kNotEq,
  kAmpAmp, kPipePipe, kBang,
  kAmp, kPipe, kCaret, kTilde, kShl, kShr,
};

struct Token {
  // Identifier name / literal spelling, quotes stripped: a view into the
  // lexed source. A string literal's escapes are decoded, into the lexer's
  // arena if it has any; a char literal's value is in intValue.
  std::string_view text;
  // Decoded literal payload: one per literal kind.
  union {
    std::int64_t intValue = 0;  // int/long/char literals
    double floatValue;          // float/double literals
  };
  int line = 0;
  int col = 0;
  Tok type = Tok::kEof;
  bool scientific = false;  // literal was written with an exponent
};
static_assert(sizeof(Token) == 40, "the lexer makes one per ~4 source bytes");

std::string tokName(Tok t);

}  // namespace jepo::jlang
