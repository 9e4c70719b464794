#include "jlang/lexer.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include "support/error.hpp"

namespace jepo::jlang {

namespace {

// ASCII classes, matching <cctype> in the "C" locale without its calls.
bool isDigit(char c) noexcept { return c >= '0' && c <= '9'; }
bool isAlpha(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool isIdentChar(char c) noexcept {
  return isAlpha(c) || isDigit(c) || c == '_';
}
bool isSpace(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');  // \t \n \v \f \r
}

struct Keyword {
  std::string_view text;
  Tok tok;
};

/// Sorted by text, for binary search.
constexpr Keyword kKeywords[] = {
    {"boolean", Tok::kKwBoolean},   {"break", Tok::kKwBreak},
    {"byte", Tok::kKwByte},         {"case", Tok::kKwCase},
    {"catch", Tok::kKwCatch},       {"char", Tok::kKwChar},
    {"class", Tok::kKwClass},       {"continue", Tok::kKwContinue},
    {"default", Tok::kKwDefault},   {"double", Tok::kKwDouble},
    {"else", Tok::kKwElse},         {"false", Tok::kKwFalse},
    {"final", Tok::kKwFinal},       {"finally", Tok::kKwFinally},
    {"float", Tok::kKwFloat},       {"for", Tok::kKwFor},
    {"if", Tok::kKwIf},             {"import", Tok::kKwImport},
    {"int", Tok::kKwInt},           {"long", Tok::kKwLong},
    {"new", Tok::kKwNew},           {"null", Tok::kKwNull},
    {"package", Tok::kKwPackage},   {"private", Tok::kKwPrivate},
    {"public", Tok::kKwPublic},     {"return", Tok::kKwReturn},
    {"short", Tok::kKwShort},       {"static", Tok::kKwStatic},
    {"switch", Tok::kKwSwitch},     {"this", Tok::kKwThis},
    {"throw", Tok::kKwThrow},       {"true", Tok::kKwTrue},
    {"try", Tok::kKwTry},           {"void", Tok::kKwVoid},
    {"while", Tok::kKwWhile},
};

/// The keyword `word` spells, or kIdentifier. Every keyword is 2-8
/// letters from 'b' to 'w', which turns most identifiers away unsearched.
Tok keywordOf(std::string_view word) noexcept {
  if (word.size() < 2 || word.size() > 8 || word[0] < 'b' || word[0] > 'w') {
    return Tok::kIdentifier;
  }
  const auto* it = std::lower_bound(
      std::begin(kKeywords), std::end(kKeywords), word,
      [](const Keyword& k, std::string_view w) { return k.text < w; });
  return it != std::end(kKeywords) && it->text == word ? it->tok
                                                       : Tok::kIdentifier;
}

/// strtod/strtoll over a digit run that is not NUL-terminated.
template <typename Fn>
auto parseDigits(std::string_view digits, Fn fn) {
  char buf[64];
  if (digits.size() < sizeof buf) {
    std::memcpy(buf, digits.data(), digits.size());
    buf[digits.size()] = '\0';
    return fn(buf);
  }
  return fn(std::string(digits).c_str());
}

}  // namespace

Lexer::Lexer(std::string_view source, Arena& decoded)
    : src_(source), decoded_(decoded) {}

char Lexer::peek(std::size_t ahead) const noexcept {
  return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
}

char Lexer::advanceAny() noexcept {
  const char c = src_[pos_++];
  if (c == '\n') {
    ++line_;
    lineStart_ = pos_;
  }
  return c;
}

void Lexer::skipTo(std::size_t to) noexcept {
  for (std::size_t nl = src_.find('\n', pos_); nl < to;
       nl = src_.find('\n', nl + 1)) {
    ++line_;
    lineStart_ = nl + 1;
  }
  pos_ = to;
}

bool Lexer::match(char expected) noexcept {
  if (atEnd() || src_[pos_] != expected) return false;
  advance();
  return true;
}

void Lexer::fail(const std::string& msg) const {
  throw ParseError("lex error: " + msg, line_, col());
}

void Lexer::skipWhitespaceAndComments() {
  for (;;) {
    if (atEnd()) return;
    const char c = peek();
    if (isSpace(c)) {
      advanceAny();
    } else if (c == '/' && peek(1) == '/') {
      pos_ = std::min(src_.find('\n', pos_), src_.size());
    } else if (c == '/' && peek(1) == '*') {
      const std::size_t close = src_.find("*/", pos_ + 2);
      if (close == std::string_view::npos) {
        skipTo(src_.size());
        fail("unterminated block comment");
      }
      skipTo(close + 2);
    } else {
      return;
    }
  }
}

Token Lexer::makeToken(Tok type) const {
  Token t;
  t.type = type;
  t.line = tokLine_;
  t.col = tokCol_;
  return t;
}

Token Lexer::lexNumber() {
  const std::size_t start = pos_;
  bool isFloat = false;
  bool scientific = false;

  while (isDigit(peek())) advance();
  if (peek() == '.' && isDigit(peek(1))) {
    isFloat = true;
    advance();
    while (isDigit(peek())) advance();
  }
  if (peek() == 'e' || peek() == 'E') {
    const char sign = peek(1);
    const char digit = (sign == '+' || sign == '-') ? peek(2) : sign;
    if (isDigit(digit)) {
      isFloat = true;
      scientific = true;
      advance();  // e
      if (peek() == '+' || peek() == '-') advance();
      while (isDigit(peek())) advance();
    }
  }

  const std::string_view digits = src_.substr(start, pos_ - start);
  Token t = makeToken(Tok::kIntLiteral);
  t.text = digits;
  t.scientific = scientific;
  const auto toDouble = [digits] {
    return parseDigits(digits,
                       [](const char* s) { return std::strtod(s, nullptr); });
  };
  const auto toInt = [digits] {
    return parseDigits(digits, [](const char* s) {
      return static_cast<std::int64_t>(std::strtoll(s, nullptr, 10));
    });
  };

  if (peek() == 'f' || peek() == 'F') {
    advance();
    t.type = Tok::kFloatLiteral;
    t.floatValue = toDouble();
    return t;
  }
  if (peek() == 'd' || peek() == 'D') {
    advance();
    t.type = Tok::kDoubleLiteral;
    t.floatValue = toDouble();
    return t;
  }
  if (isFloat) {
    t.type = Tok::kDoubleLiteral;
    t.floatValue = toDouble();
    return t;
  }
  if (peek() == 'l' || peek() == 'L') {
    advance();
    t.type = Tok::kLongLiteral;
    t.intValue = toInt();
    return t;
  }
  t.type = Tok::kIntLiteral;
  t.intValue = toInt();
  return t;
}

Token Lexer::lexIdentifierOrKeyword() {
  const std::size_t start = pos_;
  while (isIdentChar(peek())) advance();
  const std::string_view name = src_.substr(start, pos_ - start);
  Token t = makeToken(keywordOf(name));
  t.text = name;
  if (t.type == Tok::kKwTrue) t.intValue = 1;
  return t;
}

char Lexer::lexEscape(const char* what) {
  if (atEnd()) fail(std::string("unterminated ") + what + " literal");
  const char esc = advanceAny();
  switch (esc) {
    case 'n': return '\n';
    case 't': return '\t';
    case 'r': return '\r';
    case '\\': return '\\';
    case '"': return '"';
    case '\'': return '\'';
    case '0': return '\0';
    default: fail(std::string("unknown escape \\") + esc);
  }
}

Token Lexer::lexString() {
  advance();  // opening quote
  const std::size_t start = pos_;
  // A literal without escapes stays a view of the source; from the first
  // escape on, it is decoded into `text`.
  std::string text;
  bool escaped = false;
  while (peek() != '"') {
    if (atEnd() || peek() == '\n') fail("unterminated string literal");
    const char c = advance();
    if (c == '\\' && !escaped) {
      text.assign(src_.substr(start, pos_ - 1 - start));
      escaped = true;
    }
    if (escaped) text += c == '\\' ? lexEscape("string") : c;
  }
  const std::string_view raw = src_.substr(start, pos_ - start);
  advance();  // closing quote
  Token t = makeToken(Tok::kStringLiteral);
  t.text = escaped ? decoded_.copy(text) : raw;
  return t;
}

Token Lexer::lexChar() {
  advance();  // opening quote
  const std::size_t start = pos_;
  if (atEnd()) fail("unterminated char literal");
  char c = advanceAny();
  if (c == '\\') c = lexEscape("char");
  if (peek() != '\'') fail("unterminated char literal");
  Token t = makeToken(Tok::kCharLiteral);
  t.text = src_.substr(start, pos_ - start);  // the spelling, e.g. \t
  t.intValue = static_cast<unsigned char>(c);
  advance();  // closing quote
  return t;
}

std::vector<Token> Lexer::tokenize() {
  std::vector<Token> out;
  // MiniJava sources average a little over four bytes per token.
  out.reserve(src_.size() / 4 + 1);
  for (;;) {
    skipWhitespaceAndComments();
    tokLine_ = line_;
    tokCol_ = col();
    if (atEnd()) {
      out.push_back(makeToken(Tok::kEof));
      return out;
    }
    const char c = peek();
    if (isDigit(c)) {
      out.push_back(lexNumber());
      continue;
    }
    if (isAlpha(c) || c == '_') {
      out.push_back(lexIdentifierOrKeyword());
      continue;
    }
    if (c == '"') {
      out.push_back(lexString());
      continue;
    }
    if (c == '\'') {
      out.push_back(lexChar());
      continue;
    }
    advance();
    switch (c) {
      case '(': out.push_back(makeToken(Tok::kLParen)); break;
      case ')': out.push_back(makeToken(Tok::kRParen)); break;
      case '{': out.push_back(makeToken(Tok::kLBrace)); break;
      case '}': out.push_back(makeToken(Tok::kRBrace)); break;
      case '[': out.push_back(makeToken(Tok::kLBracket)); break;
      case ']': out.push_back(makeToken(Tok::kRBracket)); break;
      case ';': out.push_back(makeToken(Tok::kSemicolon)); break;
      case ',': out.push_back(makeToken(Tok::kComma)); break;
      case '.': out.push_back(makeToken(Tok::kDot)); break;
      case ':': out.push_back(makeToken(Tok::kColon)); break;
      case '?': out.push_back(makeToken(Tok::kQuestion)); break;
      case '~': out.push_back(makeToken(Tok::kTilde)); break;
      case '+':
        out.push_back(makeToken(match('+') ? Tok::kPlusPlus
                                : match('=') ? Tok::kPlusAssign
                                             : Tok::kPlus));
        break;
      case '-':
        out.push_back(makeToken(match('-') ? Tok::kMinusMinus
                                : match('=') ? Tok::kMinusAssign
                                             : Tok::kMinus));
        break;
      case '*':
        out.push_back(makeToken(match('=') ? Tok::kStarAssign : Tok::kStar));
        break;
      case '/':
        out.push_back(makeToken(match('=') ? Tok::kSlashAssign : Tok::kSlash));
        break;
      case '%':
        out.push_back(
            makeToken(match('=') ? Tok::kPercentAssign : Tok::kPercent));
        break;
      case '<':
        out.push_back(makeToken(match('<')   ? Tok::kShl
                                : match('=') ? Tok::kLe
                                             : Tok::kLt));
        break;
      case '>':
        out.push_back(makeToken(match('>')   ? Tok::kShr
                                : match('=') ? Tok::kGe
                                             : Tok::kGt));
        break;
      case '=':
        out.push_back(makeToken(match('=') ? Tok::kEqEq : Tok::kAssign));
        break;
      case '!':
        out.push_back(makeToken(match('=') ? Tok::kNotEq : Tok::kBang));
        break;
      case '&':
        out.push_back(makeToken(match('&') ? Tok::kAmpAmp : Tok::kAmp));
        break;
      case '|':
        out.push_back(makeToken(match('|') ? Tok::kPipePipe : Tok::kPipe));
        break;
      case '^': out.push_back(makeToken(Tok::kCaret)); break;
      default:
        fail(std::string("unexpected character '") + c + "'");
    }
  }
}

}  // namespace jepo::jlang
