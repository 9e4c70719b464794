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

/// A word of at most eight bytes as an integer, first byte highest: keys
/// order as the words do, and words of 1-8 letters pack to distinct keys,
/// so keywords are found without memcmp.
constexpr std::uint64_t packWord(std::string_view word) noexcept {
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < word.size(); ++i) {
    key |= std::uint64_t{static_cast<unsigned char>(word[i])} << (56 - 8 * i);
  }
  return key;
}

struct Keyword {
  std::uint64_t key;
  Tok tok;
};

/// Sorted by spelling, hence by key, for binary search.
constexpr Keyword kKeywords[] = {
    {packWord("boolean"), Tok::kKwBoolean},
    {packWord("break"), Tok::kKwBreak},
    {packWord("byte"), Tok::kKwByte},
    {packWord("case"), Tok::kKwCase},
    {packWord("catch"), Tok::kKwCatch},
    {packWord("char"), Tok::kKwChar},
    {packWord("class"), Tok::kKwClass},
    {packWord("continue"), Tok::kKwContinue},
    {packWord("default"), Tok::kKwDefault},
    {packWord("double"), Tok::kKwDouble},
    {packWord("else"), Tok::kKwElse},
    {packWord("false"), Tok::kKwFalse},
    {packWord("final"), Tok::kKwFinal},
    {packWord("finally"), Tok::kKwFinally},
    {packWord("float"), Tok::kKwFloat},
    {packWord("for"), Tok::kKwFor},
    {packWord("if"), Tok::kKwIf},
    {packWord("import"), Tok::kKwImport},
    {packWord("int"), Tok::kKwInt},
    {packWord("long"), Tok::kKwLong},
    {packWord("new"), Tok::kKwNew},
    {packWord("null"), Tok::kKwNull},
    {packWord("package"), Tok::kKwPackage},
    {packWord("private"), Tok::kKwPrivate},
    {packWord("public"), Tok::kKwPublic},
    {packWord("return"), Tok::kKwReturn},
    {packWord("short"), Tok::kKwShort},
    {packWord("static"), Tok::kKwStatic},
    {packWord("switch"), Tok::kKwSwitch},
    {packWord("this"), Tok::kKwThis},
    {packWord("throw"), Tok::kKwThrow},
    {packWord("true"), Tok::kKwTrue},
    {packWord("try"), Tok::kKwTry},
    {packWord("void"), Tok::kKwVoid},
    {packWord("while"), Tok::kKwWhile},
};
static_assert(std::is_sorted(std::begin(kKeywords), std::end(kKeywords),
                             [](const Keyword& x, const Keyword& y) {
                               return x.key < y.key;
                             }));

/// The keyword `word` spells, or kIdentifier. Every keyword is 2-8
/// letters from 'b' to 'w', which turns most identifiers away unsearched.
Tok keywordOf(std::string_view word) noexcept {
  if (word.size() < 2 || word.size() > 8 || word[0] < 'b' || word[0] > 'w') {
    return Tok::kIdentifier;
  }
  const std::uint64_t key = packWord(word);
  const auto* it = std::lower_bound(
      std::begin(kKeywords), std::end(kKeywords), key,
      [](const Keyword& k, std::uint64_t w) { return k.key < w; });
  return it != std::end(kKeywords) && it->key == key ? it->tok
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

Token& Lexer::add(Tok type) {
  Token& t = tokens_.emplace_back();
  t.type = type;
  t.line = tokLine_;
  t.col = tokCol_;
  return t;
}

void Lexer::lexNumber() {
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
  Token& t = add(Tok::kIntLiteral);
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
  } else if (peek() == 'd' || peek() == 'D') {
    advance();
    t.type = Tok::kDoubleLiteral;
    t.floatValue = toDouble();
  } else if (isFloat) {
    t.type = Tok::kDoubleLiteral;
    t.floatValue = toDouble();
  } else if (peek() == 'l' || peek() == 'L') {
    advance();
    t.type = Tok::kLongLiteral;
    t.intValue = toInt();
  } else {
    t.intValue = toInt();
  }
}

void Lexer::lexIdentifierOrKeyword() {
  const std::size_t start = pos_;
  while (isIdentChar(peek())) advance();
  const std::string_view name = src_.substr(start, pos_ - start);
  add(keywordOf(name)).text = name;
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

void Lexer::lexString() {
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
  add(Tok::kStringLiteral).text = escaped ? decoded_.copy(text) : raw;
}

void Lexer::lexChar() {
  advance();  // opening quote
  const std::size_t start = pos_;
  if (atEnd()) fail("unterminated char literal");
  char c = advanceAny();
  if (c == '\\') c = lexEscape("char");
  if (peek() != '\'') fail("unterminated char literal");
  Token& t = add(Tok::kCharLiteral);
  t.text = src_.substr(start, pos_ - start);  // the spelling, e.g. \t
  t.intValue = static_cast<unsigned char>(c);
  advance();  // closing quote
}

std::vector<Token> Lexer::tokenize() {
  // MiniJava sources average a little over four bytes per token.
  tokens_.reserve(src_.size() / 4 + 1);
  for (;;) {
    skipWhitespaceAndComments();
    tokLine_ = line_;
    tokCol_ = col();
    if (atEnd()) {
      add(Tok::kEof);
      return std::move(tokens_);
    }
    const char c = peek();
    if (isDigit(c)) {
      lexNumber();
      continue;
    }
    if (isAlpha(c) || c == '_') {
      lexIdentifierOrKeyword();
      continue;
    }
    if (c == '"') {
      lexString();
      continue;
    }
    if (c == '\'') {
      lexChar();
      continue;
    }
    advance();
    switch (c) {
      case '(': add(Tok::kLParen); break;
      case ')': add(Tok::kRParen); break;
      case '{': add(Tok::kLBrace); break;
      case '}': add(Tok::kRBrace); break;
      case '[': add(Tok::kLBracket); break;
      case ']': add(Tok::kRBracket); break;
      case ';': add(Tok::kSemicolon); break;
      case ',': add(Tok::kComma); break;
      case '.': add(Tok::kDot); break;
      case ':': add(Tok::kColon); break;
      case '?': add(Tok::kQuestion); break;
      case '~': add(Tok::kTilde); break;
      case '+':
        add(match('+')   ? Tok::kPlusPlus
            : match('=') ? Tok::kPlusAssign
                         : Tok::kPlus);
        break;
      case '-':
        add(match('-')   ? Tok::kMinusMinus
            : match('=') ? Tok::kMinusAssign
                         : Tok::kMinus);
        break;
      case '*': add(match('=') ? Tok::kStarAssign : Tok::kStar); break;
      case '/': add(match('=') ? Tok::kSlashAssign : Tok::kSlash); break;
      case '%': add(match('=') ? Tok::kPercentAssign : Tok::kPercent); break;
      case '<':
        add(match('<')   ? Tok::kShl
            : match('=') ? Tok::kLe
                         : Tok::kLt);
        break;
      case '>':
        add(match('>')   ? Tok::kShr
            : match('=') ? Tok::kGe
                         : Tok::kGt);
        break;
      case '=': add(match('=') ? Tok::kEqEq : Tok::kAssign); break;
      case '!': add(match('=') ? Tok::kNotEq : Tok::kBang); break;
      case '&': add(match('&') ? Tok::kAmpAmp : Tok::kAmp); break;
      case '|': add(match('|') ? Tok::kPipePipe : Tok::kPipe); break;
      case '^': add(Tok::kCaret); break;
      default:
        fail(std::string("unexpected character '") + c + "'");
    }
  }
}

}  // namespace jepo::jlang
