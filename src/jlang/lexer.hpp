// Hand-written MiniJava lexer. Produces the whole token stream eagerly;
// source files in this repository are small enough that simplicity wins.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "jlang/arena.hpp"
#include "jlang/token.hpp"

namespace jepo::jlang {

class Lexer {
 public:
  /// Token texts are views into `source`, except decoded string literals
  /// with escapes, which are written to `decoded`. Both must outlive the
  /// tokens.
  Lexer(std::string_view source, Arena& decoded);

  /// Tokenize to EOF; throws ParseError on malformed input. The returned
  /// vector always ends with a kEof token.
  std::vector<Token> tokenize();

 private:
  bool atEnd() const noexcept { return pos_ >= src_.size(); }
  char peek(std::size_t ahead = 0) const noexcept;
  /// Consume one byte that is not a newline.
  char advance() noexcept { return src_[pos_++]; }
  /// Consume one byte that may be a newline.
  char advanceAny() noexcept;
  /// Move to `to`, counting the newlines passed over.
  void skipTo(std::size_t to) noexcept;
  bool match(char expected) noexcept;
  /// 1-based column of the next byte.
  int col() const noexcept { return static_cast<int>(pos_ - lineStart_) + 1; }

  void skipWhitespaceAndComments();
  /// Append a token of `type` at the current token start, built in place.
  Token& add(Tok type);
  void lexNumber();
  void lexIdentifierOrKeyword();
  void lexString();
  void lexChar();
  /// The character an escape sequence stands for; the backslash has been
  /// consumed. `what` names the literal kind for the unterminated error.
  char lexEscape(const char* what);
  [[noreturn]] void fail(const std::string& msg) const;

  std::string_view src_;
  Arena& decoded_;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  // Lines are counted where a newline is consumed; a column is the
  // distance from the current line's first byte.
  int line_ = 1;
  std::size_t lineStart_ = 0;
  int tokLine_ = 1;
  int tokCol_ = 1;
};

}  // namespace jepo::jlang
