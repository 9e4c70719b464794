// Recursive-descent parser for MiniJava with classic precedence climbing.
//
// Grammar sketch (modifiers `public`/`private`/`final` are accepted and
// ignored except `static`, which the rules care about):
//
//   unit     := [package qname ;] {import qname ;} {classDecl}
//   class    := mods class Ident { {member} }
//   member   := mods type Ident (fieldRest | methodRest)
//   stmt     := block | varDecl | if | while | for | return | throw |
//               try | switch | break | continue | exprStmt
//   expr     := assignment; assignment := ternary [assignOp assignment]
//   ternary  := or [? expr : ternary]
//   or > and > bitor > bitxor > bitand > equality > relational > shift >
//   additive > multiplicative > unary > postfix > primary
//
// Nesting is budgeted (kMaxNesting): statements and parenthesized or
// argument expressions may nest that deep, and no expression tree may be
// taller. Deeper input is a ParseError, so the parser and every recursive
// walker after it (resolver, printer, suggestion walk, optimizer, compiler,
// tree interpreter) run in bounded stack depth on untrusted source.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "jlang/ast.hpp"
#include "jlang/token.hpp"

namespace jepo::jlang {

class Parser {
 public:
  /// The nesting budget (see the file comment).
  static constexpr int kMaxNesting = 256;

  /// Parse one file into a one-unit Program; throws ParseError with
  /// line:col on bad input. The Program keeps its own copy of `source`.
  static Program parseProgram(std::string fileName, std::string_view source);

  /// Parse one more file into `program`, copying `source` into its arena,
  /// and append the unit to program.units.
  static void addUnit(Program& program, std::string fileName,
                      std::string_view source);

 private:
  Parser(Program& program, std::string fileName, std::string_view source);
  CompilationUnit parseUnit();

  /// Move scratch[mark, end) into an arena list.
  template <typename T>
  List<T> take(std::vector<T>& scratch, std::size_t mark) {
    const List<T> out = arena_.list(std::span<const T>(scratch).subspan(mark));
    scratch.resize(mark);
    return out;
  }
  /// Comma-separated expressions up to and including the closing ')'.
  List<ExprPtr> parseArgs(std::string_view what);
  /// A parenthesized parameter list; `open` and `close` name its parens.
  List<Param> parseParams(std::string_view open, std::string_view close);

  const Token& peek(std::size_t ahead = 0) const;
  const Token& advance();
  bool check(Tok t) const { return peek().type == t; }
  bool match(Tok t);
  /// Consume a `t` token; `what` names the construct for the failure
  /// message, which is built only on failure.
  const Token& expect(Tok t, std::string_view what);
  [[noreturn]] void fail(const std::string& msg) const;

  std::string parseQualifiedName();

  ClassDecl parseClass();
  void parseMember(ClassDecl& cls);
  TypeRef parseType();
  bool looksLikeType() const;

  StmtPtr parseStmt();
  StmtPtr parseBlock();
  StmtPtr parseVarDecl(bool requireSemicolon);
  StmtPtr parseIf();
  StmtPtr parseWhile();
  StmtPtr parseFor();
  StmtPtr parseTry();
  StmtPtr parseSwitch();

  ExprPtr parseExpr();
  ExprPtr parseAssignment();
  ExprPtr parseTernary();
  ExprPtr parseBinary(int minPrec);
  ExprPtr parseUnary();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();

  /// One more level of statement or expression nesting for the guard's
  /// lifetime; fails past kMaxNesting.
  class NestingGuard {
   public:
    explicit NestingGuard(Parser& parser);
    ~NestingGuard() { --parser_.depth_; }
    NestingGuard(const NestingGuard&) = delete;
    NestingGuard& operator=(const NestingGuard&) = delete;

   private:
    Parser& parser_;
  };
  /// Stamp a completed node's height (its children are complete) and hold
  /// it to the budget.
  ExprPtr sealed(ExprPtr node) const;

  std::string fileName_;
  Arena& arena_;
  std::string_view source_;  // the arena copy being parsed
  std::vector<Token> tokens_;
  // Children of the lists being parsed, innermost last: a list's entries
  // move to the arena once it is complete.
  std::vector<StmtPtr> stmtScratch_;
  std::vector<ExprPtr> exprScratch_;
  std::vector<Param> paramScratch_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace jepo::jlang
