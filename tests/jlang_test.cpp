#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>

#include "energy/machine.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "jlang/lexer.hpp"
#include "jlang/parser.hpp"
#include "jlang/printer.hpp"
#include "jlang/resolve.hpp"
#include "jvm/interpreter.hpp"
#include "support/strings.hpp"

namespace jepo::jlang {
namespace {

std::vector<Token> lex(std::string_view src) {
  // Tokens view `src`, or this arena for decoded string literals.
  static Arena decoded;
  return Lexer(src, decoded).tokenize();
}

/// Parses into a Program kept alive for the rest of the test binary, so
/// the returned unit's nodes and names stay valid wherever it is copied.
const CompilationUnit& parse(std::string_view src) {
  static std::deque<Program> programs;
  programs.push_back(Parser::parseProgram("test.mjava", src));
  return programs.back().units.front();
}

// ------------------------------------------------------------------ lexer

TEST(Lexer, EmptySourceYieldsEof) {
  const auto toks = lex("");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].type, Tok::kEof);
}

TEST(Lexer, NumericLiteralFlavors) {
  const auto toks = lex("1 12L 1.5 1.5f 2e3 2.5E-2 3d");
  ASSERT_GE(toks.size(), 8u);
  EXPECT_EQ(toks[0].type, Tok::kIntLiteral);
  EXPECT_EQ(toks[0].intValue, 1);
  EXPECT_EQ(toks[1].type, Tok::kLongLiteral);
  EXPECT_EQ(toks[1].intValue, 12);
  EXPECT_EQ(toks[2].type, Tok::kDoubleLiteral);
  EXPECT_DOUBLE_EQ(toks[2].floatValue, 1.5);
  EXPECT_FALSE(toks[2].scientific);
  EXPECT_EQ(toks[3].type, Tok::kFloatLiteral);
  EXPECT_FLOAT_EQ(static_cast<float>(toks[3].floatValue), 1.5f);
  EXPECT_EQ(toks[4].type, Tok::kDoubleLiteral);
  EXPECT_DOUBLE_EQ(toks[4].floatValue, 2000.0);
  EXPECT_TRUE(toks[4].scientific);
  EXPECT_EQ(toks[5].type, Tok::kDoubleLiteral);
  EXPECT_DOUBLE_EQ(toks[5].floatValue, 0.025);
  EXPECT_TRUE(toks[5].scientific);
  EXPECT_EQ(toks[6].type, Tok::kDoubleLiteral);  // 3d
}

TEST(Lexer, StringAndCharEscapes) {
  const auto toks = lex(R"("a\nb" '\t' '\'' "quote\"end")");
  EXPECT_EQ(toks[0].type, Tok::kStringLiteral);
  EXPECT_EQ(toks[0].text, "a\nb");
  EXPECT_EQ(toks[1].type, Tok::kCharLiteral);
  EXPECT_EQ(toks[1].intValue, '\t');
  EXPECT_EQ(toks[2].intValue, '\'');
  EXPECT_EQ(toks[3].text, "quote\"end");
}

TEST(Lexer, CommentsAreSkipped) {
  const auto toks = lex("a // line comment\n /* block\n comment */ b");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
  EXPECT_EQ(toks[1].line, 3);
}

TEST(Lexer, OperatorsMaximalMunch) {
  const auto toks = lex("++ += + << <= < >= >> > == = != ! && & || |");
  const std::vector<Tok> expect = {
      Tok::kPlusPlus, Tok::kPlusAssign, Tok::kPlus, Tok::kShl, Tok::kLe,
      Tok::kLt,       Tok::kGe,         Tok::kShr,  Tok::kGt,  Tok::kEqEq,
      Tok::kAssign,   Tok::kNotEq,      Tok::kBang, Tok::kAmpAmp, Tok::kAmp,
      Tok::kPipePipe, Tok::kPipe,       Tok::kEof};
  ASSERT_EQ(toks.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(toks[i].type, expect[i]) << "token " << i;
  }
}

TEST(Lexer, TracksLineAndColumn) {
  const auto toks = lex("a\n  b");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[0].col, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[1].col, 3);
}

TEST(Lexer, RejectsMalformedInput) {
  EXPECT_THROW(lex("\"unterminated"), ParseError);
  EXPECT_THROW(lex("'ab'"), ParseError);
  EXPECT_THROW(lex("/* open"), ParseError);
  EXPECT_THROW(lex("#"), ParseError);
}

/// "line:col message" of the ParseError that lexing `text` throws.
std::string lexErrorAt(std::string_view text) {
  try {
    lex(text);
  } catch (const ParseError& e) {
    return std::to_string(e.line()) + ":" + std::to_string(e.col()) + " " +
           e.what();
  }
  return "no error";
}

TEST(Lexer, ErrorPositionsArePinned) {
  const std::pair<const char*, const char*> cases[] = {
      {"\"unterminated", "1:14 lex error: unterminated string literal at 1:14"},
      {"'ab'", "1:3 lex error: unterminated char literal at 1:3"},
      {"/* open", "1:8 lex error: unterminated block comment at 1:8"},
      {"#", "1:2 lex error: unexpected character '#' at 1:2"},
      // Newlines inside block comments, char literals and escapes.
      {"/* a\n b\n*/ x #", "3:7 lex error: unexpected character '#' at 3:7"},
      {"/* one\n two\n three",
       "3:7 lex error: unterminated block comment at 3:7"},
      {"int a;\n  /* x\n */ \"abc\ndef\"",
       "3:9 lex error: unterminated string literal at 3:9"},
      {"'\n' #", "2:4 lex error: unexpected character '#' at 2:4"},
      {"\"a\\\nb\"", "2:1 lex error: unknown escape \\\n at 2:1"},
      {"x\n'\\q'", "2:4 lex error: unknown escape \\q at 2:4"},
      {"a /* *\n** / */\n\t b /**/ c\r\n  'x\n",
       "4:5 lex error: unterminated char literal at 4:5"},
  };
  for (const auto& [text, want] : cases) {
    EXPECT_EQ(lexErrorAt(text), want) << "input: " << text;
  }
}

TEST(Lexer, PositionsAfterMultiLineTokens) {
  const auto toks = lex("/* a\n */ b /* c */ d\n\te '\n' f \"s\\n\" g\r\n  h");
  const std::pair<int, int> want[] = {{2, 5}, {2, 15}, {3, 2}, {3, 4},
                                      {4, 3}, {4, 5},  {4, 11}, {5, 3},
                                      {5, 4}};
  ASSERT_EQ(toks.size(), std::size(want));
  for (std::size_t i = 0; i < toks.size(); ++i) {
    EXPECT_EQ(std::make_pair(toks[i].line, toks[i].col), want[i])
        << "token " << i;
  }
}

/// The message of the ParseError that lexing `text` throws, lexed from a
/// heap buffer of exactly its length: no terminator follows the last byte,
/// so a read past it is a heap-buffer-overflow under ASan.
std::string lexErrorOfExactBuffer(std::string_view text) {
  const auto buf = std::make_unique<char[]>(text.size());
  std::memcpy(buf.get(), text.data(), text.size());
  try {
    lex(std::string_view(buf.get(), text.size()));
  } catch (const ParseError& e) {
    return e.what();
  }
  return "no error";
}

TEST(Lexer, TrailingBackslashIsAnUnterminatedLiteral) {
  EXPECT_NE(lexErrorOfExactBuffer("\"abc\\").find(
                "unterminated string literal"),
            std::string::npos);
  EXPECT_NE(lexErrorOfExactBuffer("'\\").find("unterminated char literal"),
            std::string::npos);
}

// ----------------------------------------------------------------- parser

TEST(Parser, PackageImportsAndClass) {
  const auto unit = parse(R"(
    package weka.classifiers.trees;
    import weka.core.Instances;
    import weka.core.Utils;
    class J48 { }
  )");
  EXPECT_EQ(unit.packageName, "weka.classifiers.trees");
  ASSERT_EQ(unit.imports.size(), 2u);
  EXPECT_EQ(unit.imports[0], "weka.core.Instances");
  ASSERT_EQ(unit.classes.size(), 1u);
  EXPECT_EQ(unit.classes[0].name, "J48");
}

TEST(Parser, FieldsWithModifiersAndGroups) {
  const auto unit = parse(R"(
    class C {
      static int counter = 0;
      private double ridge;
      int a, b = 2, c;
      long[] weights;
      double[][] matrix;
    }
  )");
  const ClassDecl& c = unit.classes[0];
  ASSERT_EQ(c.fields.size(), 7u);
  EXPECT_TRUE(c.fields[0].isStatic);
  EXPECT_EQ(c.fields[0].name, "counter");
  EXPECT_FALSE(c.fields[1].isStatic);
  EXPECT_EQ(c.fields[2].name, "a");
  EXPECT_EQ(c.fields[3].name, "b");
  ASSERT_NE(c.fields[3].init, nullptr);
  EXPECT_EQ(c.fields[4].name, "c");
  EXPECT_EQ(c.fields[5].type.arrayDims, 1);
  EXPECT_EQ(c.fields[5].type.prim, Prim::kLong);
  EXPECT_EQ(c.fields[6].type.arrayDims, 2);
}

TEST(Parser, MethodSignatures) {
  const auto unit = parse(R"(
    class C {
      static void main(String[] args) { }
      int add(int a, int b) { return a + b; }
      double[] copy(double[] src, int n) { return src; }
    }
  )");
  const ClassDecl& c = unit.classes[0];
  ASSERT_EQ(c.methods.size(), 3u);
  EXPECT_TRUE(c.methods[0].isStatic);
  EXPECT_EQ(c.methods[0].params.size(), 1u);
  EXPECT_EQ(c.methods[0].params[0].type.className, "String");
  EXPECT_EQ(c.methods[0].params[0].type.arrayDims, 1);
  EXPECT_EQ(c.methods[1].returnType.prim, Prim::kInt);
  EXPECT_EQ(c.methods[2].returnType.arrayDims, 1);
}

ExprPtr parseOneExpr(const std::string& expr) {
  const auto& unit = parse("class C { void m() { int x = " + expr + "; } }");
  return unit.classes[0].methods[0].body->body[0]->init;
}

TEST(Parser, PrecedenceMulOverAdd) {
  const auto e = parseOneExpr("1 + 2 * 3");
  ASSERT_EQ(e->kind, ExprKind::kBinary);
  EXPECT_EQ(e->binOp, BinOp::kAdd);
  EXPECT_EQ(e->b->binOp, BinOp::kMul);
}

TEST(Parser, PrecedenceComparisonOverLogical) {
  const auto e = parseOneExpr("a < b && c > d");
  EXPECT_EQ(e->binOp, BinOp::kAndAnd);
  EXPECT_EQ(e->a->binOp, BinOp::kLt);
  EXPECT_EQ(e->b->binOp, BinOp::kGt);
}

TEST(Parser, TernaryNestsRightAssociatively) {
  const auto e = parseOneExpr("a ? 1 : b ? 2 : 3");
  ASSERT_EQ(e->kind, ExprKind::kTernary);
  EXPECT_EQ(e->c->kind, ExprKind::kTernary);
}

TEST(Parser, CallsFieldsAndIndexChains) {
  const auto e = parseOneExpr("obj.field.method(1, x)[i]");
  ASSERT_EQ(e->kind, ExprKind::kArrayIndex);
  const Expr& call = *e->a;
  ASSERT_EQ(call.kind, ExprKind::kCall);
  EXPECT_EQ(call.strValue, "method");
  EXPECT_EQ(call.args.size(), 2u);
  EXPECT_EQ(call.a->kind, ExprKind::kFieldAccess);
}

TEST(Parser, NewObjectAndArrays) {
  const auto obj = parseOneExpr("new StringBuilder()");
  EXPECT_EQ(obj->kind, ExprKind::kNew);
  EXPECT_EQ(obj->strValue, "StringBuilder");

  const auto arr = parseOneExpr("new double[10][20]");
  ASSERT_EQ(arr->kind, ExprKind::kNewArray);
  EXPECT_EQ(arr->args.size(), 2u);
  EXPECT_EQ(arr->type.prim, Prim::kDouble);
}

TEST(Parser, CastVsParenExpression) {
  const auto cast = parseOneExpr("(int) x");
  ASSERT_EQ(cast->kind, ExprKind::kCast);
  EXPECT_EQ(cast->type.prim, Prim::kInt);

  const auto paren = parseOneExpr("(x) + 1");
  EXPECT_EQ(paren->kind, ExprKind::kBinary);
}

TEST(Parser, StatementForms) {
  const auto unit = parse(R"(
    class C {
      int m(int n) {
        int total = 0;
        for (int i = 0; i < n; i++) {
          total += i;
        }
        while (total > 100) total--;
        if (total % 2 == 0) total++; else total--;
        switch (total) {
          case 0: return 0;
          case 1: break;
          default: total = 5;
        }
        try {
          total /= n;
        } catch (ArithmeticException e) {
          total = -1;
        } finally {
          total++;
        }
        return total;
      }
    }
  )");
  const auto& body = unit.classes[0].methods[0].body->body;
  ASSERT_EQ(body.size(), 7u);
  EXPECT_EQ(body[0]->kind, StmtKind::kVarDecl);
  EXPECT_EQ(body[1]->kind, StmtKind::kFor);
  EXPECT_EQ(body[2]->kind, StmtKind::kWhile);
  EXPECT_EQ(body[3]->kind, StmtKind::kIf);
  EXPECT_EQ(body[4]->kind, StmtKind::kSwitch);
  EXPECT_EQ(body[4]->cases.size(), 3u);
  EXPECT_EQ(body[5]->kind, StmtKind::kTry);
  EXPECT_EQ(body[5]->catches.size(), 1u);
  ASSERT_NE(body[5]->finallyBlock, nullptr);
  EXPECT_EQ(body[6]->kind, StmtKind::kReturn);
}

TEST(Parser, RejectsBrokenInput) {
  EXPECT_THROW(parse("class C { int m() { return 1 } }"), ParseError);
  EXPECT_THROW(parse("class C { int m() { 1 = x; } }"), ParseError);
  EXPECT_THROW(parse("class C { void m() { try { } } }"), ParseError);
  EXPECT_THROW(parse("class { }"), ParseError);
  EXPECT_THROW(parse("class C { void m() { x++ ++; } }"), ParseError);
}

TEST(Parser, ErrorsCarryFileAndLocation) {
  try {
    parse("class C {\n  int m() { return 1 }\n}");
    FAIL() << "should throw";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("test.mjava"), std::string::npos);
    EXPECT_EQ(e.line(), 2);
  }
}

std::string nestedMain(int depth, const std::string& open,
                       const std::string& leaf, const std::string& close) {
  std::string expr;
  for (int i = 0; i < depth; ++i) expr += open;
  expr += leaf;
  for (int i = 0; i < depth; ++i) expr += close;
  return "class M { static void main(String[] a) { int x = " + expr +
         "; } }";
}

TEST(Parser, NestingBeyondTheBudgetIsATypedError) {
  // Each shape would otherwise recurse once per level in the parser or in
  // a later AST walker: parentheses, prefix operators, left-associative
  // chains (built iteratively, so only their height betrays them), member
  // chains and nested blocks.
  constexpr int kDeep = 20000;
  const std::string chain = [] {
    std::string e = "1";
    for (int i = 0; i < kDeep; ++i) e += " + 1";
    return "class M { static void main(String[] a) { int x = " + e + "; } }";
  }();
  const std::string blocks = "class M { static void main(String[] a) { " +
                             std::string(kDeep, '{') +
                             std::string(kDeep, '}') + " } }";
  for (const std::string& src :
       {nestedMain(kDeep, "(", "1", ")"), nestedMain(kDeep, "~", "1", ""),
        chain, blocks}) {
    try {
      parse(src);
      ADD_FAILURE() << "accepted " << src.size() << "-byte deep source";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("nest"), std::string::npos)
          << e.what();
    }
  }
  std::string members = "class M { int f(M m) { return m";
  for (int i = 0; i < kDeep; ++i) members += ".f(m)";
  members += "; } }";
  EXPECT_THROW(parse(members), ParseError);

  // Up to the budget the same shapes parse.
  const int ok = Parser::kMaxNesting - 8;
  EXPECT_NO_THROW(parse(nestedMain(ok, "(", "1", ")")));
  EXPECT_NO_THROW(parse(nestedMain(ok, "~", "1", "")));
}

TEST(Parser, MainClassDiscovery) {
  Program prog;
  prog.units.push_back(parse("class A { static void main(String[] a) { } }"));
  prog.units.push_back(parse("class B { void main() { } }"));  // not static
  const auto mains = prog.mainClasses();
  ASSERT_EQ(mains.size(), 1u);
  EXPECT_EQ(mains[0]->name, "A");
  EXPECT_NE(prog.findClass("B"), nullptr);
  EXPECT_EQ(prog.findClass("Zz"), nullptr);
}

// ---------------------------------------------------------------- printer

/// The canonical-print fixpoint property: print(parse(print(x))) == print(x).
void expectRoundTrip(const std::string& src) {
  const auto unit1 = parse(src);
  const std::string printed1 = printUnit(unit1);
  const auto unit2 = parse(printed1);
  const std::string printed2 = printUnit(unit2);
  EXPECT_EQ(printed1, printed2) << "original source:\n" << src;
}

TEST(Printer, RoundTripSimpleClass) {
  expectRoundTrip(R"(
    package demo;
    class C {
      static int hits = 0;
      int twice(int v) { return v * 2; }
    }
  )");
}

TEST(Printer, RoundTripAllStatementForms) {
  expectRoundTrip(R"(
    class K {
      int m(int n) {
        int total = 0;
        long big = 10L;
        double d = 1.5e3;
        float f = 2.5f;
        char ch = 'x';
        String s = "hi\n";
        for (int i = 0; i < n; i++) total += i;
        while (total > 0) { total--; if (total == 3) break; else continue; }
        int t = total > 0 ? 1 : -1;
        switch (t) { case -1: t = 0; break; default: t = 2; }
        try { t = t / n; } catch (ArithmeticException e) { t = 0; }
        finally { t++; }
        int[] a = new int[4];
        int[][] m2 = new int[2][2];
        m2[0][1] = a[2] + (int) d;
        boolean ok = !(t == 0) && (s.equals("hi\n") || n >= 2);
        throw new RuntimeException("end");
      }
    }
  )");
}

TEST(Printer, PreservesScientificNotationSpelling) {
  const auto unit = parse("class C { double d = 1e4; double p = 10000.0; }");
  const std::string out = printUnit(unit);
  EXPECT_NE(out.find("1e4"), std::string::npos);
  EXPECT_NE(out.find("10000.0"), std::string::npos);
}

TEST(Printer, CloneProducesIdenticalPrint) {
  const auto unit = parse(R"(
    class C {
      int f(int x) {
        int y = x % 7;
        return y > 0 ? y : -y;
      }
    }
  )");
  const MethodDecl& m = unit.classes[0].methods[0];
  Program dest;
  const StmtPtr copy = cloneStmt(*m.body, dest);
  EXPECT_EQ(printStmt(*copy), printStmt(*m.body));
}

// ----------------------------------------------------------- AST lifetime

const char* const kLifetimeSource = R"(
  class Main {
    static String greet(String who) { return "hi\t" + who; }
    static void main(String[] args) {
      int acc = 0;
      for (int i = 0; i < 10; i++) acc += i * 3;
      System.out.println(greet("arena") + " " + acc);
    }
  }
)";

std::string runTree(const Program& prog) {
  energy::SimMachine machine;
  jvm::Interpreter interp(prog, machine);
  interp.runMain();
  return interp.output();
}

std::string runBytecode(const Program& prog) {
  const jbc::CompiledProgram compiled = jbc::compile(prog);
  energy::SimMachine machine;
  jbc::BytecodeVm vm(compiled, machine);
  vm.runMain();
  return vm.output();
}

TEST(AstLifetime, ProgramOutlivesTheStringItWasParsedFrom) {
  Program prog;
  {
    std::string source = kLifetimeSource;
    prog = Parser::parseProgram("tmp.mjava", source);
    std::fill(source.begin(), source.end(), '#');  // then it is freed
  }
  ensureResolved(prog);
  EXPECT_EQ(runBytecode(prog), "hi\tarena 135\n");
  EXPECT_EQ(runTree(prog), "hi\tarena 135\n");
  EXPECT_EQ(printUnit(prog.units[0]),
            printUnit(Parser::parseProgram("copy.mjava", kLifetimeSource)
                          .units[0]));
}

TEST(AstLifetime, MovingAProgramKeepsItsNodesInPlace) {
  Program from = Parser::parseProgram("m.mjava", kLifetimeSource);
  const Stmt* body = from.units[0].classes[0].methods[1].body;
  Program to = std::move(from);
  EXPECT_TRUE(from.units.empty());
  EXPECT_EQ(to.units[0].classes[0].methods[1].body, body);
  EXPECT_EQ(runBytecode(to), "hi\tarena 135\n");

  // The moved-from Program takes a new parse and runs too.
  from = Parser::parseProgram("again.mjava", kLifetimeSource);
  EXPECT_EQ(runTree(from), "hi\tarena 135\n");
  EXPECT_EQ(runTree(to), "hi\tarena 135\n");
}

// ------------------------------------------------------------ resolution

/// A static method that exercises every scope rule of the resolver. The
/// statics b, i and e are what those names mean once the locals of the
/// same names have gone out of scope.
constexpr const char* kScopesSource = R"(
class Scopes {
  static int b = 40;
  static int i = 50;
  static int e = 60;

  static void main(String[] args) {
    int a = 1;
    int a = 2;
    System.out.println(a);
    {
      int a = 3;
      int b = 4;
      System.out.println(a + b);
    }
    {
      System.out.println(b);
      int c = 5;
      System.out.println(c);
    }
    for (int i = 0; i < 2; i++) {
      int d = i;
      System.out.println(d);
    }
    System.out.println(i);
    try {
      throw new RuntimeException("x");
    } catch (RuntimeException e) {
      System.out.println(e.getMessage());
    }
    System.out.println(e);
    System.out.println(a);
  }
}
)";

/// The bindings the resolver gave `s`, in walk order: `+name@slot` for a
/// declared local or catch variable, `name@slot` for a local read and
/// `name@static` for a static read.
void appendBindings(const Expr& e, std::string& out) {
  if (e.kind == ExprKind::kVarRef && e.nameRef == NameRef::kLocal) {
    out += concat(e.strValue, "@", std::to_string(e.slot), " ");
  } else if (e.kind == ExprKind::kVarRef &&
             e.nameRef == NameRef::kStaticSlot) {
    out += concat(e.strValue, "@static ");
  }
  forEachChild(e, [&](const Expr& c) { appendBindings(c, out); });
}

void appendBindings(const Stmt& s, std::string& out) {
  for (const auto& c : s.catches) {
    out += concat("+", c.varName, "@", std::to_string(c.slot), " ");
  }
  forEachChild(
      s, [&](const Stmt& c) { appendBindings(c, out); },
      [&](const Expr& c) { appendBindings(c, out); });
  if (s.kind == StmtKind::kVarDecl) {
    out += concat("+", s.declName, "@", std::to_string(s.declSlot), " ");
  }
}

TEST(Resolve, ScopesBindLikeTheInterpreter) {
  const Program prog = Parser::parseProgram("scopes.mjava", kScopesSource);
  ensureResolved(prog);
  const MethodDecl& main = prog.units[0].classes[0].methods[0];
  std::string bindings;
  appendBindings(*main.body, bindings);
  // The first `a` of a scope wins; the inner block's a shadows it; the
  // second block sees the static b, not its sibling's local; i and e are
  // statics again after their for and catch; args holds slot 0.
  EXPECT_EQ(bindings,
            "+a@1 +a@2 a@1 +a@3 +b@4 a@3 b@4 b@static +c@5 c@5 i@6 i@6 "
            "+i@6 i@6 +d@7 d@7 i@static +e@8 e@8 e@static a@1 ");
  // Every declaration has a slot of its own, none reused.
  EXPECT_EQ(main.numSlots, 9);

  const std::string expected = "1\n7\n40\n5\n0\n1\n50\nx\n60\n1\n";
  EXPECT_EQ(runTree(prog), expected);
  EXPECT_EQ(runBytecode(prog), expected);
}

}  // namespace
}  // namespace jepo::jlang
