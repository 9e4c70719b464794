#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "energy/machine.hpp"
#include "jepo/optimizer.hpp"
#include "jlang/parser.hpp"
#include "jlang/printer.hpp"
#include "jvm/interpreter.hpp"

namespace jepo::core {
namespace {

using jlang::Parser;
using jlang::Program;

struct RunResult {
  std::string output;
  energy::MachineSample sample;
};

RunResult runProgram(const Program& prog) {
  energy::SimMachine machine;
  jvm::Interpreter interp(prog, machine);
  interp.setMaxSteps(100'000'000);
  interp.runMain();
  return {interp.output(), machine.sample()};
}

OptimizeResult optimizeSource(const std::string& src,
                              OptimizerOptions opts = {}) {
  const Program prog = Parser::parseProgram("t.mjava", src);
  return Optimizer(opts).optimize(prog);
}

std::string printed(const OptimizeResult& r) {
  std::string out;
  for (const auto& u : r.program.units) out += jlang::printUnit(u);
  return out;
}

int countRule(const std::vector<ChangeRecord>& v, RuleId id) {
  int n = 0;
  for (const auto& c : v) n += (c.rule == id);
  return n;
}

// ----------------------------------------------------- scientificRespell

TEST(ScientificRespell, ExactRespellings) {
  std::string s;
  ASSERT_TRUE(scientificRespell(10000.0, &s));
  EXPECT_EQ(s, "1e4");
  ASSERT_TRUE(scientificRespell(1250.0, &s));
  EXPECT_EQ(s, "1.25e3");
  ASSERT_TRUE(scientificRespell(0.00001, &s));
  EXPECT_EQ(s, "1e-5");
  ASSERT_TRUE(scientificRespell(-2500.0, &s));
  EXPECT_EQ(s, "-2.5e3");
  EXPECT_FALSE(scientificRespell(0.0, &s));
  // Round-trip exactness for an awkward value.
  ASSERT_TRUE(scientificRespell(1234.5678, &s));
  EXPECT_EQ(std::strtod(s.c_str(), nullptr), 1234.5678);
}

// ------------------------------------------------------ individual edits

TEST(Optimizer, NarrowsByteShortToInt) {
  const auto r = optimizeSource("class C { short s; void m(byte b) { } }");
  EXPECT_EQ(countRule(r.changes, RuleId::kPrimitiveDataType), 2);
  EXPECT_NE(printed(r).find("int s;"), std::string::npos);
  EXPECT_NE(printed(r).find("m(int b)"), std::string::npos);
}

TEST(Optimizer, ByteWithWrapArithmeticIsKept) {
  // b++ at 127 differs between byte and int: must not rewrite.
  const auto r = optimizeSource(
      "class C { void m() { byte b = 0; b++; } }");
  EXPECT_EQ(countRule(r.changes, RuleId::kPrimitiveDataType), 0);
  EXPECT_NE(printed(r).find("byte b"), std::string::npos);
}

TEST(Optimizer, LongToIntOnlyInLossyMode) {
  const std::string src =
      "class C { void m() { long x = 1L; x = x + 1; } }";
  OptimizerOptions lossless;
  lossless.allowLossyNarrowing = false;
  EXPECT_EQ(countRule(optimizeSource(src, lossless).changes,
                      RuleId::kPrimitiveDataType),
            0);
  OptimizerOptions lossy;  // default
  const auto r = optimizeSource(src, lossy);
  EXPECT_EQ(countRule(r.changes, RuleId::kPrimitiveDataType), 1);
  EXPECT_NE(printed(r).find("int x"), std::string::npos);
}

TEST(Optimizer, DoubleToFloatOnlyInLossyMode) {
  const std::string src = "class C { double d = 1.5; }";
  OptimizerOptions lossless;
  lossless.allowLossyNarrowing = false;
  EXPECT_EQ(optimizeSource(src, lossless).changes.size(), 0u);
  const auto r = optimizeSource(src);
  EXPECT_NE(printed(r).find("float d"), std::string::npos);
}

TEST(Optimizer, RespellsPlainDecimalsAsScientific) {
  const auto r = optimizeSource("class C { double d = 10000.0; }");
  EXPECT_EQ(countRule(r.changes, RuleId::kScientificNotation), 1);
  EXPECT_NE(printed(r).find("1e4"), std::string::npos);
}

TEST(Optimizer, WrapperUpgrades) {
  const auto r = optimizeSource(
      "class C { void m() { Short s = 1; Character c = 'x'; Double d = 1.5; } }");
  EXPECT_EQ(countRule(r.changes, RuleId::kWrapperClass), 2);  // not Double
  EXPECT_EQ(printed(r).find("Short"), std::string::npos);
  EXPECT_NE(printed(r).find("Integer s"), std::string::npos);
}

TEST(Optimizer, ModulusToBitmaskForLoopCounters) {
  const auto r = optimizeSource(R"(
    class C { int m(int n) {
      int acc = 0;
      for (int i = 0; i < n; i++) acc += i % 8;
      return acc;
    } }
  )");
  EXPECT_EQ(countRule(r.changes, RuleId::kModulusOperator), 1);
  EXPECT_NE(printed(r).find("(i & 7)"), std::string::npos);
}

TEST(Optimizer, ModulusOnArbitraryIntIsNotRewritten) {
  // x may be negative: x % 8 != x & 7.
  const auto r = optimizeSource("class C { int m(int x) { return x % 8; } }");
  EXPECT_EQ(countRule(r.changes, RuleId::kModulusOperator), 0);
}

TEST(Optimizer, ModulusByNonPowerOfTwoIsNotRewritten) {
  const auto r = optimizeSource(R"(
    class C { int m(int n) {
      int acc = 0;
      for (int i = 0; i < n; i++) acc += i % 7;
      return acc;
    } }
  )");
  EXPECT_EQ(countRule(r.changes, RuleId::kModulusOperator), 0);
}

TEST(Optimizer, TernaryBecomesIfThenElse) {
  const auto assign = optimizeSource(R"(
    class C { int m(int x) { int y = 0; y = x > 0 ? 1 : 2; return y; } }
  )");
  EXPECT_EQ(countRule(assign.changes, RuleId::kTernaryOperator), 1);
  EXPECT_EQ(printed(assign).find("?"), std::string::npos);
  EXPECT_NE(printed(assign).find("if"), std::string::npos);

  const auto ret = optimizeSource(
      "class C { int m(int x) { return x > 0 ? 1 : 2; } }");
  EXPECT_EQ(countRule(ret.changes, RuleId::kTernaryOperator), 1);
  EXPECT_EQ(printed(ret).find("?"), std::string::npos);

  const auto decl = optimizeSource(
      "class C { int m(int x) { int y = x > 0 ? 1 : 2; return y; } }");
  EXPECT_EQ(countRule(decl.changes, RuleId::kTernaryOperator), 1);
  EXPECT_EQ(printed(decl).find("?"), std::string::npos);
}

TEST(Optimizer, ShortCircuitReorderOnlyWhenPure) {
  const auto pure = optimizeSource(R"(
    class C { boolean m(int a, int b, boolean f) {
      return (a * a + b * b > 100 && a != b) && f;
    } }
  )");
  EXPECT_EQ(countRule(pure.changes, RuleId::kShortCircuitOrder), 2);

  const auto impure = optimizeSource(R"(
    class C {
      boolean probe() { return true; }
      boolean m(int a, boolean f) { return (probe() && a > 0) && f; }
    }
  )");
  EXPECT_EQ(countRule(impure.changes, RuleId::kShortCircuitOrder), 0);
}

TEST(Optimizer, CompareToEqualsRewrites) {
  const auto eq = optimizeSource(
      "class C { boolean m(String a, String b) { return a.compareTo(b) == 0; } }");
  EXPECT_EQ(countRule(eq.changes, RuleId::kStringCompare), 1);
  EXPECT_NE(printed(eq).find("a.equals(b)"), std::string::npos);

  const auto ne = optimizeSource(
      "class C { boolean m(String a, String b) { return a.compareTo(b) != 0; } }");
  EXPECT_NE(printed(ne).find("(!a.equals(b))"), std::string::npos);

  // Ordering uses stay untouched: compareTo < 0 has no equals equivalent.
  const auto lt = optimizeSource(
      "class C { boolean m(String a, String b) { return a.compareTo(b) < 0; } }");
  EXPECT_EQ(countRule(lt.changes, RuleId::kStringCompare), 0);
}

TEST(Optimizer, ManualCopyLoopBecomesArraycopy) {
  const auto r = optimizeSource(R"(
    class C { void m(int[] src, int[] dst, int n) {
      for (int i = 0; i < n; i++) dst[i] = src[i];
    } }
  )");
  EXPECT_EQ(countRule(r.changes, RuleId::kArrayCopy), 1);
  EXPECT_NE(printed(r).find("System.arraycopy(src, 0, dst, 0, n)"),
            std::string::npos);
}

TEST(Optimizer, OffsetCopyLoopKeepsOffsets) {
  const auto r = optimizeSource(R"(
    class C { void m(int[] src, int[] dst, int n) {
      for (int i = 2; i < n; i++) dst[i] = src[i];
    } }
  )");
  EXPECT_EQ(countRule(r.changes, RuleId::kArrayCopy), 1);
  EXPECT_NE(printed(r).find("System.arraycopy(src, 2, dst, 2, (n - 2))"),
            std::string::npos);
}

TEST(Optimizer, TransformingCopyLoopIsKept) {
  const auto r = optimizeSource(R"(
    class C { void m(int[] src, int[] dst, int n) {
      for (int i = 0; i < n; i++) dst[i] = src[i] * 2;
    } }
  )");
  EXPECT_EQ(countRule(r.changes, RuleId::kArrayCopy), 0);
  EXPECT_EQ(printed(r).find("System.arraycopy"), std::string::npos);
}

TEST(Optimizer, LoopInterchangeForColumnTraversal) {
  const auto r = optimizeSource(R"(
    class C { int m(int[][] a, int rows, int cols) {
      int acc = 0;
      for (int j = 0; j < cols; j++)
        for (int i = 0; i < rows; i++)
          acc += a[i][j];
      return acc;
    } }
  )");
  EXPECT_EQ(countRule(r.changes, RuleId::kArrayTraversal), 1);
  const std::string out = printed(r);
  // After interchange the i-loop is outermost.
  const auto iPos = out.find("for (int i = 0");
  const auto jPos = out.find("for (int j = 0");
  ASSERT_NE(iPos, std::string::npos);
  ASSERT_NE(jPos, std::string::npos);
  EXPECT_LT(iPos, jPos);
}

TEST(Optimizer, InterchangeRefusedWhenBoundsDependOnLoopVar) {
  const auto r = optimizeSource(R"(
    class C { int m(int[][] a, int n) {
      int acc = 0;
      for (int j = 0; j < n; j++)
        for (int i = 0; i < j; i++)
          acc += a[i][j];
      return acc;
    } }
  )");
  EXPECT_EQ(countRule(r.changes, RuleId::kArrayTraversal), 0);
}

TEST(Optimizer, ConcatLoopBecomesStringBuilder) {
  const auto r = optimizeSource(R"(
    class C { String m(int n) {
      String s = "";
      for (int i = 0; i < n; i++) s = s + "x";
      return s;
    } }
  )");
  EXPECT_EQ(countRule(r.changes, RuleId::kStringConcat), 1);
  const std::string out = printed(r);
  EXPECT_NE(out.find("new StringBuilder(s)"), std::string::npos);
  EXPECT_NE(out.find(".append("), std::string::npos);
  EXPECT_NE(out.find(".toString()"), std::string::npos);
}

TEST(Optimizer, ConcatLoopWithOtherUsesIsKept) {
  // s is also read as a call argument inside the loop: unsafe to hoist.
  const auto r = optimizeSource(R"(
    class C {
      int len(String x) { return x.length(); }
      String m(int n) {
        String s = "";
        int total = 0;
        for (int i = 0; i < n; i++) { s = s + "x"; total += len(s); }
        return s;
      }
    }
  )");
  EXPECT_EQ(countRule(r.changes, RuleId::kStringConcat), 0);
}

TEST(Optimizer, ReadOnlyStaticIsCachedInLocal) {
  const auto r = optimizeSource(R"(
    class C {
      static int factor = 3;
      static int m(int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) acc += i * factor + factor;
        return acc;
      }
    }
  )");
  EXPECT_EQ(countRule(r.changes, RuleId::kStaticKeyword), 1);
  EXPECT_NE(printed(r).find("int __cached_factor = factor;"),
            std::string::npos);
}

TEST(Optimizer, MutableStaticIsNotCached) {
  const auto r = optimizeSource(R"(
    class C {
      static int counter = 0;
      static int m(int n) {
        for (int i = 0; i < n; i++) counter = counter + 1;
        return counter + counter;
      }
    }
  )");
  EXPECT_EQ(countRule(r.changes, RuleId::kStaticKeyword), 0);
}

TEST(Optimizer, RuleMaskDisablesRewrites) {
  OptimizerOptions opts;
  opts.enabled[static_cast<int>(RuleId::kTernaryOperator)] = false;
  const auto r = optimizeSource(
      "class C { int m(int x) { return x > 0 ? 1 : 2; } }", opts);
  EXPECT_EQ(r.changes.size(), 0u);
  EXPECT_NE(printed(r).find("?"), std::string::npos);
}

TEST(Optimizer, InputProgramIsNotModified) {
  const Program prog = Parser::parseProgram("t.mjava", R"(
    class C {
      static int factor = 2;
      long total;
      int m(int x) { return (x % 4 == 0 ? factor : 10000) + x; }
    }
  )");
  const std::string before = jlang::printUnit(prog.units[0]);
  const OptimizeResult r = Optimizer().optimize(prog);
  ASSERT_FALSE(r.changes.empty());
  EXPECT_EQ(jlang::printUnit(prog.units[0]), before);
  EXPECT_NE(jlang::printUnit(r.program.units[0]), before);
}

TEST(Optimizer, ResultOutlivesTheInputProgram) {
  // The rewrites below name new locals (__sb0, __cached_LIMIT) and respell
  // a literal: all of it must live in the result's own arena.
  OptimizeResult result;
  std::string before;
  {
    std::string source = R"(
      class T {
        static int LIMIT = 8;
        static void main(String[] args) {
          String s = "";
          for (int i = 0; i < LIMIT; i++) { s = s + i; }
          int m = LIMIT > 4 ? LIMIT : 4;
          double big = 25000.0;
          System.out.println(s + " " + m + " " + (big > 1.0));
        }
      }
    )";
    const Program prog = Parser::parseProgram("t.mjava", source);
    before = runProgram(prog).output;
    result = Optimizer().optimize(prog);
    std::fill(source.begin(), source.end(), '#');
  }
  EXPECT_EQ(countRule(result.changes, RuleId::kStringConcat), 1);
  EXPECT_EQ(countRule(result.changes, RuleId::kStaticKeyword), 1);
  EXPECT_EQ(countRule(result.changes, RuleId::kTernaryOperator), 1);
  EXPECT_EQ(countRule(result.changes, RuleId::kScientificNotation), 1);
  EXPECT_EQ(runProgram(result.program).output, before);
  const std::string text = printed(result);
  EXPECT_NE(text.find("__sb0"), std::string::npos);
  EXPECT_NE(text.find("__cached_LIMIT"), std::string::npos);
  EXPECT_NE(text.find("2.5e4"), std::string::npos);
  const Program reparsed = Parser::parseProgram("p.mjava", text);
  EXPECT_EQ(jlang::printUnit(reparsed.units[0]), text);
}

TEST(Optimizer, ChangeRecordsNameFileClassAndLine) {
  const auto r = optimizeSource(
      "class A {\n"
      "  int m(int x) { return x; }\n"
      "}\n"
      "class B {\n"
      "  boolean m(String a, String b) {\n"
      "    return a.compareTo(b) == 0;\n"
      "  }\n"
      "}\n");
  ASSERT_EQ(r.changes.size(), 1u);
  EXPECT_EQ(r.changes[0].rule, RuleId::kStringCompare);
  EXPECT_EQ(r.changes[0].file, "t.mjava");
  EXPECT_EQ(r.changes[0].className, "B");
  EXPECT_EQ(r.changes[0].line, 6);
  EXPECT_FALSE(r.changes[0].description.empty());
}

TEST(Optimizer, ModulusRewriteKeepsOutputAndLowersEnergy) {
  const Program prog = Parser::parseProgram("t.mjava", R"(
    class Main {
      static void main(String[] args) {
        int acc = 0;
        for (int i = 0; i < 2000; i++) acc += i % 16;
        System.out.println(acc);
      }
    }
  )");
  OptimizerOptions opts;
  opts.allowLossyNarrowing = false;
  const OptimizeResult r = Optimizer(opts).optimize(prog);
  ASSERT_EQ(countRule(r.changes, RuleId::kModulusOperator), 1);
  const RunResult before = runProgram(prog);
  const RunResult after = runProgram(r.program);
  EXPECT_EQ(after.output, before.output);
  EXPECT_LT(after.sample.packageJoules, before.sample.packageJoules);
}

TEST(Optimizer, CompareToRewriteKeepsOutputAndLowersEnergy) {
  const Program prog = Parser::parseProgram("t.mjava", R"(
    class Main {
      static void main(String[] args) {
        String a = "energy-efficient";
        String b = "energy-efficient";
        String c = "energy-hungry!!!";
        int same = 0;
        for (int i = 0; i < 500; i++) {
          if (a.compareTo(b) == 0) same++;
          if (a.compareTo(c) == 0) same--;
        }
        System.out.println(same);
      }
    }
  )");
  OptimizerOptions opts;
  opts.allowLossyNarrowing = false;
  const OptimizeResult r = Optimizer(opts).optimize(prog);
  ASSERT_EQ(countRule(r.changes, RuleId::kStringCompare), 2);
  const RunResult before = runProgram(prog);
  const RunResult after = runProgram(r.program);
  EXPECT_EQ(after.output, before.output);
  EXPECT_LT(after.sample.packageJoules, before.sample.packageJoules);
}

TEST(Optimizer, OptimizedOutputReparses) {
  const auto r = optimizeSource(R"(
    class C {
      static int factor = 2;
      String m(int n) {
        String s = "";
        int acc = 0;
        for (int i = 0; i < n; i++) {
          acc += i % 8;
        }
        for (int i = 0; i < n; i++) s = s + "y";
        return s + (acc > 0 ? "+" : "-") + factor + factor;
      }
    }
  )");
  EXPECT_NO_THROW(Parser::parseProgram("o.mjava", printed(r)));
}

// ---------------------------------------------- semantic preservation

/// The core invariant (DESIGN.md §4): for every program, optimizing with
/// exact-only rewrites preserves the printed output, and the optimized
/// version consumes no more energy. Optimizing the printed result a second
/// time must preserve the output too.
class PreservationTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PreservationTest, OutputIdenticalAndEnergyNonIncreasing) {
  const Program original = Parser::parseProgram("p.mjava", GetParam());
  OptimizerOptions opts;
  opts.allowLossyNarrowing = false;  // exact mode for the equality check
  const OptimizeResult opt = Optimizer(opts).optimize(original);

  const RunResult before = runProgram(original);
  const RunResult after = runProgram(opt.program);
  EXPECT_EQ(before.output, after.output)
      << "optimized program:\n" << printed(opt);
  EXPECT_LE(after.sample.packageJoules, before.sample.packageJoules * 1.0001)
      << "optimization increased energy";

  const OptimizeResult again =
      Optimizer(opts).optimize(Parser::parseProgram("p.mjava", printed(opt)));
  EXPECT_EQ(before.output, runProgram(again.program).output)
      << "re-optimized program:\n" << printed(again);
}

const char* kPreservationPrograms[] = {
    // Modulus on loop counter + ternary + static caching.
    R"(
    class Main {
      static int factor = 3;
      static void main(String[] args) {
        int acc = 0;
        for (int i = 0; i < 5000; i++) {
          acc += i % 16;
          acc += factor + factor;
        }
        int sign = 0;
        sign = acc > 0 ? 1 : -1;
        System.out.println(acc + ":" + sign);
      }
    }
    )",
    // Manual copy -> arraycopy; verify contents afterwards.
    R"(
    class Main {
      static void main(String[] args) {
        int[] src = new int[100];
        for (int i = 0; i < 100; i++) src[i] = i * i;
        int[] dst = new int[100];
        for (int i = 0; i < 100; i++) dst[i] = src[i];
        int acc = 0;
        for (int i = 0; i < 100; i++) acc += dst[i];
        System.out.println(acc);
      }
    }
    )",
    // Column traversal -> interchange (integer accumulation, exact).
    R"(
    class Main {
      static void main(String[] args) {
        int[][] m = new int[40][40];
        for (int i = 0; i < 40; i++)
          for (int j = 0; j < 40; j++)
            m[i][j] = i * 40 + j;
        int acc = 0;
        for (int j = 0; j < 40; j++)
          for (int i = 0; i < 40; i++)
            acc += m[i][j];
        System.out.println(acc);
      }
    }
    )",
    // Concat loop -> StringBuilder.
    R"(
    class Main {
      static void main(String[] args) {
        String s = "start:";
        for (int i = 0; i < 50; i++) s = s + i;
        System.out.println(s.length());
        System.out.println(s.substring(0, 9));
      }
    }
    )",
    // compareTo -> equals in both polarities.
    R"(
    class Main {
      static void main(String[] args) {
        String a = "alpha";
        String b = "alpha";
        String c = "beta";
        int hits = 0;
        for (int i = 0; i < 100; i++) {
          if (a.compareTo(b) == 0) hits++;
          if (a.compareTo(c) != 0) hits++;
        }
        System.out.println(hits);
      }
    }
    )",
    // Short-circuit reorder with pure operands.
    R"(
    class Main {
      static void main(String[] args) {
        int count = 0;
        for (int i = 0; i < 2000; i++) {
          boolean v = (i * i + 3 * i + 7 > 50 && i != 13) && i % 2 == 0;
          if (v) count++;
        }
        System.out.println(count);
      }
    }
    )",
    // byte/short widening + scientific respelling + wrapper upgrade.
    R"(
    class Main {
      static void main(String[] args) {
        short base = 120;
        double big = 10000.0;
        Short boxed = 7;
        double total = 0.0;
        for (int i = 0; i < 300; i++) total += base + big / 1000.0;
        System.out.println(total > 1.0);
        System.out.println(boxed.intValue());
      }
    }
    )",
    // Exceptions + switch + try/finally survive optimization untouched.
    R"(
    class Main {
      static int classify(int v) {
        switch (v % 3) {
          case 0: return 10;
          case 1: return 20;
          default: return 30;
        }
      }
      static void main(String[] args) {
        int acc = 0;
        for (int i = 0; i < 50; i++) {
          try {
            acc += classify(i);
            if (i == 25) throw new RuntimeException("mid");
          } catch (RuntimeException e) {
            acc += 1000;
          } finally {
            acc += 1;
          }
        }
        System.out.println(acc);
      }
    }
    )",
    // Instance state + recursion remain correct.
    R"(
    class Acc {
      int total;
      void add(int v) { total += v; }
    }
    class Main {
      static int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
      static void main(String[] args) {
        Acc acc = new Acc();
        for (int i = 0; i < 12; i++) acc.add(fib(i));
        System.out.println(acc.total);
      }
    }
    )",
    // A self-concat nested in a call argument is not a slot the hoist
    // rewrites, so the loop keeps its String concat.
    R"(
    class Main {
      static void show(String x) { System.out.println(x); }
      static void main(String[] args) {
        String s = "";
        for (int i = 0; i < 3; i++) { show(s += "a"); }
        System.out.println("after: " + s);
      }
    }
    )",
    // A catch variable shadows the read-only static of the same name.
    R"(
    class Main {
      static int e = 5;
      static void main(String[] args) {
        int acc = e + e;
        try {
          throw new RuntimeException("boom");
        } catch (RuntimeException e) {
          System.out.println(e.getMessage());
        }
        System.out.println(acc);
      }
    }
    )",
    // Two concat variables in one loop: both hoisted, each to its own
    // builder.
    R"(
    class Main {
      static void main(String[] args) {
        String a = "";
        String b = "";
        for (int i = 0; i < 3; i++) { a += "x"; b += "y"; }
        System.out.println(a + b);
      }
    }
    )",
    // A write to the variable that is no self-concat keeps the loop as it
    // is.
    R"(
    class Main {
      static void main(String[] args) {
        String s = "";
        for (int i = 0; i < 3; i++) { s += "a"; s = "b" + s; }
        System.out.println(s);
      }
    }
    )",
    // A String field's concat loop stays: the call in the loop reads the
    // field.
    R"(
    class Main {
      static String log = "";
      static void peek() { System.out.println(log.length()); }
      static void main(String[] args) {
        for (int i = 0; i < 3; i++) { log += "x"; peek(); }
        System.out.println(log);
      }
    }
    )",
    // A concat loop inside a try keeps its String concat: an exception
    // leaving a hoisted loop would skip `s = __sbN.toString()`, and the
    // handler (or a finally) would read the old s.
    R"(
    class Main {
      static void main(String[] args) {
        String s = "";
        try {
          for (int i = 0; i < 5; i++) {
            s += "x";
            if (i == 2) throw new RuntimeException("stop");
          }
        } catch (RuntimeException e) {
          System.out.println(s);
        }
        String t = "";
        try {
          try {
            int i = 0;
            while (i < 5) {
              t = t + "y";
              i++;
              if (i == 3) throw new RuntimeException("stop");
            }
          } finally {
            System.out.println(t);
          }
        } catch (RuntimeException e) {
          System.out.println("caught " + t);
        }
      }
    }
    )",
};

INSTANTIATE_TEST_SUITE_P(Programs, PreservationTest,
                         ::testing::ValuesIn(kPreservationPrograms));

TEST(Optimizer, HoistsEveryConcatVariableOfALoopInSourceOrder) {
  const auto r = optimizeSource(R"(
    class C { String m(int n) {
      String b = "";
      String a = "";
      for (int i = 0; i < n; i++) { a += "x"; b = b + "y"; }
      return a + b;
    } }
  )");
  ASSERT_EQ(countRule(r.changes, RuleId::kStringConcat), 2);
  EXPECT_EQ(r.changes[0].description,
            "hoisted 'a' concat loop into StringBuilder __sb0");
  EXPECT_EQ(r.changes[1].description,
            "hoisted 'b' concat loop into StringBuilder __sb1");
}

TEST(Optimizer, ReoptimizingThePrintedResultChangesNothing) {
  const char* src = R"(
    class Main {
      static void main(String[] args) {
        String a = "";
        String b = "";
        for (int i = 0; i < 3; i++) { a += "x"; b += "y"; }
        System.out.println(a + b);
      }
    }
  )";
  OptimizerOptions opts;
  opts.allowLossyNarrowing = false;
  const OptimizeResult first =
      Optimizer(opts).optimize(Parser::parseProgram("p.mjava", src));
  const Program reparsed = Parser::parseProgram("p.mjava", printed(first));
  const OptimizeResult second = Optimizer(opts).optimize(reparsed);
  EXPECT_TRUE(second.changes.empty()) << printed(second);
  EXPECT_EQ(runProgram(second.program).output, "xxxyyy\n");
}

TEST(Optimizer, FreshBuilderNameSkipsDeclaredNames) {
  const char* src = R"(
    class Main {
      static void main(String[] args) {
        String __sb0 = "q";
        String s = "";
        for (int i = 0; i < 3; i++) s += "x";
        System.out.println(s + __sb0);
      }
    }
  )";
  const Program original = Parser::parseProgram("p.mjava", src);
  OptimizerOptions opts;
  opts.allowLossyNarrowing = false;
  const OptimizeResult opt = Optimizer(opts).optimize(original);
  EXPECT_EQ(countRule(opt.changes, RuleId::kStringConcat), 1);
  EXPECT_NE(printed(opt).find("StringBuilder __sb1"), std::string::npos);
  EXPECT_EQ(runProgram(original).output, runProgram(opt.program).output);
}

/// Lossy mode keeps outputs *numerically close* (the paper's accuracy-drop
/// argument): integer-printing programs must still match exactly when no
/// long overflow is possible.
TEST(Optimizer, LossyModePreservesSmallIntegerPrograms) {
  const char* src = R"(
    class Main {
      static void main(String[] args) {
        long acc = 0L;
        for (int i = 0; i < 1000; i++) acc = acc + i;
        System.out.println(acc);
      }
    }
  )";
  const Program original = Parser::parseProgram("p.mjava", src);
  const OptimizeResult opt = Optimizer().optimize(original);
  EXPECT_EQ(runProgram(original).output, runProgram(opt.program).output);
}

}  // namespace
}  // namespace jepo::core
