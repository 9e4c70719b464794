#include <gtest/gtest.h>

#include "energy/machine.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "jlang/parser.hpp"
#include "jvm/instrumenter.hpp"
#include "jvm/interpreter.hpp"

namespace jepo::jbc {
namespace {

using jlang::Parser;
using jlang::Program;

struct EngineRun {
  std::string output;
  double packageJoules;
  energy::OpArray<std::uint64_t> counts;
};

EngineRun runTree(const Program& prog) {
  energy::SimMachine machine;
  jvm::Interpreter interp(prog, machine);
  interp.setMaxSteps(100'000'000);
  interp.runMain();
  return {interp.output(), machine.sample().packageJoules,
          machine.meter().counts()};
}

EngineRun runBytecode(const Program& prog) {
  const CompiledProgram compiled = compile(prog);
  energy::SimMachine machine;
  BytecodeVm vm(compiled, machine);
  vm.setMaxSteps(200'000'000);
  vm.runMain();
  return {vm.output(), machine.sample().packageJoules,
          machine.meter().counts()};
}

std::string wrapMain(const std::string& body) {
  return "class Main { static void main(String[] args) {\n" + body +
         "\n} }";
}

// ---------------------------------------------------------------------------
// Cross-engine agreement: the engines are charge-identical, so both must
// print the same output and charge the same op counts, hence the same
// joules to the bit (the closest energies can be).

class AgreementTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AgreementTest, OutputsIdenticalEnergiesClose) {
  const Program prog = Parser::parseProgram("p.mjava", GetParam());
  const EngineRun tree = runTree(prog);
  const EngineRun bytecode = runBytecode(prog);
  EXPECT_EQ(tree.output, bytecode.output);
  EXPECT_EQ(tree.counts, bytecode.counts);
  EXPECT_EQ(tree.packageJoules, bytecode.packageJoules);
}

const char* kAgreementPrograms[] = {
    // Arithmetic kitchen sink with exact widths.
    R"(
    class Main {
      static void main(String[] args) {
        int x = 2147483647; x = x + 1;
        long big = 2147483647L; big = big + 1;
        byte b = 127; b = (byte)(b + 1);
        char c = 'A'; c = (char)(c + 1);
        System.out.println(x); System.out.println(big);
        System.out.println(b); System.out.println(c);
        System.out.println(7 / 2); System.out.println(-7 % 3);
        System.out.println(12 & 10); System.out.println(1 << 5);
        System.out.println(-8 >> 1); System.out.println(~5);
        System.out.println(2.5 + 0.25); System.out.println(7 / 2.0);
        float f = 0.1f; double d = 0.1;
        System.out.println(f == d);
      }
    }
    )",
    // Control flow: loops, break/continue, nested, ternary, short-circuit.
    R"(
    class Main {
      static void main(String[] args) {
        int total = 0;
        for (int i = 0; i < 10; i++) {
          if (i == 3) continue;
          if (i == 7) break;
          total += i;
        }
        int j = 0;
        while (true) { j++; if (j >= 4) break; }
        int acc = 0;
        for (int a = 0; a < 5; a++)
          for (int bV = 0; bV < 5; bV++)
            acc += a * bV;
        System.out.println(total);
        System.out.println(j);
        System.out.println(acc);
        System.out.println(total > 10 ? "big" : "small");
        int z = 0;
        System.out.println(z != 0 && 10 / z > 1);
        System.out.println(z == 0 || 10 / z > 1);
      }
    }
    )",
    // Switch with fallthrough and default.
    R"(
    class Main {
      static String pick(int v) {
        String r = "";
        switch (v) {
          case 1: r = r + "one ";
          case 2: r = r + "two"; break;
          case 3: r = r + "three"; break;
          default: r = "other";
        }
        return r;
      }
      static void main(String[] args) {
        System.out.println(pick(1));
        System.out.println(pick(2));
        System.out.println(pick(3));
        System.out.println(pick(9));
      }
    }
    )",
    // Methods, recursion, statics, constructors, fields.
    R"(
    class Counter {
      static int total = 0;
      int mine;
      Counter(int start) { mine = start; }
      void bump(int by) { mine += by; total++; }
    }
    class Main {
      static int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
      static void main(String[] args) {
        Counter a = new Counter(5);
        Counter b = new Counter(10);
        a.bump(3); b.bump(4); a.bump(1);
        System.out.println(a.mine);
        System.out.println(b.mine);
        System.out.println(Counter.total);
        System.out.println(fib(12));
      }
    }
    )",
    // Arrays: 1-D, 2-D, aliasing, arraycopy, bounds via length.
    R"(
    class Main {
      static void main(String[] args) {
        int[] src = new int[6];
        for (int i = 0; i < src.length; i++) src[i] = i * i;
        int[] dst = new int[6];
        System.arraycopy(src, 1, dst, 0, 4);
        int[][] m = new int[3][4];
        for (int i = 0; i < 3; i++)
          for (int j = 0; j < 4; j++)
            m[i][j] = i * 4 + j;
        int acc = 0;
        for (int j = 0; j < 4; j++)
          for (int i = 0; i < 3; i++)
            acc += m[i][j];
        int[] alias = src;
        alias[0] = 99;
        System.out.println(dst[0] + "," + dst[3]);
        System.out.println(acc);
        System.out.println(src[0]);
        System.out.println(m.length + "x" + m[0].length);
      }
    }
    )",
    // Strings, builders, wrappers, Math.
    R"(
    class Main {
      static void main(String[] args) {
        String s = "";
        for (int i = 0; i < 20; i++) s = s + i;
        StringBuilder sb = new StringBuilder("start:");
        sb.append(1).append(true).append('x');
        Integer boxed = 41;
        System.out.println(s.length());
        System.out.println(s.substring(0, 5));
        System.out.println(sb.toString());
        System.out.println(boxed.intValue() + 1);
        System.out.println(Integer.parseInt("123") + Integer.MAX_VALUE % 10);
        System.out.println(Math.max(3, 9) + Math.abs(-5));
        System.out.println(Math.sqrt(16.0));
        System.out.println("abc".compareTo("abd") < 0);
        System.out.println("abc".equals("abc"));
      }
    }
    )",
    // Exceptions: VM-raised, user-thrown, catch ordering, finally.
    R"(
    class Main {
      static int risky(int d) {
        try {
          return 100 / d;
        } catch (ArithmeticException e) {
          return -1;
        }
      }
      static void main(String[] args) {
        System.out.println(risky(5));
        System.out.println(risky(0));
        try {
          int[] a = new int[2];
          a[5] = 1;
        } catch (ArrayIndexOutOfBoundsException e) {
          System.out.println("oob");
        }
        try {
          System.out.println("try");
          throw new RuntimeException("boom");
        } catch (RuntimeException e) {
          System.out.println("catch " + e.getMessage());
        } finally {
          System.out.println("finally");
        }
        try { throw new CustomException("x"); }
        catch (Exception e) { System.out.println("generic"); }
        System.out.println("after");
      }
    }
    )",
    // finally on every path: normal, exceptional, loop-crossing break.
    R"(
    class Main {
      static void main(String[] args) {
        int acc = 0;
        for (int i = 0; i < 6; i++) {
          try {
            if (i == 2) throw new RuntimeException("two");
            acc += i;
          } catch (RuntimeException e) {
            acc += 100;
          } finally {
            acc += 1;
          }
        }
        System.out.println(acc);
        try {
          for (int i = 0; i < 5; i++) {
            if (i == 3) break;
            acc += 1;
          }
        } finally {
          acc += 1000;
        }
        System.out.println(acc);
      }
    }
    )",
    // Static field initializers + instance field initializers.
    R"(
    class Config {
      static int limit = 40 + 2;
      int base = 7;
      int scaled = base * 2;
    }
    class Main {
      static void main(String[] args) {
        Config c = new Config();
        System.out.println(Config.limit);
        System.out.println(c.base + ":" + c.scaled);
      }
    }
    )",
    // String.hashCode wraps like Java's int arithmetic.
    R"(
    class Main {
      static void main(String[] args) {
        System.out.println("polygenelubricants".hashCode() == -2147483648);
        System.out.println("hello world".hashCode() == 1794106052);
        System.out.println("polygenelubricants".hashCode());
      }
    }
    )",
};

INSTANTIATE_TEST_SUITE_P(Programs, AgreementTest,
                         ::testing::ValuesIn(kAgreementPrograms));

// ---------------------------------------------------------------------------
// Bytecode-specific behaviour.

TEST(Bytecode, ReturnInsideTryRunsFinally) {
  const Program prog = Parser::parseProgram("p.mjava", R"(
    class Main {
      static int f() {
        try { return 1; }
        finally { System.out.println("cleanup"); }
      }
      static void main(String[] args) { System.out.println(f()); }
    }
  )");
  EXPECT_EQ(runBytecode(prog).output, "cleanup\n1\n");
}

TEST(Bytecode, UnresolvedNamesFailOnlyWhenReached) {
  // The tree interpreter raises "undefined name" errors when it executes
  // the offending node; compiling must not reject the program up front.
  const Program dead = Parser::parseProgram(
      "p.mjava", wrapMain("int x = 1;\nif (x > 5) { y = 3; }\n"
                          "System.out.println(\"ok\");"));
  EXPECT_EQ(runBytecode(dead).output, "ok\n");

  // Reached, both engines raise the same error.
  for (const char* body :
       {"int x = 9;\nif (x > 5) { y = 3; }", "int x = 9;\nx = y + 1;",
        "int x = 9;\nundefinedCall(x);", "int x = 9;\nx = Main.nope(x);"}) {
    const Program live = Parser::parseProgram("p.mjava", wrapMain(body));
    std::string treeError;
    try {
      runTree(live);
    } catch (const VmError& e) {
      treeError = e.what();
    }
    std::string vmError;
    try {
      runBytecode(live);
    } catch (const VmError& e) {
      vmError = e.what();
    }
    EXPECT_FALSE(treeError.empty()) << body;
    EXPECT_EQ(vmError, treeError) << body;
  }
}

TEST(Bytecode, PendingReturnSurvivesCallsInFinally) {
  // The finally block's own calls must not replace the value the try block
  // returns — in either engine.
  const Program prog = Parser::parseProgram("p.mjava", R"(
    class Box { int v; Box(int x) { v = x; } }
    class Main {
      static int seven() { return 7; }
      static int f() {
        try { return 5; }
        finally { Box b = new Box(seven()); }
      }
      static void main(String[] args) { System.out.println(f()); }
    }
  )");
  EXPECT_EQ(runTree(prog).output, "5\n");
  EXPECT_EQ(runBytecode(prog).output, "5\n");
}

TEST(Bytecode, BreakThroughFinallyThatHoldsALoop) {
  // The break inlines the finally, whose own loops compile while the break
  // still has to record its jump on the enclosing loop.
  const Program prog = Parser::parseProgram("p.mjava", R"(
    class Main {
      static int f(int x) {
        int i = 0;
        while (i < 3) {
          try {
            if (x > 2) { break; }
          } finally {
            for (int j = 0; j < 4; j++) x = x + 1;
            int k = 0;
            while (k < 2) { k++; }
          }
          i++;
        }
        return x * 10 + i;
      }
      static void main(String[] args) {
        System.out.println(f(5));
        System.out.println(f(1));
      }
    }
  )");
  EXPECT_EQ(runTree(prog).output, "90\n91\n");
  EXPECT_EQ(runBytecode(prog).output, "90\n91\n");
}

TEST(Bytecode, UncaughtExceptionEscapesRunMain) {
  const Program prog = Parser::parseProgram(
      "p.mjava", wrapMain("throw new IllegalStateException(\"loose\");"));
  const CompiledProgram compiled = compile(prog);
  energy::SimMachine machine;
  BytecodeVm vm(compiled, machine);
  EXPECT_THROW(vm.runMain(), jvm::Thrown);
}

TEST(Bytecode, StepLimitGuardsRunawayLoops) {
  const Program prog =
      Parser::parseProgram("p.mjava", wrapMain("while (true) { int x = 1; }"));
  const CompiledProgram compiled = compile(prog);
  energy::SimMachine machine;
  BytecodeVm vm(compiled, machine);
  vm.setMaxSteps(10'000);
  EXPECT_THROW(vm.runMain(), VmError);
}

TEST(Bytecode, StackOverflowIsCatchable) {
  const Program prog = Parser::parseProgram("p.mjava", R"(
    class Main {
      static int boom(int n) { return boom(n + 1); }
      static void main(String[] args) {
        try { boom(0); }
        catch (StackOverflowError e) { System.out.println("caught"); }
      }
    }
  )");
  EXPECT_EQ(runBytecode(prog).output, "caught\n");
}

TEST(Bytecode, MultipleMainClassesRequireSelection) {
  const Program prog = Parser::parseProgram("p.mjava", R"(
    class A { static void main(String[] args) { System.out.println("A"); } }
    class B { static void main(String[] args) { System.out.println("B"); } }
  )");
  const CompiledProgram compiled = compile(prog);
  energy::SimMachine machine;
  BytecodeVm vm(compiled, machine);
  EXPECT_THROW(vm.runMain(), VmError);
  vm.runMain("B");
  EXPECT_EQ(vm.output(), "B\n");
}

TEST(Bytecode, CallStaticEntryPoint) {
  const Program prog = Parser::parseProgram("p.mjava", R"(
    class MathUtil { static int add(int a, int b) { return a + b; } }
  )");
  const CompiledProgram compiled = compile(prog);
  energy::SimMachine machine;
  BytecodeVm vm(compiled, machine);
  const jvm::Value v = vm.callStatic(
      "MathUtil", "add", {jvm::Value::ofInt(2), jvm::Value::ofInt(40)});
  EXPECT_EQ(v.asInt(), 42);
}

TEST(Bytecode, InstrumenterHooksWorkOnBytecodeEngine) {
  const Program prog = Parser::parseProgram("p.mjava", R"(
    class Main {
      static int work(int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) acc += i;
        return acc;
      }
      static void main(String[] args) { work(10); work(10000); }
    }
  )");
  const CompiledProgram compiled = compile(prog);
  energy::SimMachine machine;
  BytecodeVm vm(compiled, machine);
  jvm::Instrumenter inst(machine);
  vm.setHooks(&inst);
  vm.runMain();
  ASSERT_EQ(inst.records().size(), 3u);
  EXPECT_EQ(inst.records()[0].method, "Main.work");
  EXPECT_GT(inst.records()[1].packageJoules, inst.records()[0].packageJoules);
  EXPECT_EQ(inst.records()[2].method, "Main.main");
}

// Pins the whole listing by op name: a superinstruction with its packed c
// operand, a name-pool comment and the exception table.
TEST(Bytecode, DisassemblerShowsNamesAndHandlers) {
  const Program prog = Parser::parseProgram("p.mjava", R"(
    class Main {
      static void main(String[] args) {
        int acc = 0;
        try {
          for (int i = 0; i < 10; i++) acc += i & 7;
        } catch (RuntimeException e) {
          System.out.println("caught");
        }
        System.out.println(acc);
      }
    }
  )");
  const CompiledProgram compiled = compile(prog);
  EXPECT_EQ(
      disassemble(compiled.findClass("Main")->methods.at("main"), compiled),
      "Main.main (slots=4)\n"
      "  0: ConstInt a=0 b=0 c=0 n=3\n"
      "  1: StoreDecl a=1 b=4 c=0\n"
      "  2: Charge a=38 b=0 c=0 n=1\n"
      "  3: ConstInt a=1 b=0 c=0 n=4\n"
      "  4: StoreDecl a=2 b=4 c=0\n"
      "  5: CountedAccumLoop a=196610 b=852481 c=608474120 n=3\n"
      "  6: Jump a=11 b=0 c=0\n"
      "  7: ConstStr a=1 b=0 c=0 (caught) n=4\n"
      "  8: Print a=1 b=1 c=0\n"
      "  9: Pop a=0 b=0 c=0\n"
      "  10: Jump a=11 b=0 c=0\n"
      "  11: Load a=1 b=0 c=0 n=3\n"
      "  12: Print a=1 b=1 c=0\n"
      "  13: Pop a=0 b=0 c=0\n"
      "  14: ReturnVoid a=0 b=0 c=0\n"
      "  handler [3,6) -> 7\n");
}

TEST(Bytecode, RowCachePenalizesColumnTraversalToo) {
  const char* kRow = R"(
    class Main { static void main(String[] args) {
      int[][] m = new int[150][150];
      int acc = 0;
      for (int i = 0; i < 150; i++)
        for (int j = 0; j < 150; j++)
          acc += m[i][j];
      System.out.println(acc);
    } }
  )";
  const char* kCol = R"(
    class Main { static void main(String[] args) {
      int[][] m = new int[150][150];
      int acc = 0;
      for (int j = 0; j < 150; j++)
        for (int i = 0; i < 150; i++)
          acc += m[i][j];
      System.out.println(acc);
    } }
  )";
  const EngineRun row = runBytecode(Parser::parseProgram("r.mjava", kRow));
  const EngineRun col = runBytecode(Parser::parseProgram("c.mjava", kCol));
  EXPECT_EQ(row.output, col.output);
  EXPECT_GT(col.packageJoules, row.packageJoules * 1.5);
}

}  // namespace
}  // namespace jepo::jbc
