// Exception tables vs. the peephole fuser.
//
// The three-pass fuser (compiler.cpp) rewrites instruction runs into
// superinstructions and remaps every pc-valued operand *and* every
// ExceptionEntry{start, end, handler}. A rewrite getting a handler range
// wrong is invisible on the happy path — it only shows when a throw lands
// inside a rewritten region. These tests pin exactly that:
//
//   - every handler range stays within bounds after fusion, and fusion
//     demonstrably fired inside try-covered code;
//   - a throw from *inside a fused pair* (the division in
//     kBinCastStoreIncDecJump, before the latch increment executes) is
//     caught by the right handler with the same locals the unfused and
//     tree engines see;
//   - a throw on a later call of an already-run method still finds its
//     handler;
//   - fused and unfused compiles of the same program, and the tree
//     interpreter, are observably bit-identical (stdout, simulated joules
//     and seconds, steps, and method records under a sampling tier), so
//     the fuser can never shift the energy accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "energy/machine.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "jlang/parser.hpp"
#include "jvm/instrumenter.hpp"
#include "jvm/interpreter.hpp"
#include "jvm/tier.hpp"
#include "obs/registry.hpp"
#include "support/error.hpp"

namespace jepo::jbc {
namespace {

using jlang::Parser;
using jlang::Program;

struct Observables {
  std::string out;
  std::uint64_t pkgBits = 0;
  std::uint64_t secondsBits = 0;
  std::uint64_t steps = 0;
  std::vector<jvm::MethodRecord> records;  // empty with hooks off
};

std::uint64_t doubleBits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

std::uint64_t stepsSoFar() {
  return obs::Registry::global().counter("vm.steps").value();
}

/// Runs either engine; with a tier, under an Instrumenter gated by it.
template <typename Engine, typename Source>
Observables run(const Source& p, const jvm::TierSpec* tier = nullptr) {
  energy::SimMachine machine;
  Engine engine(p, machine);
  jvm::Instrumenter inst(machine);
  if (tier != nullptr) {
    inst.setTier(*tier, /*seed=*/2020);
    engine.setHooks(&inst);
  }
  engine.setMaxSteps(100'000'000);
  const std::uint64_t steps0 = stepsSoFar();
  engine.runMain();
  inst.finalizeSampling();
  return {engine.output(), doubleBits(machine.sample().packageJoules),
          doubleBits(machine.sample().seconds), stepsSoFar() - steps0,
          inst.records()};
}

Observables runVm(const CompiledProgram& compiled) {
  return run<BytecodeVm>(compiled);
}

void expectSameObservables(const Observables& a, const Observables& b) {
  EXPECT_EQ(a.out, b.out);
  EXPECT_EQ(a.pkgBits, b.pkgBits) << "joules differ";
  EXPECT_EQ(a.secondsBits, b.secondsBits) << "simulated time differs";
  EXPECT_EQ(a.steps, b.steps);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const jvm::MethodRecord& ra = a.records[i];
    const jvm::MethodRecord& rb = b.records[i];
    EXPECT_EQ(ra.method, rb.method) << "record " << i;
    EXPECT_EQ(doubleBits(ra.packageJoules), doubleBits(rb.packageJoules))
        << ra.method;
    EXPECT_EQ(doubleBits(ra.seconds), doubleBits(rb.seconds)) << ra.method;
    EXPECT_EQ(ra.samplingRate, rb.samplingRate) << ra.method;
  }
}

CompiledProgram compileWith(const Program& prog, bool fuse) {
  CompileOptions opts;
  opts.fuseSuperinstructions = fuse;
  return compile(prog, opts);
}

const Chunk& mainChunk(const CompiledProgram& p) {
  for (const auto& [name, cls] : p.classes) {
    const auto it = cls.methods.find("main");
    if (cls.hasMain && it != cls.methods.end()) return it->second;
  }
  ADD_FAILURE() << "no main chunk";
  static const Chunk empty;
  return empty;
}

bool containsOp(const Chunk& c, Op op) {
  for (const Instr& in : c.code) {
    if (in.op == op) return true;
  }
  return false;
}

// A throw that must surface from *inside* a fused pair: the loop tail
// [x /= d - i][i++, jump] fuses into kBinCastStoreIncDecJump — the
// compound narrowing assignment carries the implicit short cast that
// forms kBinCastStorePop, and the non-trivial divisor expression keeps
// the division out of the operand-load superinstruction in front of it.
// The division throws when d - i hits 0, before the fused latch
// increments `i`. The catch prints i and x, so a fuser that runs the
// latch early (or a mis-remapped handler range) changes output.
const char* const kThrowInFusedPair = R"(
class Main {
  static void main(String[] args) {
    int i = 0;
    short x = 1000;
    int d = 3;
    try {
      while (i < 8) {
        x /= d - i;
        i++;
      }
      System.out.println("unreachable");
    } catch (ArithmeticException e) {
      System.out.println("caught i=" + i + " x=" + x);
    }
    System.out.println("after " + i + ":" + x + ":" + d);
  }
}
)";

// A counted accumulate loop (the whole-loop kCountedAccumLoop shape) inside
// a try block, with a throw *after* it: the loop's implicit fall-through
// exit and self-backedge must not disturb the surrounding handler range.
const char* const kLoopInsideTry = R"(
class Main {
  static void main(String[] args) {
    int acc = 0;
    try {
      for (int i = 0; i < 1000; i++) acc += i & 7;
      acc = acc / (acc - 3500);
    } catch (ArithmeticException e) {
      System.out.println("acc=" + acc);
    }
  }
}
)";

// A method with its own try/catch, called repeatedly: the throw only
// happens on a later execution, after the call site's inline cache and the
// callee's handler ranges have served earlier calls.
const char* const kThrowAfterQuickening = R"(
class H {
  static int f(int i) {
    try {
      return 100 / (3 - i);
    } catch (ArithmeticException e) {
      return 0 - 1;
    }
  }
}
class Main {
  static void main(String[] args) {
    for (int i = 0; i < 6; i++) System.out.println(H.f(i));
  }
}
)";

// Nested try/finally around a fusable loop: finally inlining multiplies the
// copies the fuser must remap consistently.
const char* const kFinallyAroundLoop = R"(
class Main {
  static void main(String[] args) {
    int sum = 0;
    int i = 0;
    try {
      while (i < 50) {
        sum += i;
        i++;
      }
      int boom = 1 / (i - 50);
      System.out.println("unreachable " + boom);
    } catch (ArithmeticException e) {
      System.out.println("caught sum=" + sum);
    } finally {
      System.out.println("finally sum=" + sum);
    }
  }
}
)";

// Trivial callees: bump() fuses into the kThisFieldAccumReturn
// superinstruction and id() into kLoadReturn, so the VM inlines both calls
// (the kTrivThisFieldAccumReturn and kTrivLoadReturn trivial-call kinds)
// with hooks off, and under a sampling tier whenever the gate declines the
// entry; admitted entries take the framed, instrumented path. split()
// fuses the same way and throws from inside the superinstruction, before
// its `return` statement's steps.
const char* const kTrivialCallees = R"(
class Counter {
  int value;
  int step;
  Counter(int s) { step = s; }
  int bump() { value = value + step; return value; }
  int split() { value = value / step; return value; }
  static int id(int x) { return x; }
}
class Main {
  static void main(String[] args) {
    Counter c = new Counter(3);
    int total = 0;
    for (int i = 0; i < 40; i++) {
      total = total + c.bump() + Counter.id(i);
    }
    System.out.println(total + ":" + c.value);
    for (int i = 0; i < 8; i++) {
      try {
        c.step = 2 - i % 3;
        System.out.println(c.split());
      } catch (ArithmeticException e) {
        System.out.println("caught " + i);
      }
    }
  }
}
)";

// Throws from inside the fused loop tails: the accumulate statement's
// division by the constant 0 runs before the i++ latch that the pair
// (kAccumConstJump; the local bound keeps the while loop from fusing
// whole) and whole-loop (kCountedAccumLoop) instructions carry.
const char* const kThrowInFusedLatch = R"(
class Main {
  static void main(String[] args) {
    int acc = 0;
    int i = 0;
    int limit = 8;
    try {
      while (i < limit) {
        acc = acc + i / 0;
        i++;
      }
    } catch (ArithmeticException e) {
      System.out.println("while " + i + " " + acc);
    }
    try {
      for (int j = 0; j < 8; j++) acc = acc + j % 0;
    } catch (ArithmeticException e) {
      System.out.println("for " + acc);
    }
  }
}
)";

class FusionAgreementTest : public ::testing::TestWithParam<const char*> {};

// The engines are charge-identical on throw paths and trivial calls too,
// with hooks off and under sampled:4 (whose gate decides, per entry,
// between the fused trivial call and the framed one).
TEST_P(FusionAgreementTest, FusedUnfusedAndTreeAgreeBitExact) {
  const Program prog = Parser::parseProgram("fusion.mjava", GetParam());
  const CompiledProgram fused = compileWith(prog, true);
  const CompiledProgram unfused = compileWith(prog, false);
  const jvm::TierSpec sampled = jvm::parseTierSpec("sampled:4");
  const jvm::TierSpec* const noHooks = nullptr;
  for (const jvm::TierSpec* tier : {noHooks, &sampled}) {
    SCOPED_TRACE(tier == nullptr ? "hooks off" : "sampled:4");
    const Observables f = run<BytecodeVm>(fused, tier);
    {
      SCOPED_TRACE("fused vs unfused");
      expectSameObservables(f, run<BytecodeVm>(unfused, tier));
    }
    {
      SCOPED_TRACE("tree vs fused");
      expectSameObservables(run<jvm::Interpreter>(prog, tier), f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ExceptionShapes, FusionAgreementTest,
                         ::testing::Values(kThrowInFusedPair, kLoopInsideTry,
                                           kThrowAfterQuickening,
                                           kFinallyAroundLoop,
                                           kThrowInFusedLatch,
                                           kTrivialCallees));

TEST(FusionTrivialCallees, CalleesCompileToTrivialShapes) {
  const Program prog = Parser::parseProgram("fusion.mjava", kTrivialCallees);
  const CompiledProgram fused = compileWith(prog, true);
  const CompiledClass* counter = fused.findClass("Counter");
  ASSERT_NE(counter, nullptr);
  const auto& methods = counter->methods;
  for (const char* name : {"bump", "split"}) {
    EXPECT_EQ(methods.at(name).code.at(0).op, Op::kThisFieldAccumReturn)
        << disassemble(methods.at(name), fused);
  }
  EXPECT_EQ(methods.at("id").code.at(0).op, Op::kLoadReturn)
      << disassemble(methods.at("id"), fused);
  // bump() returns 3, 6, ..., 120 (sum 2460); id(i) sums to 780. split()
  // divides by 2, 1, 0, 2, 1, 0, 2, 1.
  EXPECT_EQ(runVm(fused).out,
            "3240:120\n60\n60\ncaught 2\n30\n30\ncaught 5\n15\n15\n");
}

TEST(FusionExceptionTable, ThrowInFusedLatchCoversPairAndWholeLoop) {
  const Program prog =
      Parser::parseProgram("fusion.mjava", kThrowInFusedLatch);
  const CompiledProgram fused = compileWith(prog, true);
  const Chunk& main = mainChunk(fused);
  ASSERT_TRUE(containsOp(main, Op::kAccumConstJump))
      << disassemble(main, fused);
  ASSERT_TRUE(containsOp(main, Op::kCountedAccumLoop))
      << disassemble(main, fused);
  EXPECT_EQ(runVm(fused).out, "while 0 0\nfor 0\n");
}

TEST(FusionExceptionTable, ThrowInsideFusedPairIsCaughtWithExactLocals) {
  const Program prog = Parser::parseProgram("fusion.mjava", kThrowInFusedPair);
  const CompiledProgram fused = compileWith(prog, true);

  // The loop tail really is one fused pair — otherwise this test would
  // silently stop covering a throw from inside a superinstruction.
  ASSERT_TRUE(containsOp(mainChunk(fused), Op::kBinCastStoreIncDecJump))
      << disassemble(mainChunk(fused), fused);

  // d - i: 3, 2, 1 divide fine (i reaches 3), then d - i hits 0 and the
  // fused division throws with the latch not yet run: i stays 3, x stays
  // its i=2 value 1000/3/2/1 = 166.
  const Observables got = runVm(fused);
  EXPECT_EQ(got.out, "caught i=3 x=166\nafter 3:166:3\n");
}

TEST(FusionExceptionTable, CountedLoopInsideTryKeepsHandlerRange) {
  const Program prog = Parser::parseProgram("fusion.mjava", kLoopInsideTry);
  const CompiledProgram fused = compileWith(prog, true);
  ASSERT_TRUE(containsOp(mainChunk(fused), Op::kCountedAccumLoop))
      << disassemble(mainChunk(fused), fused);
  // sum of (i & 7) over 125 full 0..7 cycles = 125 * 28 = 3500, so the
  // divisor is 0 and the handler range around the fused loop must fire.
  EXPECT_EQ(runVm(fused).out, "acc=3500\n");
}

TEST(FusionExceptionTable, ThrowAfterQuickeningFindsHandler) {
  const Program prog =
      Parser::parseProgram("fusion.mjava", kThrowAfterQuickening);
  // 100/3, 100/2, 100/1, then 3-i hits 0 on the fourth call,
  // then negative divisors on the remaining calls.
  EXPECT_EQ(runVm(compileWith(prog, true)).out,
            "33\n50\n100\n-1\n-100\n-50\n");
}

// Structural bound check over every chunk of every program above: after
// fusion each handler's [start, end) and handler pc index real
// instructions, end > start, and fusion actually shrank the fused chunks
// it fired in (so the remap was exercised, not vacuous).
TEST(FusionExceptionTable, HandlerRangesStayInBoundsAcrossFusion) {
  const char* const sources[] = {kThrowInFusedPair, kLoopInsideTry,
                                 kThrowAfterQuickening, kFinallyAroundLoop,
                                 kThrowInFusedLatch};
  for (const char* src : sources) {
    const Program prog = Parser::parseProgram("fusion.mjava", src);
    const CompiledProgram fused = compileWith(prog, true);
    const CompiledProgram unfused = compileWith(prog, false);
    bool sawHandlers = false;
    bool sawShrink = false;
    for (const auto& [name, cls] : fused.classes) {
      for (const auto& [mname, chunk] : cls.methods) {
        const std::int32_t n = static_cast<std::int32_t>(chunk.code.size());
        for (const ExceptionEntry& h : chunk.handlers) {
          sawHandlers = true;
          EXPECT_GE(h.start, 0) << chunk.qualifiedName;
          EXPECT_LT(h.start, h.end) << chunk.qualifiedName;
          EXPECT_LE(h.end, n) << chunk.qualifiedName;
          EXPECT_GE(h.handler, 0) << chunk.qualifiedName;
          EXPECT_LT(h.handler, n) << chunk.qualifiedName;
        }
        const Chunk& before = unfused.findClass(name)->methods.at(mname);
        EXPECT_LE(chunk.code.size(), before.code.size())
            << chunk.qualifiedName;
        if (chunk.code.size() < before.code.size()) sawShrink = true;
      }
    }
    EXPECT_TRUE(sawHandlers) << src;
    EXPECT_TRUE(sawShrink) << src;
  }
}

// Loop-heavy program whose every loop header is a tick-carrying cmp-jump
// superinstruction, exercised across many loop *exits*: the outer for
// (kLoadConstCmpJump), an inner counted accumulate (kCountedAccumLoop) and
// a local-vs-local while (kLoadLoadCmpJump), each exiting once per outer
// iteration.
const char* const kManyLoopExits = R"(
class Main {
  static void main(String[] args) {
    int total = 0;
    for (int j = 0; j < 20; j++) {
      int acc = 0;
      for (int i = 0; i < 5; i++) acc += i & 7;
      int k = 0;
      while (k < j) { total += k; k++; }
      total += acc;
    }
    System.out.println(total);
  }
}
)";

template <typename Engine, typename Source>
bool completesWithin(const Source& p, std::uint64_t maxSteps) {
  energy::SimMachine machine;
  Engine engine(p, machine);
  engine.setMaxSteps(maxSteps);
  try {
    engine.runMain();
  } catch (const VmError&) {
    return false;
  }
  return true;
}

template <typename Engine, typename Source>
std::uint64_t minimalMaxSteps(const Source& p) {
  std::uint64_t lo = 1;
  std::uint64_t hi = std::uint64_t{1} << 22;
  EXPECT_TRUE((completesWithin<Engine>(p, hi)))
      << "search upper bound too small";
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (completesWithin<Engine>(p, mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// Steps count tree-interpreter steps, whatever the code shape: the fused
// loop headers charge their kLoopIter only on fall-through, and the whole-
// loop superinstruction accounts its body's steps only on the taken path.
// If an exit path over-counted, the smallest step budget that lets this
// program finish would differ between the fused compile, the unfused one
// and the tree interpreter — and a program near its maxSteps budget would
// trip the limit in one configuration but not another.
TEST(FusionStepAccounting, MinimalStepBudgetMatchesUnfusedAcrossLoopExits) {
  const Program prog = Parser::parseProgram("fusion.mjava", kManyLoopExits);
  const CompiledProgram fused = compileWith(prog, true);
  const CompiledProgram unfused = compileWith(prog, false);
  const Chunk& main = mainChunk(fused);
  ASSERT_TRUE(containsOp(main, Op::kCountedAccumLoop))
      << disassemble(main, fused);
  ASSERT_TRUE(containsOp(main, Op::kLoadLoadCmpJump))
      << disassemble(main, fused);
  const std::uint64_t fusedBudget = minimalMaxSteps<BytecodeVm>(fused);
  EXPECT_EQ(fusedBudget, minimalMaxSteps<BytecodeVm>(unfused));
  EXPECT_EQ(fusedBudget, minimalMaxSteps<jvm::Interpreter>(prog));
}

// Constant churn feeding fused call sites: kLoadLoadCallVirt/-CallSelf push
// their two-Value argument span *after* VM_TOP recorded frame.top, then
// enter helpers whose trivial-callee inlining runs a safepoint and re-reads
// the span (including the receiver ref) from the caller stack. The handlers
// must re-record frame.top before the call so a compaction landing on that
// interior safepoint scans and remaps the pushed span; a stale receiver ref
// here reads a moved/wrong heap object.
const char* const kFusedCallChurn = R"(
class Box {
  int v;
  Box(int x) { v = x; }
  int tag(int unused) { return v; }
}
class Main {
  static int mix(int a, int b) { return a + b; }
  static void main(String[] args) {
    Box keep = new Box(41);
    int total = 0;
    int i = 0;
    while (i < 300) {
      Box junk = new Box(i);
      int a = junk.tag(i);
      int b = keep.tag(i);
      int c = mix(a, b);
      total = total + c + i;
      i++;
    }
    System.out.println(total + ":" + keep.tag(0));
  }
}
)";

TEST(FusionGcRooting, FusedCallArgSpansSurviveCompaction) {
  const Program prog = Parser::parseProgram("fusion.mjava", kFusedCallChurn);
  const CompiledProgram fused = compileWith(prog, true);
  const Chunk& main = mainChunk(fused);
  ASSERT_TRUE(containsOp(main, Op::kLoadLoadCallVirt))
      << disassemble(main, fused);
  ASSERT_TRUE(containsOp(main, Op::kLoadLoadCallSelf))
      << disassemble(main, fused);

  const Observables unlimited = runVm(fused);

  energy::SimMachine machine;
  BytecodeVm vm(fused, machine);
  vm.setMaxSteps(100'000'000);
  vm.setHeapLimit(24);
  vm.runMain();

  EXPECT_GE(vm.gc().collections(), 3u);
  // Per iteration: a = i, b = 41, c = i + 41, total += c + i, so
  // total = 2 * (299 * 300 / 2) + 300 * 41.
  EXPECT_EQ(vm.output(), "102000:41\n");
  EXPECT_EQ(vm.output(), unlimited.out);
  EXPECT_EQ(doubleBits(machine.sample().packageJoules), unlimited.pkgBits);
  EXPECT_EQ(doubleBits(machine.sample().seconds), unlimited.secondsBits);
}

}  // namespace
}  // namespace jepo::jbc
