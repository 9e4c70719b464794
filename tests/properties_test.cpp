// Cross-module property tests: invariants that tie the subsystems together
// rather than exercising one class.
#include <gtest/gtest.h>

#include "corpus/corpus.hpp"
#include "energy/machine.hpp"
#include "jepo/engine.hpp"
#include "jepo/optimizer.hpp"
#include "jlang/parser.hpp"
#include "jlang/printer.hpp"
#include "jvm/instrumenter.hpp"
#include "jvm/interpreter.hpp"

namespace jepo {
namespace {

// ---------------------------------------------------------------------------
// Optimizer idempotence: a second optimization pass finds nothing left.

class IdempotenceTest
    : public ::testing::TestWithParam<ml::ClassifierKind> {};

TEST_P(IdempotenceTest, SecondOptimizerPassIsEmpty) {
  int seeded = 0;
  const jlang::Program prog =
      corpus::generateScaledCorpus(GetParam(), 0.03, 7, &seeded);
  const core::OptimizeResult first = core::Optimizer().optimize(prog);
  EXPECT_EQ(static_cast<int>(first.changes.size()), seeded);
  const core::OptimizeResult second =
      core::Optimizer().optimize(first.program);
  EXPECT_EQ(second.changes.size(), 0u)
      << "second pass found: " << second.changes.front().description;
}

INSTANTIATE_TEST_SUITE_P(Corpora, IdempotenceTest,
                         ::testing::Values(ml::ClassifierKind::kJ48,
                                           ml::ClassifierKind::kSmo,
                                           ml::ClassifierKind::kKStar));

// Optimization strictly reduces the number of suggestions the engine emits.
TEST(Properties, OptimizedCorpusHasFewerSuggestions) {
  const jlang::Program prog = corpus::generateScaledCorpus(
      ml::ClassifierKind::kNaiveBayes, 0.03, 11, nullptr);
  core::SuggestionEngine engine;
  const auto before = engine.analyzeProgram(prog);
  const auto after =
      engine.analyzeProgram(core::Optimizer().optimize(prog).program);
  EXPECT_LT(after.size(), before.size());
}

// ---------------------------------------------------------------------------
// VM integer semantics equal C++ int32 semantics, swept over operand pairs.

struct ArithCase {
  std::int32_t a;
  std::int32_t b;
};

class VmArithTest : public ::testing::TestWithParam<ArithCase> {};

TEST_P(VmArithTest, MatchesHostInt32Semantics) {
  const auto [a, b] = GetParam();
  const std::string src =
      "class Main { static void main(String[] args) {\n"
      "int a = " + std::to_string(a) + "; int b = " + std::to_string(b) +
      ";\n"
      "System.out.println(a + b);\n"
      "System.out.println(a - b);\n"
      "System.out.println(a * b);\n"
      "System.out.println(a & b);\n"
      "System.out.println(a | b);\n"
      "System.out.println(a ^ b);\n"
      "if (b != 0) { System.out.println(a / b); System.out.println(a % b); }\n"
      "} }";
  energy::SimMachine machine;
  const jlang::Program prog = jlang::Parser::parseProgram("t.mjava", src);
  jvm::Interpreter interp(prog, machine);
  interp.runMain();

  auto wrap = [](std::int64_t v) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(v));
  };
  std::string expect;
  expect += std::to_string(wrap(static_cast<std::int64_t>(a) + b)) + "\n";
  expect += std::to_string(wrap(static_cast<std::int64_t>(a) - b)) + "\n";
  expect += std::to_string(wrap(static_cast<std::int64_t>(a) * b)) + "\n";
  expect += std::to_string(a & b) + "\n";
  expect += std::to_string(a | b) + "\n";
  expect += std::to_string(a ^ b) + "\n";
  if (b != 0) {
    // 64-bit host arithmetic: INT_MIN / -1 traps in int32 but wraps to
    // INT_MIN in Java, which is what the VM (and wrap()) must produce.
    expect += std::to_string(wrap(static_cast<std::int64_t>(a) / b)) + "\n";
    expect += std::to_string(wrap(static_cast<std::int64_t>(a) % b)) + "\n";
  }
  EXPECT_EQ(interp.output(), expect) << "a=" << a << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(
    OperandPairs, VmArithTest,
    ::testing::Values(ArithCase{0, 1}, ArithCase{7, 3}, ArithCase{-7, 3},
                      ArithCase{7, -3}, ArithCase{-7, -3},
                      ArithCase{2147483647, 1}, ArithCase{-2147483648, -1},
                      ArithCase{2147483647, 2147483647},
                      ArithCase{123456789, 987654}, ArithCase{-1, 255},
                      ArithCase{1 << 30, 1 << 3}, ArithCase{42, 0}));

// ---------------------------------------------------------------------------
// Instrumenter across a RAPL counter wrap: one method consuming more than
// 65,536 J (one full wrap of the 32-bit counter at ESU=16) still measures
// the modulo-wrap remainder, exactly like real perf counters.

TEST(Properties, InstrumenterSurvivesCounterWrap) {
  energy::SimMachine machine;
  jvm::Instrumenter inst(machine);
  const std::string methodName = "Big.method";
  const jvm::MethodRef method{0, methodName};
  inst.onEnter(method);
  // ~65,546 J of double math: wraps the package counter once.
  const double perOp =
      machine.model().cost(energy::Op::kDoubleMath).packageNanojoules;
  const double idle = machine.model().packageIdleWatts() *
                      machine.model().cost(energy::Op::kDoubleMath).nanoseconds;
  const auto ops = static_cast<std::uint64_t>(
      (65536.0 + 10.0) / ((perOp + idle) * 1e-9));
  machine.charge(energy::Op::kDoubleMath, ops);
  inst.onExit(method);

  ASSERT_EQ(inst.records().size(), 1u);
  // The raw counter wrapped: the measured value is the true energy minus
  // one wrap period (the fundamental RAPL ambiguity, documented).
  const double total = machine.sample().packageJoules;
  EXPECT_GT(total, 65536.0);
  EXPECT_NEAR(inst.records()[0].packageJoules, total - 65536.0, 0.01);
}

// ---------------------------------------------------------------------------
// Corpus printer round trip at a second scale + analyzing printed output
// reproduces identical suggestions (parse/print stability under analysis).

TEST(Properties, SuggestionsStableUnderPrintParseRoundTrip) {
  const jlang::Program prog = corpus::generateScaledCorpus(
      ml::ClassifierKind::kSgd, 0.02, 3, nullptr);
  core::SuggestionEngine engine;
  const auto direct = engine.analyzeProgram(prog);

  jlang::Program reparsed;
  for (const auto& unit : prog.units) {
    jlang::Parser::addUnit(reparsed, unit.fileName, jlang::printUnit(unit));
  }
  const auto viaPrint = engine.analyzeProgram(reparsed);
  ASSERT_EQ(direct.size(), viaPrint.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].rule, viaPrint[i].rule);
    EXPECT_EQ(direct[i].className, viaPrint[i].className);
  }
}

// ---------------------------------------------------------------------------
// Energy accounting is additive: running two workloads on one machine
// equals the sum of running them on separate machines (no cross-talk).

TEST(Properties, MachineEnergyIsAdditiveAcrossWorkloads) {
  auto runLoop = [](energy::SimMachine& m, int n) {
    m.charge(energy::Op::kIntMod, static_cast<std::uint64_t>(n));
    m.charge(energy::Op::kDoubleAlu, static_cast<std::uint64_t>(2 * n));
  };
  energy::SimMachine a;
  runLoop(a, 1000);
  energy::SimMachine b;
  runLoop(b, 2345);
  energy::SimMachine both;
  runLoop(both, 1000);
  runLoop(both, 2345);
  EXPECT_NEAR(both.sample().packageJoules,
              a.sample().packageJoules + b.sample().packageJoules, 1e-12);
  EXPECT_NEAR(both.sample().seconds,
              a.sample().seconds + b.sample().seconds, 1e-15);
}

}  // namespace
}  // namespace jepo
