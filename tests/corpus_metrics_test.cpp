#include <gtest/gtest.h>

#include "corpus/corpus.hpp"
#include "jepo/optimizer.hpp"
#include "jlang/parser.hpp"
#include "jlang/printer.hpp"
#include "metrics/metrics.hpp"

namespace jepo::corpus {
namespace {

using jlang::Parser;
using jlang::Program;
using metrics::CodeMetrics;
using metrics::computeMetrics;
using ml::ClassifierKind;

// --------------------------------------------------------------- metrics

TEST(Metrics, CountsSmallProgram) {
  Program prog;
  Parser::addUnit(prog, "a.mjava", R"(
    package pkg.one;
    import pkg.two.B;
    class A {
      int x;
      long y;
      void m() { }
      int n(int v) { return v; }
    }
  )");
  Parser::addUnit(prog, "b.mjava", R"(
    package pkg.two;
    class B { int z; void p() { } }
  )");

  const CodeMetrics m = computeMetrics(prog);
  EXPECT_EQ(m.dependencies, 2u);  // pkg.one.A + pkg.two.B (import merges)
  EXPECT_EQ(m.attributes, 3u);
  EXPECT_EQ(m.methods, 3u);
  EXPECT_EQ(m.packages, 2u);
  EXPECT_GT(m.loc, 8u);
}

TEST(Metrics, ImportOfExternalClassCountsAsDependency) {
  Program prog;
  Parser::addUnit(prog, "a.mjava",
                  "package p;\nimport q.External;\nclass A { }\n");
  EXPECT_EQ(computeMetrics(prog).dependencies, 2u);
}

// ---------------------------------------------------------------- corpus

TEST(Corpus, ProfilesMatchTableTwoAndFour) {
  const CorpusProfile j48 = profileFor(ClassifierKind::kJ48);
  EXPECT_EQ(j48.classes, 684u);
  EXPECT_EQ(j48.attributes, 3263u);
  EXPECT_EQ(j48.methods, 7746u);
  EXPECT_EQ(j48.packages, 41u);
  EXPECT_EQ(j48.seededChanges, 877);

  const CorpusProfile rf = profileFor(ClassifierKind::kRandomForest);
  EXPECT_EQ(rf.classes, 673u);
  EXPECT_EQ(rf.seededChanges, 719);

  const CorpusProfile rt = profileFor(ClassifierKind::kRandomTree);
  EXPECT_EQ(rt.seededChanges, 709);
}

TEST(Corpus, ScaledCorpusHasProportionalMetrics) {
  int seeded = 0;
  const Program prog =
      generateScaledCorpus(ClassifierKind::kJ48, 0.05, 42, &seeded);
  const CodeMetrics m = computeMetrics(prog);
  const CorpusProfile full = profileFor(ClassifierKind::kJ48);
  EXPECT_EQ(m.dependencies, static_cast<std::size_t>(full.classes * 0.05));
  // Rounding in the scale math and the per-class CONFIG_LIMIT host fields
  // allow a few counts of slack.
  EXPECT_NEAR(static_cast<double>(m.attributes),
              static_cast<double>(full.attributes) * 0.05, 8.0);
  EXPECT_NEAR(static_cast<double>(m.methods),
              static_cast<double>(full.methods) * 0.05, 8.0);
  EXPECT_GT(m.loc, 1000u);
  EXPECT_GT(seeded, 30);
}

TEST(Corpus, DeterministicForSeed) {
  const Program a = generateScaledCorpus(ClassifierKind::kSmo, 0.02, 7, nullptr);
  const Program b = generateScaledCorpus(ClassifierKind::kSmo, 0.02, 7, nullptr);
  ASSERT_EQ(a.units.size(), b.units.size());
  for (std::size_t i = 0; i < a.units.size(); ++i) {
    EXPECT_EQ(jlang::printUnit(a.units[i]), jlang::printUnit(b.units[i]));
  }
}

TEST(Corpus, GeneratedSourceReparses) {
  const Program prog =
      generateScaledCorpus(ClassifierKind::kNaiveBayes, 0.02, 11, nullptr);
  for (const auto& unit : prog.units) {
    const std::string printed = jlang::printUnit(unit);
    EXPECT_NO_THROW(Parser::parseProgram(unit.fileName, printed))
        << unit.fileName;
  }
}

// The load-bearing property: the optimizer finds EXACTLY the seeded number
// of changes — this is how the Table IV "Changes" column is reproduced.
TEST(Corpus, OptimizerChangeCountEqualsSeededCount) {
  for (ClassifierKind kind :
       {ClassifierKind::kJ48, ClassifierKind::kLogistic,
        ClassifierKind::kIbk}) {
    int seeded = 0;
    const Program prog = generateScaledCorpus(kind, 0.04, 42, &seeded);
    core::OptimizerOptions opts;  // lossy mode, as in the paper
    const auto result = core::Optimizer(opts).optimize(prog);
    EXPECT_EQ(static_cast<int>(result.changes.size()), seeded)
        << ml::classifierName(kind);
  }
}

TEST(Corpus, FillerCodeIsChangeFree) {
  // Scale small enough that zero patterns are seeded... the generator
  // guarantees >= 1, so instead verify: changes == seeded even at a scale
  // where fillers dominate 25:1. Any filler-triggered change would break
  // the equality above; this case doubles the evidence on another kind.
  int seeded = 0;
  const Program prog =
      generateScaledCorpus(ClassifierKind::kSgd, 0.03, 99, &seeded);
  const auto result = core::Optimizer().optimize(prog);
  EXPECT_EQ(static_cast<int>(result.changes.size()), seeded);
}

TEST(Corpus, PackageCountsSurviveGeneration) {
  int seeded = 0;
  const Program prog =
      generateScaledCorpus(ClassifierKind::kSmo, 0.2, 42, &seeded);
  const CodeMetrics m = computeMetrics(prog);
  EXPECT_GE(m.packages, 2u);
  EXPECT_LE(m.packages, 43u);
}

}  // namespace
}  // namespace jepo::corpus
