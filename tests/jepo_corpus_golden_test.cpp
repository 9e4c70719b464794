// Golden pinning of the detect → refactor loop over fixed inputs: for all
// ten classifier corpora (scale 0.03, seed 42) and for
// examples/data/EdgePipeline.mjava, the suggestion list, the optimizer's
// change records, an FNV-1a hash of the printed optimized source and the
// predictor's static feature rows.
//
// The AST walkers behind these observables may be restructured freely as
// long as these bytes hold.
//
// Regenerating (only when intentionally changing what a rule reports or
// rewrites):
//   JEPO_CAPTURE_GOLDENS=1 ./jepo_corpus_golden_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "corpus/corpus.hpp"
#include "jepo/engine.hpp"
#include "jepo/optimizer.hpp"
#include "jlang/parser.hpp"
#include "jlang/printer.hpp"
#include "predict/features.hpp"

#ifndef JEPO_REPO_DIR
#error "jepo_corpus_golden_test needs -DJEPO_REPO_DIR=\"...\""
#endif

namespace jepo::core {
namespace {

constexpr const char* kGoldenPath =
    JEPO_REPO_DIR "/tests/goldens/jepo_corpus.golden";

bool captureMode() {
  const char* v = std::getenv("JEPO_CAPTURE_GOLDENS");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// One input's block of the golden document.
void describe(const std::string& title, const jlang::Program& program,
              std::ostream& doc) {
  doc << "== " << title << '\n';
  for (const Suggestion& s : SuggestionEngine().analyzeProgram(program)) {
    doc << "suggest " << s.file << ':' << s.line << ' ' << s.className << ' '
        << ruleComponent(s.rule) << " | " << s.detail << '\n';
  }
  const OptimizeResult opt = Optimizer().optimize(program);
  for (const ChangeRecord& c : opt.changes) {
    doc << "change " << c.file << ':' << c.line << ' ' << c.className << ' '
        << ruleComponent(c.rule) << " | " << c.description << '\n';
  }
  std::string printed;
  for (const auto& unit : opt.program.units) printed += jlang::printUnit(unit);
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(fnv1a(printed)));
  doc << "printed fnv1a " << hash << '\n';
  for (const predict::MethodFeatures& f : predict::extractFeatures(program)) {
    doc << "features " << f.method << ' ' << f.bytecodeLen << ' '
        << f.callCount << ' ' << f.loopDepth << '\n';
  }
}

std::string computeGoldenDoc() {
  std::ostringstream doc;
  doc << "# jepo corpus goldens — suggestions, change records, printed-source\n"
         "# hash and predictor features per input (classifier corpora at\n"
         "# scale 0.03, seed 42; examples/data/EdgePipeline.mjava).\n"
         "# regenerate: JEPO_CAPTURE_GOLDENS=1 ./jepo_corpus_golden_test\n";
  for (int k = 0; k < ml::kClassifierKindCount; ++k) {
    const auto kind = static_cast<ml::ClassifierKind>(k);
    const jlang::Program program =
        corpus::generateScaledCorpus(kind, 0.03, 42, nullptr);
    describe(std::string(ml::classifierName(kind)), program, doc);
  }
  std::ifstream in(JEPO_REPO_DIR "/examples/data/EdgePipeline.mjava",
                   std::ios::binary);
  std::ostringstream source;
  source << in.rdbuf();
  describe("EdgePipeline.mjava",
           jlang::Parser::parseProgram("EdgePipeline.mjava", source.str()),
           doc);
  return doc.str();
}

TEST(JepoCorpusGolden, SuggestionsChangesPrintedHashAndFeaturesMatch) {
  const std::string doc = computeGoldenDoc();

  if (captureMode()) {
    std::ofstream out(kGoldenPath, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << doc;
    GTEST_SKIP() << "golden captured to " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden " << kGoldenPath
      << " — run JEPO_CAPTURE_GOLDENS=1 ./jepo_corpus_golden_test";
  std::ostringstream captured;
  captured << in.rdbuf();
  EXPECT_EQ(doc, captured.str())
      << "a suggestion, rewrite or feature drifted; regenerate only if the "
         "change is intentional";
}

}  // namespace
}  // namespace jepo::core
