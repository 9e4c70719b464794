// Golden pinning of the MiniJava front end's bytes over fixed inputs: the
// ten classifier corpora (scale 0.03, seed 42), the differential fuzzer's
// default programs and examples/data/EdgePipeline.mjava. Per input it pins
// an FNV-1a hash of jlang::printUnit's output, one of the other three
// print forms (printClass per class, printStmt per method body, printExpr
// per field initializer), and the lexer's token stream as (type, text,
// line, col). It also checks that printing is a fixed point:
// print(parse(print(p))) == print(p).
//
// The printer and the lexer may be restructured freely as long as these
// bytes hold.
//
// Regenerating (only when intentionally changing the canonical printed
// form or token positions):
//   JEPO_CAPTURE_GOLDENS=1 ./front_end_golden_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/corpus.hpp"
#include "jlang/lexer.hpp"
#include "jlang/parser.hpp"
#include "jlang/printer.hpp"
#include "support/rng.hpp"
#include "tests/support/progen.hpp"

#ifndef JEPO_REPO_DIR
#error "front_end_golden_test needs -DJEPO_REPO_DIR=\"...\""
#endif

namespace jepo::jlang {
namespace {

constexpr const char* kGoldenPath =
    JEPO_REPO_DIR "/tests/goldens/front_end.golden";

bool captureMode() {
  const char* v = std::getenv("JEPO_CAPTURE_GOLDENS");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

std::string fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

struct Input {
  std::string name;
  std::string source;
};

/// Every pinned input, in a fixed order.
const std::vector<Input>& inputs() {
  static const std::vector<Input> all = [] {
    std::vector<Input> out;
    for (int k = 0; k < ml::kClassifierKindCount; ++k) {
      const auto kind = static_cast<ml::ClassifierKind>(k);
      const Program program =
          corpus::generateScaledCorpus(kind, 0.03, 42, nullptr);
      for (const auto& unit : program.units) {
        out.push_back({std::string(ml::classifierName(kind)) + "/" +
                           unit.fileName,
                       std::string(unit.source)});
      }
    }
    for (int i = 0; i < testgen::kDefaultRuns; ++i) {
      testgen::GeneratedProgram p = testgen::generateProgram(
          deriveSeed(testgen::kDefaultBaseSeed, static_cast<std::uint64_t>(i)));
      out.push_back({std::move(p.name), std::move(p.source)});
    }
    std::ifstream in(JEPO_REPO_DIR "/examples/data/EdgePipeline.mjava",
                     std::ios::binary);
    std::ostringstream source;
    source << in.rdbuf();
    out.push_back({"EdgePipeline.mjava", source.str()});
    return out;
  }();
  return all;
}

/// printClass, printStmt and printExpr over every class, method body and
/// field initializer of `unit`.
std::string printParts(const CompilationUnit& unit) {
  std::string out;
  for (const ClassDecl& cls : unit.classes) {
    out += printClass(cls, 1);
    for (const FieldDecl& f : cls.fields) {
      if (f.init) out += printExpr(*f.init) + '\n';
    }
    for (const MethodDecl& m : cls.methods) {
      if (m.body) out += printStmt(*m.body, 2);
    }
  }
  return out;
}

/// One line per token: type, text, line:col.
std::string tokenStream(std::string_view source, std::size_t* count) {
  Arena decoded;
  const std::vector<Token> tokens = Lexer(source, decoded).tokenize();
  *count = tokens.size();
  std::string out;
  for (const Token& t : tokens) {
    out += std::to_string(static_cast<int>(t.type));
    out += ' ';
    out += t.text;
    out += ' ';
    out += std::to_string(t.line);
    out += ':';
    out += std::to_string(t.col);
    out += '\n';
  }
  return out;
}

std::string computeGoldenDoc() {
  std::string doc =
      "# front-end goldens: per input, FNV-1a of jlang::printUnit's output,\n"
      "# of printClass/printStmt/printExpr over its parts, and the token\n"
      "# count and FNV-1a of the lexer's (type, text, line, col) stream.\n"
      "# Inputs: classifier corpora (scale 0.03, seed 42), the fuzzer's\n"
      "# default programs, examples/data/EdgePipeline.mjava.\n"
      "# regenerate: JEPO_CAPTURE_GOLDENS=1 ./front_end_golden_test\n";
  for (const Input& in : inputs()) {
    const Program program = Parser::parseProgram(in.name, in.source);
    const CompilationUnit& unit = program.units.front();
    std::size_t count = 0;
    const std::string tokens = tokenStream(in.source, &count);
    doc += in.name + " print " + fnv1a(printUnit(unit)) + " parts " +
           fnv1a(printParts(unit)) + " tokens " + std::to_string(count) +
           " " + fnv1a(tokens) + "\n";
  }
  return doc;
}

TEST(FrontEndGolden, PrintedAndTokenHashesMatch) {
  const std::string doc = computeGoldenDoc();

  if (captureMode()) {
    std::ofstream out(kGoldenPath, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << doc;
    GTEST_SKIP() << "golden captured to " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << kGoldenPath
                         << " — run JEPO_CAPTURE_GOLDENS=1 "
                            "./front_end_golden_test";
  std::ostringstream captured;
  captured << in.rdbuf();
  EXPECT_EQ(doc, captured.str())
      << "printed bytes or token positions drifted; regenerate only if the "
         "change is intentional";
}

TEST(FrontEndGolden, PrintingIsAFixedPoint) {
  for (const Input& in : inputs()) {
    const Program program = Parser::parseProgram(in.name, in.source);
    const std::string printed = printUnit(program.units.front());
    const Program reparsed = Parser::parseProgram(in.name, printed);
    ASSERT_EQ(printUnit(reparsed.units.front()), printed) << in.name;
  }
}

}  // namespace
}  // namespace jepo::jlang
