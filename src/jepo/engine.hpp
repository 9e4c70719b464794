// SuggestionEngine — the static-analysis half of JEPO.
//
// JEPO "analyzes each line of the code and checks for a specific pattern" to
// produce the suggestions of Table I. Here the patterns are matched on the
// AST (strictly more precise than line regexes) and each hit is reported
// with the class name, line and canned suggestion — the columns of the
// optimizer view (Fig. 5). The same engine drives the dynamic view (Fig. 2):
// analyzeSource() is what the editor calls on every keystroke.
#pragma once

#include <array>

#include "jepo/suggestion.hpp"
#include "jlang/ast.hpp"

namespace jepo::core {

class SuggestionEngine {
 public:
  struct Options {
    /// Per-rule enable switches (all on by default); the rule-ablation
    /// bench turns rules off one at a time.
    std::array<bool, kRuleCount> enabled;
    Options() { enabled.fill(true); }
  };

  explicit SuggestionEngine(Options options = {});

  /// Analyze one parsed file.
  std::vector<Suggestion> analyzeUnit(const jlang::CompilationUnit& unit) const;

  /// Analyze a whole project (JEPO optimizer pop-up: all classes).
  std::vector<Suggestion> analyzeProgram(const jlang::Program& program) const;

  /// Parse + analyze raw source (JEPO dynamic view on the open editor).
  std::vector<Suggestion> analyzeSource(const std::string& fileName,
                                        const std::string& source) const;

  bool ruleEnabled(RuleId id) const noexcept {
    return options_.enabled[static_cast<int>(id)];
  }

 private:
  Options options_;
};

/// Recognizer for the canonical counting loop `for (int v = init; v < bound;
/// v++)`; several rules and rewrites only apply to this shape.
struct CanonicalFor {
  std::string_view var;
  const jlang::Expr* init = nullptr;   // loop start
  const jlang::Expr* bound = nullptr;  // exclusive upper bound
  const jlang::Stmt* body = nullptr;
};
bool matchCanonicalFor(const jlang::Stmt& s, CanonicalFor* out);

/// Recognizer for the manual element-copy body `dst[v] = src[v];` (possibly
/// wrapped in a single-statement block). Returns the two array names.
bool matchManualCopyBody(const jlang::Stmt& body, std::string_view var,
                         std::string_view* dstName, std::string_view* srcName);

}  // namespace jepo::core
