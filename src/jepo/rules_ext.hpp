// Extension rules — the paper's stated future work ("we hope to improve
// JEPO by including more suggestions for software developers").
//
// Five additional energy rules beyond Table I, in the same detect/refactor
// style. Detection lives here; the two mechanically safe rewrites
// (length-hoisting and field caching) are implemented in ExtOptimizer.
#pragma once

#include <string>
#include <vector>

#include "jlang/ast.hpp"

namespace jepo::core {

enum class ExtRuleId : int {
  kTryInLoop = 0,       // try/catch entered every iteration: hoist the loop
                        // inside the try (setup cost per entry)
  kBoxingInLoop,        // wrapper allocation inside a hot loop
  kAllocationInLoop,    // `new` per iteration where reuse would do
  kLengthInLoopCond,    // s.length()/arr.length recomputed every test
  kRepeatedFieldAccess, // same instance field read 3+ times in one method

  kExtRuleCount
};

inline constexpr int kExtRuleCount = static_cast<int>(ExtRuleId::kExtRuleCount);

std::string_view extRuleName(ExtRuleId id) noexcept;
std::string_view extRuleSuggestion(ExtRuleId id) noexcept;

struct ExtSuggestion {
  ExtRuleId rule = ExtRuleId::kTryInLoop;
  std::string file;
  std::string className;
  int line = 0;
  std::string detail;
};

/// Analyze a project with the extension rules.
std::vector<ExtSuggestion> analyzeExtensions(const jlang::Program& program);

/// The safe subset of extension rewrites:
///  - hoist `x.length()` out of canonical-for conditions when the loop body
///    does not write `x`;
///  - cache an instance field read 3+ times into a local when the method
///    never writes it and makes no calls (which could alias-write it).
struct ExtChange {
  ExtRuleId rule;
  std::string className;
  int line;
  std::string description;
};

struct ExtOptimizeResult {
  jlang::Program program;
  std::vector<ExtChange> changes;
};

ExtOptimizeResult optimizeExtensions(const jlang::Program& program);

}  // namespace jepo::core
