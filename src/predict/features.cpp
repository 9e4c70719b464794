#include "predict/features.hpp"

#include <algorithm>

#include "jbc/code.hpp"
#include "jbc/compiler.hpp"

namespace jepo::predict {

namespace {

using jlang::Expr;
using jlang::ExprKind;
using jlang::Stmt;
using jlang::StmtKind;

/// Accumulates call count and max loop depth over one method body.
struct ShapeWalk {
  double calls = 0.0;
  int maxLoopDepth = 0;

  void expr(const Expr& e) {
    if (e.kind == ExprKind::kCall || e.kind == ExprKind::kNew) calls += 1.0;
    jlang::forEachChild(e, [&](const Expr& child) { expr(child); });
  }

  void stmt(const Stmt& s, int depth) {
    if (s.kind == StmtKind::kWhile || s.kind == StmtKind::kFor) {
      maxLoopDepth = std::max(maxLoopDepth, ++depth);
    }
    jlang::forEachChild(
        s, [&](const Stmt& child) { stmt(child, depth); },
        [&](const Expr& e) { expr(e); });
  }
};

}  // namespace

std::vector<MethodFeatures> extractFeatures(const jlang::Program& program) {
  const jbc::CompiledProgram compiled = jbc::compile(program);

  std::vector<MethodFeatures> out;
  for (const auto& unit : program.units) {
    for (const auto& cls : unit.classes) {
      for (const auto& method : cls.methods) {
        MethodFeatures f;
        f.method = concat(cls.name, ".", method.name);

        ShapeWalk walk;
        if (method.body) walk.stmt(*method.body, 0);
        f.callCount = walk.calls;
        f.loopDepth = static_cast<double>(walk.maxLoopDepth);

        const auto clsIt = compiled.classes.find(cls.name);
        if (clsIt != compiled.classes.end()) {
          const auto chunkIt = clsIt->second.methods.find(method.name);
          if (chunkIt != clsIt->second.methods.end()) {
            f.bytecodeLen =
                static_cast<double>(chunkIt->second.code.size());
          }
        }
        out.push_back(std::move(f));
      }
    }
  }
  return out;
}

}  // namespace jepo::predict
