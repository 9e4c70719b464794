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

  void expr(const Expr* e, int depth) {
    if (!e) return;
    if (e->kind == ExprKind::kCall || e->kind == ExprKind::kNew) {
      calls += 1.0;
    }
    expr(e->a, depth);
    expr(e->b, depth);
    expr(e->c, depth);
    for (const auto& arg : e->args) expr(arg, depth);
  }

  void stmt(const Stmt* s, int depth) {
    if (!s) return;
    const bool loop =
        s->kind == StmtKind::kWhile || s->kind == StmtKind::kFor;
    if (loop) {
      ++depth;
      maxLoopDepth = std::max(maxLoopDepth, depth);
    }
    expr(s->init, depth);
    expr(s->expr, depth);
    expr(s->cond, depth);
    for (const auto& u : s->update) expr(u, depth);
    for (const auto& child : s->body) stmt(child, depth);
    stmt(s->thenStmt, depth);
    stmt(s->elseStmt, depth);
    stmt(s->tryBlock, depth);
    for (const auto& c : s->catches) stmt(c.body, depth);
    stmt(s->finallyBlock, depth);
    for (const auto& sc : s->cases) {
      for (const auto& child : sc.body) stmt(child, depth);
    }
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
        walk.stmt(method.body, 0);
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
