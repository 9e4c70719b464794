// Generic AST walkers shared by the suggestion rules, the optimizer's
// applicability checks and the code-metrics calculator.
#pragma once

#include <functional>

#include "jlang/ast.hpp"

namespace jepo::core {

/// Visit every expression in an expression tree (pre-order).
void walkExpr(const jlang::Expr& e,
              const std::function<void(const jlang::Expr&)>& fn);

/// Visit every statement (pre-order) and every expression it contains.
void walkStmt(const jlang::Stmt& s,
              const std::function<void(const jlang::Stmt&)>& onStmt,
              const std::function<void(const jlang::Expr&)>& onExpr);

/// True if evaluating the expression can have side effects or throw in a
/// way that makes reordering unsafe (calls, assignments, ++/--, allocation,
/// array indexing — which may throw — and field access on arbitrary
/// objects). Literals, locals, and operators over pure operands are pure.
bool isPureExpr(const jlang::Expr& e);

/// Number of nodes in the expression tree (complexity heuristic).
int exprSize(const jlang::Expr& e);

/// True if the expression mentions the given variable name.
bool mentionsVar(const jlang::Expr& e, std::string_view name);

}  // namespace jepo::core
