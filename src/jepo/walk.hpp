// Generic AST walkers shared by the suggestion rules and the optimizer's
// applicability checks and rewrites. They enumerate children through
// jlang::forEachChild.
#pragma once

#include "jlang/ast.hpp"

namespace jepo::core {

/// Visit every expression in an expression tree (pre-order). On a mutable
/// tree `fn` gets an `Expr&` and may edit the node before its children are
/// visited.
template <class Fn>
void walkExpr(const jlang::Expr& e, Fn&& fn) {
  fn(e);
  jlang::forEachChild(e, [&](const jlang::Expr& c) { walkExpr(c, fn); });
}

template <class Fn>
void walkExpr(jlang::Expr& e, Fn&& fn) {
  fn(e);
  jlang::forEachChild(e, [&](jlang::ExprPtr& c) { walkExpr(*c, fn); });
}

/// Visit every statement (pre-order) and every expression it contains.
template <class OnStmt, class OnExpr>
void walkStmt(const jlang::Stmt& s, OnStmt&& onStmt, OnExpr&& onExpr) {
  onStmt(s);
  jlang::forEachChild(
      s, [&](const jlang::Stmt& c) { walkStmt(c, onStmt, onExpr); },
      [&](const jlang::Expr& e) { walkExpr(e, onExpr); });
}

template <class OnStmt, class OnExpr>
void walkStmt(jlang::Stmt& s, OnStmt&& onStmt, OnExpr&& onExpr) {
  onStmt(s);
  jlang::forEachChild(
      s, [&](jlang::Stmt& c) { walkStmt(c, onStmt, onExpr); },
      [&](jlang::ExprPtr& e) { walkExpr(*e, onExpr); });
}

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
