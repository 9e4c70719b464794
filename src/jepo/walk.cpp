#include "jepo/walk.hpp"

namespace jepo::core {

using jlang::Expr;
using jlang::ExprKind;
using jlang::Stmt;

void walkExpr(const Expr& e, const std::function<void(const Expr&)>& fn) {
  fn(e);
  if (e.a) walkExpr(*e.a, fn);
  if (e.b) walkExpr(*e.b, fn);
  if (e.c) walkExpr(*e.c, fn);
  for (const auto& arg : e.args) walkExpr(*arg, fn);
}

void walkStmt(const Stmt& s, const std::function<void(const Stmt&)>& onStmt,
              const std::function<void(const Expr&)>& onExpr) {
  onStmt(s);
  auto expr = [&](const jlang::Expr* e) {
    if (e) walkExpr(*e, onExpr);
  };
  expr(s.init);
  expr(s.expr);
  expr(s.cond);
  for (const auto& u : s.update) expr(u);
  for (const auto& st : s.body) walkStmt(*st, onStmt, onExpr);
  if (s.thenStmt) walkStmt(*s.thenStmt, onStmt, onExpr);
  if (s.elseStmt) walkStmt(*s.elseStmt, onStmt, onExpr);
  if (s.tryBlock) walkStmt(*s.tryBlock, onStmt, onExpr);
  for (const auto& c : s.catches) walkStmt(*c.body, onStmt, onExpr);
  if (s.finallyBlock) walkStmt(*s.finallyBlock, onStmt, onExpr);
  for (const auto& c : s.cases) {
    for (const auto& st : c.body) walkStmt(*st, onStmt, onExpr);
  }
}

bool isPureExpr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kIntLit:
    case ExprKind::kLongLit:
    case ExprKind::kFloatLit:
    case ExprKind::kDoubleLit:
    case ExprKind::kCharLit:
    case ExprKind::kStringLit:
    case ExprKind::kBoolLit:
    case ExprKind::kNullLit:
    case ExprKind::kVarRef:
      return true;
    case ExprKind::kBinary:
      // Division/modulus may throw ArithmeticException.
      if (e.binOp == jlang::BinOp::kDiv || e.binOp == jlang::BinOp::kMod) {
        return false;
      }
      return isPureExpr(*e.a) && isPureExpr(*e.b);
    case ExprKind::kUnary:
      if (e.unOp == jlang::UnOp::kPreInc || e.unOp == jlang::UnOp::kPreDec ||
          e.unOp == jlang::UnOp::kPostInc || e.unOp == jlang::UnOp::kPostDec) {
        return false;
      }
      return isPureExpr(*e.a);
    case ExprKind::kTernary:
      return isPureExpr(*e.a) && isPureExpr(*e.b) && isPureExpr(*e.c);
    case ExprKind::kCast:
      return isPureExpr(*e.a);
    default:
      // Calls, assignments, allocations, field/array access: not reorderable.
      return false;
  }
}

int exprSize(const Expr& e) {
  int n = 0;
  walkExpr(e, [&n](const Expr&) { ++n; });
  return n;
}

bool mentionsVar(const Expr& e, std::string_view name) {
  bool found = false;
  walkExpr(e, [&](const Expr& node) {
    if (node.kind == ExprKind::kVarRef && node.strValue == name) found = true;
  });
  return found;
}

}  // namespace jepo::core
