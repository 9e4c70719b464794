#include "jepo/walk.hpp"

namespace jepo::core {

using jlang::Expr;
using jlang::ExprKind;

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
