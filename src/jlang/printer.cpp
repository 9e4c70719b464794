#include "jlang/printer.hpp"

#include <cstdio>

#include "support/strings.hpp"

namespace jepo::jlang {

namespace {

std::string indentStr(int indent) { return std::string(indent * 4, ' '); }

std::string_view binOpText(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kLt: return "<";
    case BinOp::kGt: return ">";
    case BinOp::kLe: return "<=";
    case BinOp::kGe: return ">=";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
    case BinOp::kAndAnd: return "&&";
    case BinOp::kOrOr: return "||";
    case BinOp::kBitAnd: return "&";
    case BinOp::kBitOr: return "|";
    case BinOp::kBitXor: return "^";
    case BinOp::kShl: return "<<";
    case BinOp::kShr: return ">>";
  }
  return "?";
}

std::string_view assignOpText(AssignOp op) {
  switch (op) {
    case AssignOp::kSet: return "=";
    case AssignOp::kAdd: return "+=";
    case AssignOp::kSub: return "-=";
    case AssignOp::kMul: return "*=";
    case AssignOp::kDiv: return "/=";
    case AssignOp::kMod: return "%=";
  }
  return "?";
}

std::string escapeString(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\0': out += "\\0"; break;
      default: out += c;
    }
  }
  return out;
}

std::string escapeChar(char c) {
  switch (c) {
    case '\n': return "\\n";
    case '\t': return "\\t";
    case '\r': return "\\r";
    case '\\': return "\\\\";
    case '\'': return "\\'";
    case '\0': return "\\0";
    default: return std::string(1, c);
  }
}

/// Double literal spelling: reuse the original spelling when available so a
/// parse→print round trip is stable; otherwise shortest round-trip form.
std::string floatText(const Expr& e) {
  if (!e.strValue.empty()) return std::string(e.strValue);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", e.floatValue);
  std::string s = buf;
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find('E') == std::string::npos && s.find("inf") == std::string::npos &&
      s.find("nan") == std::string::npos) {
    s += ".0";
  }
  return s;
}

}  // namespace

std::string printExpr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kIntLit: return std::to_string(e.intValue);
    case ExprKind::kLongLit: return std::to_string(e.intValue) + "L";
    case ExprKind::kFloatLit: return floatText(e) + "f";
    case ExprKind::kDoubleLit: return floatText(e);
    case ExprKind::kCharLit:
      return "'" + escapeChar(static_cast<char>(e.intValue)) + "'";
    case ExprKind::kStringLit: return "\"" + escapeString(e.strValue) + "\"";
    case ExprKind::kBoolLit: return e.intValue != 0 ? "true" : "false";
    case ExprKind::kNullLit: return "null";
    case ExprKind::kVarRef: return std::string(e.strValue);
    case ExprKind::kFieldAccess:
      return concat(printExpr(*e.a), ".", e.strValue);
    case ExprKind::kArrayIndex:
      return printExpr(*e.a) + "[" + printExpr(*e.b) + "]";
    case ExprKind::kBinary:
      return "(" + printExpr(*e.a) + " " + std::string(binOpText(e.binOp)) +
             " " + printExpr(*e.b) + ")";
    case ExprKind::kUnary:
      switch (e.unOp) {
        case UnOp::kNeg: return "(-" + printExpr(*e.a) + ")";
        case UnOp::kNot: return "(!" + printExpr(*e.a) + ")";
        case UnOp::kBitNot: return "(~" + printExpr(*e.a) + ")";
        case UnOp::kPreInc: return "(++" + printExpr(*e.a) + ")";
        case UnOp::kPreDec: return "(--" + printExpr(*e.a) + ")";
        case UnOp::kPostInc: return "(" + printExpr(*e.a) + "++)";
        case UnOp::kPostDec: return "(" + printExpr(*e.a) + "--)";
      }
      return "?";
    case ExprKind::kAssign:
      return printExpr(*e.a) + " " + std::string(assignOpText(e.assignOp)) +
             " " + printExpr(*e.b);
    case ExprKind::kTernary:
      return "(" + printExpr(*e.a) + " ? " + printExpr(*e.b) + " : " +
             printExpr(*e.c) + ")";
    case ExprKind::kCall: {
      std::string out;
      if (e.a) out = printExpr(*e.a) + ".";
      out += e.strValue;
      out += '(';
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i != 0) out += ", ";
        out += printExpr(*e.args[i]);
      }
      return out + ")";
    }
    case ExprKind::kNew: {
      std::string out = concat("new ", e.strValue, "(");
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i != 0) out += ", ";
        out += printExpr(*e.args[i]);
      }
      return out + ")";
    }
    case ExprKind::kNewArray: {
      TypeRef elem = e.type;
      elem.arrayDims = 0;
      std::string out = "new " + typeName(elem);
      for (const auto& dim : e.args) out += "[" + printExpr(*dim) + "]";
      for (int i = 0; i < e.type.arrayDims; ++i) out += "[]";
      return out;
    }
    case ExprKind::kCast:
      return "((" + typeName(e.type) + ") " + printExpr(*e.a) + ")";
  }
  return "?";
}

std::string printStmt(const Stmt& s, int indent) {
  const std::string ind = indentStr(indent);
  switch (s.kind) {
    case StmtKind::kBlock: {
      std::string out = ind + "{\n";
      for (const auto& st : s.body) out += printStmt(*st, indent + 1);
      return out + ind + "}\n";
    }
    case StmtKind::kVarDecl: {
      std::string out = concat(ind, typeName(s.declType), " ", s.declName);
      if (s.init) out += " = " + printExpr(*s.init);
      return out + ";\n";
    }
    case StmtKind::kExprStmt:
      return ind + printExpr(*s.expr) + ";\n";
    case StmtKind::kIf: {
      std::string out = ind + "if (" + printExpr(*s.cond) + ")\n";
      out += printStmt(*s.thenStmt,
                       s.thenStmt->kind == StmtKind::kBlock ? indent
                                                            : indent + 1);
      if (s.elseStmt) {
        out += ind + "else\n";
        out += printStmt(*s.elseStmt,
                         s.elseStmt->kind == StmtKind::kBlock ? indent
                                                              : indent + 1);
      }
      return out;
    }
    case StmtKind::kWhile: {
      std::string out = ind + "while (" + printExpr(*s.cond) + ")\n";
      out += printStmt(*s.thenStmt,
                       s.thenStmt->kind == StmtKind::kBlock ? indent
                                                            : indent + 1);
      return out;
    }
    case StmtKind::kFor: {
      std::string init;
      if (!s.body.empty()) {
        const Stmt& is = *s.body.front();
        if (is.kind == StmtKind::kVarDecl) {
          init = concat(typeName(is.declType), " ", is.declName);
          if (is.init) init += " = " + printExpr(*is.init);
        } else {
          init = printExpr(*is.expr);
        }
      }
      std::string upd;
      for (std::size_t i = 0; i < s.update.size(); ++i) {
        if (i != 0) upd += ", ";
        upd += printExpr(*s.update[i]);
      }
      std::string out = ind + "for (" + init + "; " +
                        (s.cond ? printExpr(*s.cond) : "") + "; " + upd +
                        ")\n";
      out += printStmt(*s.thenStmt,
                       s.thenStmt->kind == StmtKind::kBlock ? indent
                                                            : indent + 1);
      return out;
    }
    case StmtKind::kReturn:
      return ind + (s.expr ? "return " + printExpr(*s.expr) : "return") +
             ";\n";
    case StmtKind::kThrow:
      return ind + "throw " + printExpr(*s.expr) + ";\n";
    case StmtKind::kTry: {
      std::string out = ind + "try\n" + printStmt(*s.tryBlock, indent);
      for (const auto& c : s.catches) {
        out += concat(ind, "catch (", c.exceptionClass, " ", c.varName, ")\n");
        out += printStmt(*c.body, indent);
      }
      if (s.finallyBlock) {
        out += ind + "finally\n" + printStmt(*s.finallyBlock, indent);
      }
      return out;
    }
    case StmtKind::kSwitch: {
      std::string out = ind + "switch (" + printExpr(*s.cond) + ") {\n";
      for (const auto& c : s.cases) {
        out += indentStr(indent + 1) +
               (c.isDefault ? "default:" : "case " + std::to_string(c.value) +
                                               ":") +
               "\n";
        for (const auto& st : c.body) out += printStmt(*st, indent + 2);
      }
      return out + ind + "}\n";
    }
    case StmtKind::kBreak: return ind + "break;\n";
    case StmtKind::kContinue: return ind + "continue;\n";
  }
  return "?";
}

std::string printClass(const ClassDecl& cls, int indent) {
  const std::string ind = indentStr(indent);
  std::string out = concat(ind, "class ", cls.name, " {\n");
  for (const auto& f : cls.fields) {
    out += indentStr(indent + 1);
    if (f.isStatic) out += "static ";
    out += concat(typeName(f.type), " ", f.name);
    if (f.init) out += " = " + printExpr(*f.init);
    out += ";\n";
  }
  if (!cls.fields.empty() && !cls.methods.empty()) out += "\n";
  for (std::size_t i = 0; i < cls.methods.size(); ++i) {
    const MethodDecl& m = cls.methods[i];
    if (i != 0) out += "\n";
    out += indentStr(indent + 1);
    if (m.isStatic) out += "static ";
    // Constructors print without a return type.
    if (m.name != cls.name) out += typeName(m.returnType) + " ";
    out += m.name;
    out += '(';
    for (std::size_t p = 0; p < m.params.size(); ++p) {
      if (p != 0) out += ", ";
      out += concat(typeName(m.params[p].type), " ", m.params[p].name);
    }
    out += ")\n";
    out += printStmt(*m.body, indent + 1);
  }
  return out + ind + "}\n";
}

std::string printUnit(const CompilationUnit& unit) {
  std::string out;
  if (!unit.packageName.empty()) {
    out += "package " + unit.packageName + ";\n\n";
  }
  for (const auto& imp : unit.imports) out += "import " + imp + ";\n";
  if (!unit.imports.empty()) out += "\n";
  for (std::size_t i = 0; i < unit.classes.size(); ++i) {
    if (i != 0) out += "\n";
    out += printClass(unit.classes[i]);
  }
  return out;
}

}  // namespace jepo::jlang
