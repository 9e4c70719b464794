#include "jlang/printer.hpp"

#include <charconv>
#include <cstdio>

namespace jepo::jlang {

namespace {

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

/// The escape a string or char literal prints for `c`, or "" when it
/// prints as itself. A quote needs one only in its own kind of literal.
std::string_view escapeOf(char c, char quote) {
  switch (c) {
    case '\n': return "\\n";
    case '\t': return "\\t";
    case '\r': return "\\r";
    case '\\': return "\\\\";
    case '\0': return "\\0";
    case '"': return quote == '"' ? "\\\"" : "";
    case '\'': return quote == '\'' ? "\\'" : "";
    default: return "";
  }
}

/// An indentation level (four spaces each).
struct Indent {
  int level;
};

/// Appends the canonical text of AST nodes to one caller-owned buffer.
class Printer {
 public:
  explicit Printer(std::string& out) : out_(out) {}

  void expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit: put(e.intValue); return;
      case ExprKind::kLongLit: put(e.intValue, 'L'); return;
      case ExprKind::kFloatLit:
        floatText(e);
        put('f');
        return;
      case ExprKind::kDoubleLit: floatText(e); return;
      case ExprKind::kCharLit: {
        const char c = static_cast<char>(e.intValue);
        put('\'');
        escaped(std::string_view(&c, 1), '\'');
        put('\'');
        return;
      }
      case ExprKind::kStringLit:
        put('"');
        escaped(e.strValue, '"');
        put('"');
        return;
      case ExprKind::kBoolLit: put(e.intValue != 0 ? "true" : "false"); return;
      case ExprKind::kNullLit: put("null"); return;
      case ExprKind::kVarRef: put(e.strValue); return;
      case ExprKind::kFieldAccess: put(*e.a, '.', e.strValue); return;
      case ExprKind::kArrayIndex: put(*e.a, '[', *e.b, ']'); return;
      case ExprKind::kBinary:
        put('(', *e.a, ' ', binOpText(e.binOp), ' ', *e.b, ')');
        return;
      case ExprKind::kUnary: unary(e); return;
      case ExprKind::kAssign:
        put(*e.a, ' ', assignOpText(e.assignOp), ' ', *e.b);
        return;
      case ExprKind::kTernary:
        put('(', *e.a, " ? ", *e.b, " : ", *e.c, ')');
        return;
      case ExprKind::kCall:
        if (e.a) put(*e.a, '.');
        put(e.strValue);
        args(e.args);
        return;
      case ExprKind::kNew:
        put("new ", e.strValue);
        args(e.args);
        return;
      case ExprKind::kNewArray: {
        TypeRef elem = e.type;
        elem.arrayDims = 0;
        put("new ", elem);
        for (const auto& dim : e.args) put('[', *dim, ']');
        for (int i = 0; i < e.type.arrayDims; ++i) put("[]");
        return;
      }
      case ExprKind::kCast: put("((", e.type, ") ", *e.a, ')'); return;
    }
    put('?');
  }

  void stmt(const Stmt& s, int indent) {
    const Indent ind{indent};
    switch (s.kind) {
      case StmtKind::kBlock:
        put(ind, "{\n");
        for (const auto& st : s.body) stmt(*st, indent + 1);
        put(ind, "}\n");
        return;
      case StmtKind::kVarDecl:
        put(ind);
        varDecl(s);
        put(";\n");
        return;
      case StmtKind::kExprStmt: put(ind, *s.expr, ";\n"); return;
      case StmtKind::kIf:
        put(ind, "if (", *s.cond, ")\n");
        child(*s.thenStmt, indent);
        if (s.elseStmt) {
          put(ind, "else\n");
          child(*s.elseStmt, indent);
        }
        return;
      case StmtKind::kWhile:
        put(ind, "while (", *s.cond, ")\n");
        child(*s.thenStmt, indent);
        return;
      case StmtKind::kFor:
        put(ind, "for (");
        if (!s.body.empty()) {
          const Stmt& init = *s.body.front();
          if (init.kind == StmtKind::kVarDecl) {
            varDecl(init);
          } else {
            put(*init.expr);
          }
        }
        put("; ");
        if (s.cond) put(*s.cond);
        put("; ");
        list(s.update);
        put(")\n");
        child(*s.thenStmt, indent);
        return;
      case StmtKind::kReturn:
        if (s.expr) {
          put(ind, "return ", *s.expr, ";\n");
        } else {
          put(ind, "return;\n");
        }
        return;
      case StmtKind::kThrow: put(ind, "throw ", *s.expr, ";\n"); return;
      case StmtKind::kTry:
        put(ind, "try\n");
        stmt(*s.tryBlock, indent);
        for (const auto& c : s.catches) {
          put(ind, "catch (", c.exceptionClass, ' ', c.varName, ")\n");
          stmt(*c.body, indent);
        }
        if (s.finallyBlock) {
          put(ind, "finally\n");
          stmt(*s.finallyBlock, indent);
        }
        return;
      case StmtKind::kSwitch:
        put(ind, "switch (", *s.cond, ") {\n");
        for (const auto& c : s.cases) {
          if (c.isDefault) {
            put(Indent{indent + 1}, "default:\n");
          } else {
            put(Indent{indent + 1}, "case ", c.value, ":\n");
          }
          for (const auto& st : c.body) stmt(*st, indent + 2);
        }
        put(ind, "}\n");
        return;
      case StmtKind::kBreak: put(ind, "break;\n"); return;
      case StmtKind::kContinue: put(ind, "continue;\n"); return;
    }
    put('?');
  }

  void classDecl(const ClassDecl& cls, int indent) {
    const Indent member{indent + 1};
    put(Indent{indent}, "class ", cls.name, " {\n");
    for (const auto& f : cls.fields) {
      put(member, f.isStatic ? "static " : "", f.type, ' ', f.name);
      if (f.init) put(" = ", *f.init);
      put(";\n");
    }
    if (!cls.fields.empty() && !cls.methods.empty()) put('\n');
    for (std::size_t i = 0; i < cls.methods.size(); ++i) {
      const MethodDecl& m = cls.methods[i];
      if (i != 0) put('\n');
      put(member, m.isStatic ? "static " : "");
      // Constructors print without a return type.
      if (m.name != cls.name) put(m.returnType, ' ');
      put(m.name, '(');
      for (std::size_t p = 0; p < m.params.size(); ++p) {
        if (p != 0) put(", ");
        put(m.params[p].type, ' ', m.params[p].name);
      }
      put(")\n");
      stmt(*m.body, indent + 1);
    }
    put(Indent{indent}, "}\n");
  }

  void unit(const CompilationUnit& unit) {
    if (!unit.packageName.empty()) put("package ", unit.packageName, ";\n\n");
    for (const auto& imp : unit.imports) put("import ", imp, ";\n");
    if (!unit.imports.empty()) put('\n');
    for (std::size_t i = 0; i < unit.classes.size(); ++i) {
      if (i != 0) put('\n');
      classDecl(unit.classes[i], 0);
    }
  }

 private:
  template <typename... Parts>
  void put(const Parts&... parts) {
    (putOne(parts), ...);
  }
  void putOne(std::string_view text) { out_ += text; }
  void putOne(char c) { out_ += c; }
  void putOne(std::int64_t v) {
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  }
  void putOne(Indent ind) {
    out_.append(static_cast<std::size_t>(ind.level) * 4, ' ');
  }
  void putOne(const TypeRef& t) { appendTypeName(out_, t); }
  void putOne(const Expr& e) { expr(e); }

  /// A statement under if/else/while/for: a block at the header's indent,
  /// anything else one level in.
  void child(const Stmt& s, int indent) {
    stmt(s, s.kind == StmtKind::kBlock ? indent : indent + 1);
  }

  void varDecl(const Stmt& s) {
    put(s.declType, ' ', s.declName);
    if (s.init) put(" = ", *s.init);
  }

  /// Comma-separated expressions.
  void list(const List<ExprPtr>& exprs) {
    for (std::size_t i = 0; i < exprs.size(); ++i) {
      if (i != 0) put(", ");
      put(*exprs[i]);
    }
  }

  void args(const List<ExprPtr>& exprs) {
    put('(');
    list(exprs);
    put(')');
  }

  void unary(const Expr& e) {
    switch (e.unOp) {
      case UnOp::kNeg: put("(-", *e.a, ')'); return;
      case UnOp::kNot: put("(!", *e.a, ')'); return;
      case UnOp::kBitNot: put("(~", *e.a, ')'); return;
      case UnOp::kPreInc: put("(++", *e.a, ')'); return;
      case UnOp::kPreDec: put("(--", *e.a, ')'); return;
      case UnOp::kPostInc: put('(', *e.a, "++)"); return;
      case UnOp::kPostDec: put('(', *e.a, "--)"); return;
    }
    put('?');
  }

  /// Double literal spelling: reuse the original spelling when available
  /// so a parse→print round trip is stable; otherwise shortest round-trip
  /// form.
  void floatText(const Expr& e) {
    if (!e.strValue.empty()) {
      put(e.strValue);
      return;
    }
    char buf[64];
    const int n = std::snprintf(buf, sizeof buf, "%.17g", e.floatValue);
    const std::string_view text(buf, static_cast<std::size_t>(n));
    put(text);
    if (text.find_first_of(".eE") == std::string_view::npos &&
        text.find("inf") == std::string_view::npos &&
        text.find("nan") == std::string_view::npos) {
      put(".0");
    }
  }

  /// `text` inside a `quote`-delimited literal; plain runs go out in one
  /// append each.
  void escaped(std::string_view text, char quote) {
    std::size_t run = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
      const std::string_view esc = escapeOf(text[i], quote);
      if (esc.empty()) continue;
      put(text.substr(run, i - run), esc);
      run = i + 1;
    }
    put(text.substr(run));
  }

  std::string& out_;
};

}  // namespace

std::string printExpr(const Expr& e) {
  std::string out;
  Printer(out).expr(e);
  return out;
}

std::string printStmt(const Stmt& s, int indent) {
  std::string out;
  Printer(out).stmt(s, indent);
  return out;
}

std::string printClass(const ClassDecl& cls, int indent) {
  std::string out;
  Printer(out).classDecl(cls, indent);
  return out;
}

void printUnitTo(std::string& out, const CompilationUnit& unit) {
  // The source length and a quarter more, for the parentheses and
  // indentation canonical form adds.
  out.reserve(out.size() + unit.sourceBytes + unit.sourceBytes / 4);
  Printer(out).unit(unit);
}

std::string printUnit(const CompilationUnit& unit) {
  std::string out;
  printUnitTo(out, unit);
  return out;
}

}  // namespace jepo::jlang
