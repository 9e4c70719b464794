#include "jepo/engine.hpp"

#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "jepo/walk.hpp"
#include "jlang/parser.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "support/strings.hpp"

namespace jepo::core {

using jlang::BinOp;
using jlang::ClassDecl;
using jlang::CompilationUnit;
using jlang::Expr;
using jlang::ExprKind;
using jlang::Prim;
using jlang::Program;
using jlang::Stmt;
using jlang::StmtKind;
using jlang::TypeRef;

namespace {

bool isNonIntPrimitive(const TypeRef& t) {
  if (t.arrayDims != 0) return false;
  return t.prim == Prim::kByte || t.prim == Prim::kShort ||
         t.prim == Prim::kLong;
}

bool isNonIntegerWrapper(const TypeRef& t) {
  if (t.arrayDims != 0 || t.prim != Prim::kClass) return false;
  const std::string_view n = t.className;
  return n == "Long" || n == "Short" || n == "Byte" || n == "Double" ||
         n == "Float" || n == "Character";
}

/// A plain decimal literal that would be shorter/cheaper in scientific
/// notation: large magnitudes or tiny fractions.
bool wantsScientific(double v) {
  const double mag = std::fabs(v);
  return mag >= 1000.0 || (mag > 0.0 && mag < 0.001);
}

bool isPowerOfTwoLiteral(const Expr& e) {
  if (e.kind != ExprKind::kIntLit && e.kind != ExprKind::kLongLit) {
    return false;
  }
  const std::int64_t v = e.intValue;
  return v > 0 && (v & (v - 1)) == 0;
}

}  // namespace

bool matchCanonicalFor(const Stmt& s, CanonicalFor* out) {
  if (s.kind != StmtKind::kFor) return false;
  if (s.body.size() != 1 || s.body[0]->kind != StmtKind::kVarDecl) {
    return false;
  }
  const Stmt& init = *s.body[0];
  if (init.declType != TypeRef::scalar(Prim::kInt) || !init.init) return false;
  if (!s.cond || s.cond->kind != ExprKind::kBinary ||
      s.cond->binOp != BinOp::kLt) {
    return false;
  }
  if (s.cond->a->kind != ExprKind::kVarRef ||
      s.cond->a->strValue != init.declName) {
    return false;
  }
  if (s.update.size() != 1) return false;
  const Expr& u = *s.update[0];
  const bool isIncrement =
      (u.kind == ExprKind::kUnary &&
       (u.unOp == jlang::UnOp::kPostInc || u.unOp == jlang::UnOp::kPreInc) &&
       u.a->kind == ExprKind::kVarRef && u.a->strValue == init.declName) ||
      (u.kind == ExprKind::kAssign && u.assignOp == jlang::AssignOp::kAdd &&
       u.a->kind == ExprKind::kVarRef && u.a->strValue == init.declName &&
       u.b->kind == ExprKind::kIntLit && u.b->intValue == 1);
  if (!isIncrement) return false;
  if (out != nullptr) {
    out->var = init.declName;
    out->init = init.init;
    out->bound = s.cond->b;
    out->body = s.thenStmt;
  }
  return true;
}

bool matchManualCopyBody(const Stmt& body, std::string_view var,
                         std::string_view* dstName,
                         std::string_view* srcName) {
  const Stmt* stmt = &body;
  if (stmt->kind == StmtKind::kBlock) {
    if (stmt->body.size() != 1) return false;
    stmt = stmt->body[0];
  }
  if (stmt->kind != StmtKind::kExprStmt) return false;
  const Expr& e = *stmt->expr;
  if (e.kind != ExprKind::kAssign || e.assignOp != jlang::AssignOp::kSet) {
    return false;
  }
  const Expr& dst = *e.a;
  const Expr& src = *e.b;
  auto isSimpleIndex = [var](const Expr& x, std::string_view* arrayName) {
    if (x.kind != ExprKind::kArrayIndex) return false;
    if (x.a->kind != ExprKind::kVarRef) return false;
    if (x.b->kind != ExprKind::kVarRef || x.b->strValue != var) return false;
    *arrayName = x.a->strValue;
    return true;
  };
  std::string_view d;
  std::string_view s2;
  if (!isSimpleIndex(dst, &d) || !isSimpleIndex(src, &s2)) return false;
  if (d == s2) return false;  // self-copy is not the pattern
  if (dstName != nullptr) *dstName = d;
  if (srcName != nullptr) *srcName = s2;
  return true;
}

SuggestionEngine::SuggestionEngine(Options options)
    : options_(std::move(options)) {}

namespace {

/// Per-class analysis pass: walks every member, tracking local String /
/// numeric declarations for the type-sensitive rules.
class ClassAnalyzer {
 public:
  ClassAnalyzer(const SuggestionEngine& engine, const std::string& file,
                const ClassDecl& cls, std::vector<Suggestion>* out)
      : engine_(engine), file_(file), cls_(cls), out_(out) {}

  void run() {
    for (const auto& f : cls_.fields) analyzeField(f);
    for (const auto& m : cls_.methods) analyzeMethod(m);
  }

 private:
  void emit(RuleId rule, int line, std::string detail) {
    if (!engine_.ruleEnabled(rule)) return;
    Suggestion s;
    s.rule = rule;
    s.file = file_;
    s.className = cls_.name;
    s.line = line;
    s.detail = std::move(detail);
    out_->push_back(std::move(s));
  }

  void analyzeField(const jlang::FieldDecl& f) {
    if (f.isStatic) {
      emit(RuleId::kStaticKeyword, f.line,
           concat("static field '", f.name, "'"));
    }
    if (isNonIntPrimitive(f.type)) {
      emit(RuleId::kPrimitiveDataType, f.line,
           concat(jlang::typeName(f.type), " field '", f.name, "'"));
    }
    if (isNonIntegerWrapper(f.type)) {
      emit(RuleId::kWrapperClass, f.line,
           concat(f.type.className, " field '", f.name, "'"));
    }
    if (f.type.isClass("String")) stringNames_.insert(f.name);
    if (f.init) analyzeExpr(*f.init);
  }

  void analyzeMethod(const jlang::MethodDecl& m) {
    stringLocals_.clear();
    for (const auto& p : m.params) {
      if (isNonIntPrimitive(p.type)) {
        emit(RuleId::kPrimitiveDataType, m.line,
             concat(jlang::typeName(p.type), " parameter '", p.name, "'"));
      }
      if (p.type.isClass("String")) stringLocals_.insert(p.name);
    }
    if (m.body) analyzeStmt(*m.body);
  }

  bool isStringExpr(const Expr& e) const {
    switch (e.kind) {
      case ExprKind::kStringLit: return true;
      case ExprKind::kVarRef:
        return stringLocals_.count(e.strValue) != 0 ||
               stringNames_.count(e.strValue) != 0;
      case ExprKind::kBinary:
        return e.binOp == BinOp::kAdd &&
               (isStringExpr(*e.a) || isStringExpr(*e.b));
      case ExprKind::kCall:
        return e.strValue == "toString" || e.strValue == "substring" ||
               e.strValue == "concat" ||
               (e.strValue == "valueOf" && e.a &&
                e.a->kind == ExprKind::kVarRef && e.a->strValue == "String");
      default: return false;
    }
  }

  void analyzeStmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kVarDecl: {
        if (isNonIntPrimitive(s.declType)) {
          emit(RuleId::kPrimitiveDataType, s.line,
               concat(jlang::typeName(s.declType), " local '", s.declName,
                      "'"));
        }
        if (isNonIntegerWrapper(s.declType)) {
          emit(RuleId::kWrapperClass, s.line,
               concat(s.declType.className, " local '", s.declName, "'"));
        }
        if (s.declType.isClass("String")) stringLocals_.insert(s.declName);
        break;
      }
      case StmtKind::kFor: {
        CanonicalFor outer;
        if (matchCanonicalFor(s, &outer)) {
          // Manual array copy: for (int i = ...) dst[i] = src[i];
          std::string_view dst;
          std::string_view src;
          if (matchManualCopyBody(*outer.body, outer.var, &dst, &src)) {
            emit(RuleId::kArrayCopy, s.line,
                 concat("manual copy '", src, "' -> '", dst, "'"));
          }
          // Column traversal: inner canonical loop whose variable indexes
          // the FIRST dimension while the outer variable indexes the second.
          const Stmt* innerStmt = outer.body;
          if (innerStmt->kind == StmtKind::kBlock &&
              innerStmt->body.size() == 1) {
            innerStmt = innerStmt->body[0];
          }
          CanonicalFor inner;
          if (matchCanonicalFor(*innerStmt, &inner)) {
            bool columnMajor = false;
            walkStmt(
                *inner.body, [](const Stmt&) {},
                [&](const Expr& e) {
                  if (e.kind != ExprKind::kArrayIndex) return;
                  // e == X[inner.var][outer.var]?
                  if (e.b->kind == ExprKind::kVarRef &&
                      e.b->strValue == outer.var &&
                      e.a->kind == ExprKind::kArrayIndex &&
                      e.a->b->kind == ExprKind::kVarRef &&
                      e.a->b->strValue == inner.var) {
                    columnMajor = true;
                  }
                });
            if (columnMajor) {
              emit(RuleId::kArrayTraversal, s.line,
                   concat("inner loop '", inner.var,
                          "' walks the first dimension (column-major)"));
            }
          }
        }
        break;
      }
      default:
        break;
    }

    jlang::forEachChild(
        s, [&](const Stmt& child) { analyzeStmt(child); },
        [&](const Expr& e) { analyzeExpr(e); });
  }

  void analyzeExpr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kFloatLit:
      case ExprKind::kDoubleLit:
        if (!e.scientific && wantsScientific(e.floatValue)) {
          emit(RuleId::kScientificNotation, e.line,
               "literal " + (e.strValue.empty()
                                 ? std::to_string(e.floatValue)
                                 : std::string(e.strValue)));
        }
        break;
      case ExprKind::kBinary:
        if (e.binOp == BinOp::kMod) {
          std::string detail = "modulus";
          if (isPowerOfTwoLiteral(*e.b)) {
            detail += "; right operand is a power of two, a bitwise AND with " +
                      std::to_string(e.b->intValue - 1) + " is equivalent "
                      "for non-negative operands";
          }
          emit(RuleId::kModulusOperator, e.line, detail);
        }
        if ((e.binOp == BinOp::kAndAnd || e.binOp == BinOp::kOrOr) &&
            isPureExpr(*e.a) && isPureExpr(*e.b) &&
            exprSize(*e.a) > exprSize(*e.b) + 1) {
          emit(RuleId::kShortCircuitOrder, e.line,
               "right operand is simpler; if it is also the more common "
               "case, evaluate it first");
        }
        if (e.binOp == BinOp::kAdd && (isStringExpr(*e.a) || isStringExpr(*e.b))) {
          emit(RuleId::kStringConcat, e.line, "string '+' operator");
        }
        break;
      case ExprKind::kAssign:
        if (e.assignOp == jlang::AssignOp::kAdd && isStringExpr(*e.a)) {
          emit(RuleId::kStringConcat, e.line, "string '+=' operator");
        }
        break;
      case ExprKind::kTernary:
        emit(RuleId::kTernaryOperator, e.line, "?: expression");
        break;
      case ExprKind::kCall:
        if (e.strValue == "compareTo" && e.args.size() == 1 && e.a) {
          emit(RuleId::kStringCompare, e.line, "compareTo call");
        }
        break;
      default:
        break;
    }
    jlang::forEachChild(e, [&](const Expr& child) { analyzeExpr(child); });
  }

  const SuggestionEngine& engine_;
  const std::string& file_;
  const ClassDecl& cls_;
  std::vector<Suggestion>* out_;
  std::unordered_set<std::string_view> stringLocals_;
  std::unordered_set<std::string_view> stringNames_;  // String fields
};

}  // namespace

std::vector<Suggestion> SuggestionEngine::analyzeUnit(
    const CompilationUnit& unit) const {
  static obs::Counter& suggestions =
      obs::Registry::global().counter("jepo.suggestions");
  obs::Span span("jepo.analyze");
  std::vector<Suggestion> out;
  for (const auto& cls : unit.classes) {
    ClassAnalyzer(*this, unit.fileName, cls, &out).run();
  }
  suggestions.add(out.size());
  return out;
}

std::vector<Suggestion> SuggestionEngine::analyzeProgram(
    const Program& program) const {
  obs::Span span("jepo.suggest");
  std::vector<Suggestion> out;
  for (const auto& unit : program.units) {
    auto part = analyzeUnit(unit);
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

std::vector<Suggestion> SuggestionEngine::analyzeSource(
    const std::string& fileName, const std::string& source) const {
  obs::Span span("jepo.suggest");
  const Program program = jlang::Parser::parseProgram(fileName, source);
  return analyzeUnit(program.units.front());
}

}  // namespace jepo::core
