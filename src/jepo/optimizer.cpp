#include "jepo/optimizer.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "jepo/engine.hpp"
#include "jepo/walk.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "support/strings.hpp"

namespace jepo::core {

using jlang::AssignOp;
using jlang::BinOp;
using jlang::ClassDecl;
using jlang::CompilationUnit;
using jlang::Expr;
using jlang::ExprKind;
using jlang::ExprPtr;
using jlang::FieldDecl;
using jlang::MethodDecl;
using jlang::Prim;
using jlang::Program;
using jlang::Stmt;
using jlang::StmtKind;
using jlang::StmtPtr;
using jlang::TypeRef;
using jlang::UnOp;

namespace {

// ------------------------------------------------------------ small utils

bool isIntLit(const Expr& e, std::int64_t v) {
  return e.kind == ExprKind::kIntLit && e.intValue == v;
}


/// What an expression writes: the lvalue of an assignment or ++/--, and
/// whether the write is arithmetic (a compound assignment or ++/--) rather
/// than a plain `=`. `target` is null for any other expression.
struct Write {
  const Expr* target = nullptr;
  bool arithmetic = false;
};

Write writeOf(const Expr& e) {
  if (e.kind == ExprKind::kAssign) return {e.a, e.assignOp != AssignOp::kSet};
  const bool incDec =
      e.kind == ExprKind::kUnary &&
      (e.unOp == UnOp::kPreInc || e.unOp == UnOp::kPreDec ||
       e.unOp == UnOp::kPostInc || e.unOp == UnOp::kPostDec);
  return incDec ? Write{e.a, true} : Write{};
}

/// The expression slots of `st` whose value is discarded: an expression
/// statement's expression and a for loop's updates.
template <class S, class Fn>
void forEachDiscardedSlot(S& st, Fn&& fn) {
  if (st.kind == StmtKind::kExprStmt) fn(st.expr);
  if (st.kind == StmtKind::kFor) {
    for (auto& u : st.update) fn(u);
  }
}

}  // namespace

bool scientificRespell(double value, std::string* out) {
  if (!std::isfinite(value) || value == 0.0) return false;
  // Candidate spellings with increasing mantissa precision; take the first
  // that round-trips to the identical double.
  for (int prec = 0; prec <= 17; ++prec) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*e", prec, value);
    if (std::strtod(buf, nullptr) != value) continue;
    // Canonicalize: "1e+04" -> "1e4", "1.250000e+03" already trimmed by
    // precision search.
    std::string s = buf;
    const auto epos = s.find('e');
    JEPO_ASSERT(epos != std::string::npos);
    std::string mant = s.substr(0, epos);
    std::string exp = s.substr(epos + 1);
    // Trim trailing zeros in the mantissa fraction.
    if (mant.find('.') != std::string::npos) {
      while (mant.back() == '0') mant.pop_back();
      if (mant.back() == '.') mant.pop_back();
    }
    bool negExp = false;
    std::size_t i = 0;
    if (exp[i] == '+') {
      ++i;
    } else if (exp[i] == '-') {
      negExp = true;
      ++i;
    }
    while (i + 1 < exp.size() && exp[i] == '0') ++i;
    *out = mant + "e" + (negExp ? "-" : "") + exp.substr(i);
    return true;
  }
  return false;
}

namespace {

// ---------------------------------------------------------------------------
// Per-program context: which static fields are read-only (never assigned
// outside their initializer) — the gate for the static-caching rewrite.

struct StaticInfo {
  // "Class.field" -> declared type, for read-only static fields.
  std::unordered_map<std::string, TypeRef> readOnlyStatics;
};

StaticInfo collectStaticInfo(const Program& program) {
  StaticInfo info;
  std::unordered_set<std::string> assigned;

  auto noteAssignTarget = [&](const Expr& target, const ClassDecl& cls) {
    if (target.kind == ExprKind::kVarRef) {
      // Could resolve to a static of the enclosing class.
      assigned.insert(concat(cls.name, ".", target.strValue));
    } else if (target.kind == ExprKind::kFieldAccess &&
               target.a->kind == ExprKind::kVarRef) {
      assigned.insert(concat(target.a->strValue, ".", target.strValue));
    }
  };

  for (const auto& unit : program.units) {
    for (const auto& cls : unit.classes) {
      for (const auto& m : cls.methods) {
        if (!m.body) continue;
        walkStmt(*m.body, [](const Stmt&) {}, [&](const Expr& e) {
          if (const Expr* target = writeOf(e).target) {
            noteAssignTarget(*target, cls);
          }
        });
      }
    }
  }
  for (const auto& unit : program.units) {
    for (const auto& cls : unit.classes) {
      for (const auto& f : cls.fields) {
        if (!f.isStatic) continue;
        std::string key = concat(cls.name, ".", f.name);
        if (assigned.count(key) == 0 && f.type.arrayDims == 0 &&
            f.type.prim != Prim::kClass) {
          info.readOnlyStatics.emplace(std::move(key), f.type);
        }
      }
    }
  }
  return info;
}

// ---------------------------------------------------------------------------
// The per-unit rewriter.

class UnitRewriter {
 public:
  /// Rewrites `unit`, a clone in `program`, building new nodes in
  /// program's arena.
  UnitRewriter(const OptimizerOptions& options, const StaticInfo& statics,
               Program& program, CompilationUnit& unit,
               std::vector<ChangeRecord>* changes)
      : options_(options),
        statics_(statics),
        program_(program),
        arena_(program.arena()),
        unit_(unit),
        changes_(changes) {}

  void run() {
    for (auto& cls : unit_.classes) rewriteClass(cls);
  }

 private:
  bool on(RuleId rule) const {
    return options_.enabled[static_cast<int>(rule)];
  }

  ExprPtr makeVarRef(std::string_view name, int line) {
    Expr* e = arena_.make<Expr>(ExprKind::kVarRef);
    e->strValue = name;
    e->line = line;
    return e;
  }

  void record(RuleId rule, int line, std::string description) {
    ChangeRecord c;
    c.rule = rule;
    c.file = unit_.fileName;
    c.className = std::string(currentClass_->name);
    c.line = line;
    c.description = std::move(description);
    changes_->push_back(std::move(c));
  }

  // ---------------------------------------------------------- type edits

  /// byte/short → int is exact unless the variable relies on narrow-width
  /// wraparound via ++/compound assignment. long→int / double→float are
  /// gated by allowLossyNarrowing (paper mode).
  bool narrowType(TypeRef* t, std::string_view name, int line,
                  bool hasArithmeticUpdates, bool isReassigned) {
    if (!on(RuleId::kPrimitiveDataType) || t->arrayDims != 0) return false;
    if ((t->prim == Prim::kByte || t->prim == Prim::kShort) &&
        !hasArithmeticUpdates) {
      record(RuleId::kPrimitiveDataType, line,
             concat(jlang::typeName(*t), " '", name, "' -> int"));
      t->prim = Prim::kInt;
      return true;
    }
    if (t->prim == Prim::kLong) {
      if (options_.allowLossyNarrowing ||
          (!isReassigned && !hasArithmeticUpdates)) {
        record(RuleId::kPrimitiveDataType, line,
               concat("long '", name, "' -> int"));
        t->prim = Prim::kInt;
        return true;
      }
    }
    if (t->prim == Prim::kDouble && options_.allowLossyNarrowing) {
      record(RuleId::kPrimitiveDataType, line,
             concat("double '", name, "' -> float"));
      t->prim = Prim::kFloat;
      return true;
    }
    return false;
  }

  bool improveWrapper(TypeRef* t, std::string_view name, int line) {
    if (!on(RuleId::kWrapperClass) || t->arrayDims != 0 ||
        t->prim != Prim::kClass) {
      return false;
    }
    const std::string_view w = t->className;
    const bool exact = w == "Short" || w == "Byte" || w == "Character";
    const bool lossy = w == "Long" && options_.allowLossyNarrowing;
    if (exact || lossy) {
      record(RuleId::kWrapperClass, line,
             concat(w, " '", name, "' -> Integer"));
      t->className = "Integer";
      return true;
    }
    return false;
  }

  // ------------------------------------------------------------ literals

  void respellLiterals(Expr& e) {
    walkExpr(e, [&](Expr& node) {
      if ((node.kind == ExprKind::kDoubleLit ||
           node.kind == ExprKind::kFloatLit) &&
          !node.scientific && on(RuleId::kScientificNotation)) {
        const double mag = std::fabs(node.floatValue);
        if (mag >= 1000.0 || (mag > 0.0 && mag < 0.001)) {
          std::string sci;
          if (scientificRespell(node.floatValue, &sci)) {
            record(RuleId::kScientificNotation, node.line,
                   concat(node.strValue.empty() ? "literal" : node.strValue,
                          " -> ", sci));
            node.strValue = arena_.copy(sci);
            node.scientific = true;
          }
        }
      }
    });
  }

  // --------------------------------------------------------- expr rewrites

  /// x % P  ->  x & (P-1) for canonical non-negative loop counters.
  void rewriteModulus(Expr& e) {
    if (!on(RuleId::kModulusOperator)) return;
    walkExpr(e, [&](Expr& node) {
      if (node.kind != ExprKind::kBinary || node.binOp != BinOp::kMod) return;
      if (node.a->kind != ExprKind::kVarRef) return;
      if (nonNegativeVars_.count(node.a->strValue) == 0) return;
      if (node.b->kind != ExprKind::kIntLit) return;
      const std::int64_t p = node.b->intValue;
      if (p <= 0 || (p & (p - 1)) != 0) return;
      record(RuleId::kModulusOperator, node.line,
             concat(node.a->strValue, " % ", std::to_string(p), " -> ",
                    node.a->strValue, " & ", std::to_string(p - 1)));
      node.binOp = BinOp::kBitAnd;
      node.b->intValue = p - 1;
    });
  }

  /// Swap pure &&/|| operands when the right side is strictly simpler.
  void reorderShortCircuit(Expr& e) {
    if (!on(RuleId::kShortCircuitOrder)) return;
    walkExpr(e, [&](Expr& node) {
      if (node.kind != ExprKind::kBinary) return;
      if (node.binOp != BinOp::kAndAnd && node.binOp != BinOp::kOrOr) return;
      if (!isPureExpr(*node.a) || !isPureExpr(*node.b)) return;
      if (exprSize(*node.a) <= exprSize(*node.b) + 1) return;
      record(RuleId::kShortCircuitOrder, node.line,
             "swapped operands of short-circuit operator");
      std::swap(node.a, node.b);
    });
  }

  /// a.compareTo(b) == 0  ->  a.equals(b);   != 0  ->  !a.equals(b)
  void rewriteCompareTo(ExprPtr& e) {
    if (e->kind == ExprKind::kBinary &&
        (e->binOp == BinOp::kEq || e->binOp == BinOp::kNe) &&
        e->a->kind == ExprKind::kCall && e->a->strValue == "compareTo" &&
        e->a->args.size() == 1 && isIntLit(*e->b, 0) &&
        on(RuleId::kStringCompare)) {
      record(RuleId::kStringCompare, e->line, "compareTo(..) == 0 -> equals");
      ExprPtr call = e->a;
      call->strValue = "equals";
      if (e->binOp == BinOp::kEq) {
        e = call;
      } else {
        Expr* notExpr = arena_.make<Expr>(ExprKind::kUnary);
        notExpr->unOp = UnOp::kNot;
        notExpr->line = e->line;
        notExpr->a = call;
        e = notExpr;
      }
    }
    jlang::forEachChild(*e, [&](ExprPtr& child) { rewriteCompareTo(child); });
  }

  void rewriteAllExprsIn(ExprPtr& e) {
    if (!e) return;
    rewriteCompareTo(e);
    respellLiterals(*e);
    rewriteModulus(*e);
    reorderShortCircuit(*e);
  }

  // --------------------------------------------------------- stmt rewrites

  /// Rewrites a block's statement list, rebinding it to the new list.
  void rewriteStmtList(jlang::List<StmtPtr>& stmts) {
    std::vector<StmtPtr> out;
    out.reserve(stmts.size());
    for (StmtPtr& sp : stmts) {
      rewriteStmt(sp, &out);
    }
    stmts = arena_.list(out);
  }

  /// Rewrite one statement; appends the result (1..3 statements) to out.
  void rewriteStmt(StmtPtr& sp, std::vector<StmtPtr>* out) {
    Stmt& s = *sp;

    // Track non-negative canonical loop counters for the modulus rewrite.
    CanonicalFor cf;
    const bool canonical = matchCanonicalFor(s, &cf);
    const bool nonNegCounter = canonical && cf.init->kind == ExprKind::kIntLit &&
                               cf.init->intValue >= 0;

    switch (s.kind) {
      case StmtKind::kVarDecl: {
        if (s.init) rewriteAllExprsIn(s.init);
        narrowType(&s.declType, s.declName, s.line,
                   facts_->arithmetic.count(s.declName) != 0,
                   facts_->reassigned.count(s.declName) != 0);
        improveWrapper(&s.declType, s.declName, s.line);
        // int x = c ? a : b;  ->  int x; if (c) x = a; else x = b;
        if (s.init && s.init->kind == ExprKind::kTernary &&
            on(RuleId::kTernaryOperator)) {
          record(RuleId::kTernaryOperator, s.line,
                 concat("ternary initializer of '", s.declName,
                        "' -> if-then-else"));
          ExprPtr ternary = std::exchange(s.init, nullptr);
          out->push_back(sp);
          out->push_back(makeIfAssign(ternary, s.declName, s.line));
          return;
        }
        break;
      }

      case StmtKind::kExprStmt: {
        rewriteAllExprsIn(s.expr);
        // x = c ? a : b;  ->  if (c) x = a; else x = b;
        if (s.expr->kind == ExprKind::kAssign &&
            s.expr->assignOp == AssignOp::kSet &&
            s.expr->a->kind == ExprKind::kVarRef &&
            s.expr->b->kind == ExprKind::kTernary &&
            on(RuleId::kTernaryOperator)) {
          record(RuleId::kTernaryOperator, s.line,
                 concat("ternary assignment to '", s.expr->a->strValue,
                        "' -> if-then-else"));
          out->push_back(makeIfAssign(s.expr->b, s.expr->a->strValue, s.line));
          return;
        }
        break;
      }

      case StmtKind::kReturn: {
        if (s.expr) rewriteAllExprsIn(s.expr);
        // return c ? a : b;  ->  if (c) return a; else return b;
        if (s.expr && s.expr->kind == ExprKind::kTernary &&
            on(RuleId::kTernaryOperator)) {
          record(RuleId::kTernaryOperator, s.line,
                 "ternary return -> if-then-else");
          const Expr& t = *s.expr;
          Stmt* ifStmt = arena_.make<Stmt>(StmtKind::kIf);
          ifStmt->line = s.line;
          ifStmt->cond = t.a;
          Stmt* thenRet = arena_.make<Stmt>(StmtKind::kReturn);
          thenRet->line = s.line;
          thenRet->expr = t.b;
          Stmt* elseRet = arena_.make<Stmt>(StmtKind::kReturn);
          elseRet->line = s.line;
          elseRet->expr = t.c;
          ifStmt->thenStmt = thenRet;
          ifStmt->elseStmt = elseRet;
          out->push_back(ifStmt);
          return;
        }
        break;
      }

      case StmtKind::kFor: {
        for (auto& init : s.body) {
          if (init->init) rewriteAllExprsIn(init->init);
          if (init->expr) rewriteAllExprsIn(init->expr);
        }
        if (s.cond) rewriteAllExprsIn(s.cond);
        for (auto& u : s.update) rewriteAllExprsIn(u);

        // System.arraycopy rewrite for manual copy loops.
        if (canonical && on(RuleId::kArrayCopy)) {
          std::string_view dst;
          std::string_view src;
          if (matchManualCopyBody(*cf.body, cf.var, &dst, &src) &&
              isPureExpr(*cf.init) && isPureExpr(*cf.bound)) {
            record(RuleId::kArrayCopy, s.line,
                   concat("copy loop -> System.arraycopy(", src, ", ", dst,
                          ")"));
            out->push_back(makeArraycopy(cf, src, dst, s.line));
            return;
          }
        }

        // Loop interchange for column-major nests.
        if (canonical && on(RuleId::kArrayTraversal) &&
            tryLoopInterchange(sp, cf, out)) {
          return;
        }

        // StringBuilder extraction for concat-in-loop.
        if (on(RuleId::kStringConcat) &&
            tryBuilderExtraction(sp, out)) {
          return;
        }
        break;
      }

      case StmtKind::kWhile: {
        if (s.cond) rewriteAllExprsIn(s.cond);
        if (on(RuleId::kStringConcat) && tryBuilderExtraction(sp, out)) {
          return;
        }
        break;
      }

      default:
        if (s.expr) rewriteAllExprsIn(s.expr);
        if (s.cond) rewriteAllExprsIn(s.cond);
        break;
    }

    // Recurse into child statements.
    if (nonNegCounter) nonNegativeVars_.insert(cf.var);
    if (!s.body.empty() && s.kind == StmtKind::kBlock) {
      rewriteStmtList(s.body);
    }
    if (s.thenStmt) rewriteChild(s.thenStmt);
    if (s.elseStmt) rewriteChild(s.elseStmt);
    if (s.tryBlock) {
      ++guardedDepth_;
      rewriteChild(s.tryBlock);
      --guardedDepth_;
    }
    if (s.finallyBlock) ++guardedDepth_;
    for (auto& c : s.catches) rewriteChild(c.body);
    if (s.finallyBlock) {
      --guardedDepth_;
      rewriteChild(s.finallyBlock);
    }
    for (auto& c : s.cases) rewriteStmtList(c.body);
    if (nonNegCounter) nonNegativeVars_.erase(cf.var);

    out->push_back(sp);
  }

  /// Rewrite a single child statement slot (wraps multi-statement results
  /// in a block).
  void rewriteChild(StmtPtr& slot) {
    std::vector<StmtPtr> result;
    rewriteStmt(slot, &result);
    JEPO_ASSERT(!result.empty());
    if (result.size() == 1) {
      slot = result[0];
    } else {
      Stmt* block = arena_.make<Stmt>(StmtKind::kBlock);
      block->line = result[0]->line;
      block->body = arena_.list(result);
      slot = block;
    }
  }

  /// name = value;
  StmtPtr makeAssignStmt(std::string_view name, ExprPtr value, int line) {
    Expr* assign = arena_.make<Expr>(ExprKind::kAssign);
    assign->line = line;
    assign->assignOp = AssignOp::kSet;
    assign->a = makeVarRef(name, line);
    assign->b = value;
    Stmt* stmt = arena_.make<Stmt>(StmtKind::kExprStmt);
    stmt->line = line;
    stmt->expr = assign;
    return stmt;
  }

  /// if (cond) name = then; else name = otherwise;
  StmtPtr makeIfAssign(const Expr* ternary, std::string_view name,
                       int line) {
    JEPO_ASSERT(ternary->kind == ExprKind::kTernary);
    Stmt* ifStmt = arena_.make<Stmt>(StmtKind::kIf);
    ifStmt->line = line;
    ifStmt->cond = ternary->a;
    ifStmt->thenStmt = makeAssignStmt(name, ternary->b, line);
    ifStmt->elseStmt = makeAssignStmt(name, ternary->c, line);
    return ifStmt;
  }

  /// System.arraycopy(src, init, dst, init, bound - init);
  StmtPtr makeArraycopy(const CanonicalFor& cf, std::string_view src,
                        std::string_view dst, int line) {
    Expr* call = arena_.make<Expr>(ExprKind::kCall);
    call->line = line;
    call->strValue = "arraycopy";
    call->a = makeVarRef("System", line);
    const ExprPtr srcRef = makeVarRef(src, line);
    const ExprPtr srcPos = cloneExpr(*cf.init, program_);
    const ExprPtr dstRef = makeVarRef(dst, line);
    const ExprPtr dstPos = cloneExpr(*cf.init, program_);
    ExprPtr length;
    if (isIntLit(*cf.init, 0)) {
      length = cloneExpr(*cf.bound, program_);
    } else {
      Expr* len = arena_.make<Expr>(ExprKind::kBinary);
      len->line = line;
      len->binOp = BinOp::kSub;
      len->a = cloneExpr(*cf.bound, program_);
      len->b = cloneExpr(*cf.init, program_);
      length = len;
    }
    call->args = arena_.list({srcRef, srcPos, dstRef, dstPos, length});
    Stmt* stmt = arena_.make<Stmt>(StmtKind::kExprStmt);
    stmt->line = line;
    stmt->expr = call;
    return stmt;
  }


  // ------------------------------------------------------ loop interchange

  /// Interchange `for (o) for (i) acc += m[i][o];`-shaped nests so the
  /// first dimension varies slowest. Legal when the body is a single
  /// accumulation into a scalar (`acc += pure`) or a write `m[i][o] = pure`
  /// with a RHS not reading the matrix — both are iteration-order
  /// independent (integer accumulation is exactly associative; FP
  /// accumulation is gated behind allowLossyNarrowing).
  bool tryLoopInterchange(StmtPtr sp, const CanonicalFor& outer,
                          std::vector<StmtPtr>* out) {
    Stmt& s = *sp;
    // Inner statement (possibly inside a single-statement block).
    Stmt* innerHolder = s.thenStmt;
    if (innerHolder->kind == StmtKind::kBlock) {
      if (innerHolder->body.size() != 1) return false;
      innerHolder = innerHolder->body[0];
    }
    CanonicalFor inner;
    if (!matchCanonicalFor(*innerHolder, &inner)) return false;
    // Bounds must not depend on either loop variable.
    if (mentionsVar(*outer.bound, inner.var) ||
        mentionsVar(*inner.bound, outer.var) ||
        mentionsVar(*inner.bound, inner.var) ||
        mentionsVar(*outer.bound, outer.var)) {
      return false;
    }
    if (!isIntLit(*outer.init, 0) || !isIntLit(*inner.init, 0)) return false;

    // Body must be a single expression statement.
    const Stmt* body = inner.body;
    if (body->kind == StmtKind::kBlock) {
      if (body->body.size() != 1) return false;
      body = body->body[0];
    }
    if (body->kind != StmtKind::kExprStmt) return false;
    const Expr& e = *body->expr;

    // Every 2-D access must be m[inner][outer] (column-major evidence).
    bool sawColumnMajor = false;
    bool sawOther2d = false;
    walkExpr(e, [&](const Expr& node) {
      if (node.kind != ExprKind::kArrayIndex) return;
      if (node.a->kind != ExprKind::kArrayIndex) return;
      const bool colMajor = node.b->kind == ExprKind::kVarRef &&
                            node.b->strValue == outer.var &&
                            node.a->b->kind == ExprKind::kVarRef &&
                            node.a->b->strValue == inner.var;
      (colMajor ? sawColumnMajor : sawOther2d) = true;
    });
    if (!sawColumnMajor || sawOther2d) return false;

    // Shape A: acc += <expr>, acc a plain variable not mentioned in expr.
    bool legal = false;
    if (e.kind == ExprKind::kAssign && e.assignOp == AssignOp::kAdd &&
        e.a->kind == ExprKind::kVarRef && !mentionsVar(*e.b, e.a->strValue)) {
      // Integer accumulation reorders exactly; FP reassociation is lossy.
      legal = true;
      if (!options_.allowLossyNarrowing && !isPureExpr(*e.b)) legal = false;
    }
    // Shape B: m[i][o] = <pure rhs> with rhs not reading the matrix.
    if (e.kind == ExprKind::kAssign && e.assignOp == AssignOp::kSet &&
        e.a->kind == ExprKind::kArrayIndex &&
        e.a->a->kind == ExprKind::kArrayIndex &&
        e.a->a->a->kind == ExprKind::kVarRef) {
      const std::string_view matrix = e.a->a->a->strValue;
      if (isPureExpr(*e.b) && !mentionsVar(*e.b, matrix)) legal = true;
    }
    if (!legal) return false;

    record(RuleId::kArrayTraversal, s.line,
           concat("interchanged loops '", outer.var, "'/'", inner.var,
                  "' to row-major order"));

    // Swap the two loop headers (inits, conds, updates); keep the body.
    Stmt& innerFor = *innerHolder;
    std::swap(s.body, innerFor.body);
    std::swap(s.cond, innerFor.cond);
    std::swap(s.update, innerFor.update);
    out->push_back(sp);
    return true;
  }

  // --------------------------------------------------- builder extraction

  /// `v += X` or `v = v + X`, v a String local that X does not mention:
  /// returns v, else an empty view.
  std::string_view selfConcatTarget(const Expr& e) const {
    if (e.kind != ExprKind::kAssign || e.a->kind != ExprKind::kVarRef ||
        facts_->strings.count(e.a->strValue) == 0) {
      return {};
    }
    const std::string_view v = e.a->strValue;
    const bool selfConcat =
        (e.assignOp == AssignOp::kAdd && !mentionsVar(*e.b, v)) ||
        (e.assignOp == AssignOp::kSet && e.b->kind == ExprKind::kBinary &&
         e.b->binOp == BinOp::kAdd && e.b->a->kind == ExprKind::kVarRef &&
         e.b->a->strValue == v && !mentionsVar(*e.b->b, v));
    return selfConcat ? v : std::string_view{};
  }

  /// s = s + X inside a loop -> StringBuilder __sbN before the loop,
  /// append(X) inside, s = __sbN.toString() after; for every qualifying s
  /// of the loop, in source order. The rewrite replaces only self-concats
  /// whose value is discarded (see forEachDiscardedSlot), so s qualifies
  /// when every reference to it in the loop sits in one of those (`s += X`
  /// holds one reference, `s = s + X` two) and it is declared before the
  /// loop — a declaration inside would leave `new StringBuilder(s)`
  /// dangling. A guarded loop (see guardedDepth_) stays as it is.
  bool tryBuilderExtraction(StmtPtr loopStmt, std::vector<StmtPtr>* out) {
    if (guardedDepth_ > 0) return false;
    std::vector<std::string_view> candidates;  // source order
    std::unordered_map<std::string_view, int> covered;
    std::unordered_map<std::string_view, int> refs;
    std::unordered_set<std::string_view> declaredInside;
    walkStmt(
        *loopStmt,
        [&](const Stmt& st) {
          if (st.kind == StmtKind::kVarDecl) declaredInside.insert(st.declName);
          forEachDiscardedSlot(st, [&](const Expr* e) {
            const std::string_view v = selfConcatTarget(*e);
            if (v.empty()) return;
            int& n = covered[v];
            if (n == 0) candidates.push_back(v);
            n += e->assignOp == AssignOp::kAdd ? 1 : 2;
          });
        },
        [&](const Expr& e) {
          if (e.kind == ExprKind::kVarRef) ++refs[e.strValue];
        });

    const int line = loopStmt->line;
    std::unordered_map<std::string_view, std::string_view> builders;
    std::vector<StmtPtr> finals;
    for (const std::string_view target : candidates) {
      if (refs[target] != covered[target] ||
          declaredInside.count(target) != 0) {
        continue;
      }
      const std::string_view sbName = freshBuilderName();
      builders.emplace(target, sbName);
      record(RuleId::kStringConcat, line,
             concat("hoisted '", target, "' concat loop into StringBuilder ",
                    sbName));

      // StringBuilder __sbN = new StringBuilder(target);
      Stmt* decl = arena_.make<Stmt>(StmtKind::kVarDecl);
      decl->line = line;
      decl->declType = TypeRef::ofClass("StringBuilder");
      decl->declName = sbName;
      Expr* ctor = arena_.make<Expr>(ExprKind::kNew);
      ctor->line = line;
      ctor->strValue = "StringBuilder";
      ctor->args = arena_.list({makeVarRef(target, line)});
      decl->init = ctor;
      out->push_back(decl);

      // target = __sbN.toString();
      Expr* toStr = arena_.make<Expr>(ExprKind::kCall);
      toStr->line = line;
      toStr->strValue = "toString";
      toStr->a = makeVarRef(sbName, line);
      finals.push_back(makeAssignStmt(target, toStr, line));
    }
    if (builders.empty()) return false;

    // Replace each self-concat with __sbN.append(X).
    walkStmt(
        *loopStmt,
        [&](Stmt& st) {
          forEachDiscardedSlot(st, [&](ExprPtr& slot) {
            const auto it = builders.find(selfConcatTarget(*slot));
            if (it == builders.end()) return;
            Expr* call = arena_.make<Expr>(ExprKind::kCall);
            call->line = slot->line;
            call->strValue = "append";
            call->a = makeVarRef(it->second, slot->line);
            call->args = arena_.list(
                {slot->assignOp == AssignOp::kAdd ? slot->b : slot->b->b});
            slot = call;
          });
        },
        [](const Expr&) {});

    out->push_back(loopStmt);
    out->insert(out->end(), finals.begin(), finals.end());
    return true;
  }

  /// True when the current method declares `name` (see MethodFacts) or the
  /// class has a field of that name: a fresh local must shadow neither.
  bool nameTaken(std::string_view name) const {
    if (facts_->declared.count(name) != 0) return true;
    for (const auto& f : currentClass_->fields) {
      if (f.name == name) return true;
    }
    return false;
  }

  std::string_view freshBuilderName() {
    std::string name;
    do {
      name = "__sb" + std::to_string(builderCounter_++);
    } while (nameTaken(name));
    const std::string_view fresh = arena_.copy(name);
    facts_->declared.insert(fresh);
    return fresh;
  }

  // ---------------------------------------------------- static caching

  /// Hoist reads of read-only static fields into a method-local copy when a
  /// method reads them repeatedly (JEPO's static-keyword remedy).
  void cacheStatics(MethodDecl& m) {
    if (!on(RuleId::kStaticKeyword) || !m.body) return;
    // Count unqualified reads of each read-only static of this class.
    std::unordered_map<std::string, int> reads;  // field -> count
    walkStmt(
        *m.body, [](const Stmt&) {},
        [&](const Expr& e) {
          if (e.kind == ExprKind::kVarRef) {
            const std::string key =
                concat(currentClass_->name, ".", e.strValue);
            if (statics_.readOnlyStatics.count(key) != 0) {
              ++reads[std::string(e.strValue)];
            }
          }
        });
    std::vector<StmtPtr> prologue;
    for (auto& [field, count] : reads) {
      if (count < 2) continue;
      // A parameter, local or catch variable of the same name shadows the
      // static somewhere in the method.
      const std::string cached = "__cached_" + field;
      if (facts_->declared.count(field) != 0 || nameTaken(cached)) continue;

      const std::string_view localName = arena_.copy(cached);
      const TypeRef type =
          statics_.readOnlyStatics.at(concat(currentClass_->name, ".", field));
      record(RuleId::kStaticKeyword, m.line,
             concat("cached static '", field, "' in local (",
                    std::to_string(count), " reads) in ", m.name));

      Stmt* decl = arena_.make<Stmt>(StmtKind::kVarDecl);
      decl->line = m.line;
      decl->declType = type;
      decl->declName = localName;
      decl->init = makeVarRef(arena_.copy(field), m.line);
      prologue.push_back(decl);

      // Replace reads.
      walkStmt(*m.body, [](const Stmt&) {}, [&](Expr& e) {
        if (e.kind == ExprKind::kVarRef && e.strValue == field) {
          e.strValue = localName;
        }
      });
    }
    if (!prologue.empty()) {
      prologue.insert(prologue.end(), m.body->body.begin(),
                      m.body->body.end());
      m.body->body = arena_.list(prologue);
    }
  }

  // ------------------------------------------------------------- drivers

  /// What a method does with its names, gathered before any rewrite: the
  /// rewriter moves statements out of the body while it runs.
  struct MethodFacts {
    std::unordered_set<std::string_view> reassigned;  // written at all
    std::unordered_set<std::string_view> arithmetic;  // +=, ++ and the like
    /// Parameters, locals and catch variables (and the builders the
    /// rewrite adds): the names a fresh local must avoid and a static
    /// must not share to be cached.
    std::unordered_set<std::string_view> declared;
    /// String parameters and locals: the builder hoist's candidates. A
    /// String field is none, since a call in the loop may read it.
    std::unordered_set<std::string_view> strings;
  };

  static MethodFacts methodFacts(const MethodDecl& m) {
    MethodFacts facts;
    for (const auto& p : m.params) {
      facts.declared.insert(p.name);
      if (p.type.isClass("String")) facts.strings.insert(p.name);
    }
    if (!m.body) return facts;
    walkStmt(
        *m.body,
        [&](const Stmt& st) {
          if (st.kind == StmtKind::kVarDecl) {
            facts.declared.insert(st.declName);
            if (st.declType.isClass("String")) {
              facts.strings.insert(st.declName);
            }
          }
          for (const auto& c : st.catches) facts.declared.insert(c.varName);
        },
        [&](const Expr& e) {
          const Write w = writeOf(e);
          if (w.target == nullptr || w.target->kind != ExprKind::kVarRef) {
            return;
          }
          facts.reassigned.insert(w.target->strValue);
          if (w.arithmetic) facts.arithmetic.insert(w.target->strValue);
        });
    return facts;
  }

  void rewriteClass(ClassDecl& cls) {
    currentClass_ = &cls;
    std::vector<MethodFacts> facts;
    facts.reserve(cls.methods.size());
    // Field narrowing is gated on the writes anywhere in the class (fields
    // escape method scope): the union of the methods' facts.
    MethodFacts classWrites;
    for (const auto& m : cls.methods) {
      const MethodFacts& f = facts.emplace_back(methodFacts(m));
      classWrites.reassigned.insert(f.reassigned.begin(), f.reassigned.end());
      classWrites.arithmetic.insert(f.arithmetic.begin(), f.arithmetic.end());
    }
    for (auto& f : cls.fields) {
      narrowType(&f.type, f.name, f.line,
                 classWrites.arithmetic.count(f.name) != 0,
                 classWrites.reassigned.count(f.name) != 0);
      improveWrapper(&f.type, f.name, f.line);
      if (f.init) rewriteAllExprsIn(f.init);
    }
    for (std::size_t i = 0; i < cls.methods.size(); ++i) {
      MethodDecl& m = cls.methods[i];
      facts_ = &facts[i];
      for (auto& p : m.params) {
        narrowType(&p.type, p.name, m.line,
                   facts_->arithmetic.count(p.name) != 0,
                   facts_->reassigned.count(p.name) != 0);
      }
      if (!m.body) continue;
      rewriteStmtList(m.body->body);
      cacheStatics(m);
    }
    facts_ = nullptr;
  }

  const OptimizerOptions& options_;
  const StaticInfo& statics_;
  Program& program_;
  jlang::Arena& arena_;
  CompilationUnit& unit_;
  std::vector<ChangeRecord>* changes_;
  const ClassDecl* currentClass_ = nullptr;
  MethodFacts* facts_ = nullptr;  // the method being rewritten
  // Names viewing the rewritten unit's arena.
  std::unordered_set<std::string_view> nonNegativeVars_;
  int builderCounter_ = 0;
  /// Try blocks, and catch bodies of a try with a finally, around the
  /// statement being rewritten: an exception leaving a loop there reaches
  /// code of this method that would read s before `s = __sbN.toString()`
  /// ran, so no concat loop inside is hoisted.
  int guardedDepth_ = 0;
};


}  // namespace

Optimizer::Optimizer(OptimizerOptions options) : options_(std::move(options)) {}

OptimizeResult Optimizer::optimize(const Program& program) const {
  static obs::Counter& changes =
      obs::Registry::global().counter("jepo.changes");
  obs::Span span("jepo.optimize");
  OptimizeResult result;
  const StaticInfo statics = collectStaticInfo(program);
  std::size_t sourceBytes = 0;
  for (const auto& unit : program.units) sourceBytes += unit.sourceBytes;
  result.program.arena().reserve(sourceBytes *
                                 jlang::kArenaBytesPerSourceByte);
  for (const auto& unit : program.units) {
    CompilationUnit copy = jlang::cloneUnit(unit, result.program);
    UnitRewriter(options_, statics, result.program, copy, &result.changes)
        .run();
    result.program.units.push_back(std::move(copy));
  }
  changes.add(result.changes.size());
  return result;
}

}  // namespace jepo::core
