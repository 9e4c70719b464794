#include "jepo/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <tuple>
#include <unordered_map>
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

struct ReadOnlyStatic {
  std::string_view className;  // views into the analysed Program
  std::string_view field;
  TypeRef type;
  std::size_t order = 0;  // declaration order: the first of a name wins
  bool assigned = false;
};

bool operator<(const ReadOnlyStatic& x, const ReadOnlyStatic& y) {
  return std::tie(x.className, x.field, x.order) <
         std::tie(y.className, y.field, y.order);
}

/// The entry of sorted `statics` for (cls, field), or null.
template <typename Statics>
auto* findStatic(Statics& statics, std::string_view cls,
                 std::string_view field) {
  const auto it = std::lower_bound(
      statics.begin(), statics.end(), std::tie(cls, field),
      [](const ReadOnlyStatic& s, const auto& key) {
        return std::tie(s.className, s.field) < key;
      });
  return it != statics.end() && it->className == cls && it->field == field
             ? &*it
             : nullptr;
}

struct StaticInfo {
  /// Read-only static fields of primitive type, sorted by (class, field),
  /// one per name.
  std::vector<ReadOnlyStatic> readOnly;

  const ReadOnlyStatic* find(std::string_view cls,
                             std::string_view field) const {
    return findStatic(readOnly, cls, field);
  }
};

StaticInfo collectStaticInfo(const Program& program) {
  StaticInfo info;
  std::vector<ReadOnlyStatic>& statics = info.readOnly;
  for (const auto& unit : program.units) {
    for (const auto& cls : unit.classes) {
      for (const auto& f : cls.fields) {
        if (f.isStatic && f.type.arrayDims == 0 &&
            f.type.prim != Prim::kClass) {
          statics.push_back({cls.name, f.name, f.type, statics.size()});
        }
      }
    }
  }
  if (statics.empty()) return info;
  std::sort(statics.begin(), statics.end());
  statics.erase(std::unique(statics.begin(), statics.end(),
                            [](const ReadOnlyStatic& x,
                               const ReadOnlyStatic& y) {
                              return x.className == y.className &&
                                     x.field == y.field;
                            }),
                statics.end());

  auto noteAssigned = [&](std::string_view cls, std::string_view field) {
    if (ReadOnlyStatic* s = findStatic(statics, cls, field)) s->assigned = true;
  };
  for (const auto& unit : program.units) {
    for (const auto& cls : unit.classes) {
      for (const auto& m : cls.methods) {
        if (!m.body) continue;
        walkStmt(*m.body, [](const Stmt&) {}, [&](const Expr& e) {
          const Expr* target = writeOf(e).target;
          if (target == nullptr) return;
          if (target->kind == ExprKind::kVarRef) {
            // Could resolve to a static of the enclosing class.
            noteAssigned(cls.name, target->strValue);
          } else if (target->kind == ExprKind::kFieldAccess &&
                     target->a->kind == ExprKind::kVarRef) {
            noteAssigned(target->a->strValue, target->strValue);
          }
        });
      }
    }
  }
  std::erase_if(statics, [](const ReadOnlyStatic& s) { return s.assigned; });
  return info;
}

// ---------------------------------------------------------------------------
// The per-unit rewriter.

/// Names with the facts that hold for them, kept as sorted runs of
/// (name, facts) entries in one vector: a flat stand-in for a hash set per
/// fact and method. Names are noted in any order and a run is closed
/// over them; has() binary-searches one run.
class NameFacts {
 public:
  enum Fact : std::uint8_t {
    kReassigned = 1,  // written at all
    kArithmetic = 2,  // +=, ++ and the like
    /// Parameters, locals and catch variables: the names a fresh local
    /// must avoid and a static must not share to be cached.
    kDeclared = 4,
    /// String parameters and locals: the builder hoist's candidates. A
    /// String field is none, since a call in the loop may read it.
    kString = 8,
  };

  void clear() {
    entries_.clear();
    runs_.assign(1, 0);
  }

  void note(std::string_view name, int facts) {
    entries_.push_back({name, static_cast<std::uint8_t>(facts)});
  }

  /// Turn the names noted since the last close into the next run: sorted,
  /// one entry per name holding all of its facts.
  void close() {
    Entry* const first = entries_.data() + runs_.back();
    Entry* const last = entries_.data() + entries_.size();
    std::sort(first, last, [](const Entry& x, const Entry& y) {
      return x.name < y.name;
    });
    Entry* out = first;
    for (const Entry* e = first; e != last; ++e) {
      if (out != first && out[-1].name == e->name) {
        out[-1].facts |= e->facts;
      } else {
        *out++ = *e;
      }
    }
    entries_.resize(static_cast<std::size_t>(out - entries_.data()));
    runs_.push_back(entries_.size());
  }

  /// Close a run holding every name of the runs so far; returns its index.
  std::size_t unionOfRuns() {
    const std::size_t end = entries_.size();
    entries_.reserve(2 * end);
    for (std::size_t i = 0; i < end; ++i) entries_.push_back(entries_[i]);
    close();
    return runs_.size() - 2;
  }

  bool has(std::size_t run, std::string_view name, Fact fact) const {
    const Entry* const first = entries_.data() + runs_[run];
    const Entry* const last = entries_.data() + runs_[run + 1];
    const Entry* const it = std::lower_bound(
        first, last, name,
        [](const Entry& e, std::string_view n) { return e.name < n; });
    return it != last && it->name == name && (it->facts & fact) != 0;
  }

 private:
  struct Entry {
    std::string_view name;
    std::uint8_t facts;
  };
  std::vector<Entry> entries_;
  // Run r is entries_[runs_[r], runs_[r + 1]).
  std::vector<std::size_t> runs_{0};
};

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
      if (!nonNegative(node.a->strValue)) return;
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

  bool nonNegative(std::string_view var) const {
    return std::find(nonNegativeVars_.begin(), nonNegativeVars_.end(), var) !=
           nonNegativeVars_.end();
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
    const std::size_t mark = rewritten_.size();
    for (StmtPtr& sp : stmts) {
      rewriteStmt(sp, &rewritten_);
    }
    stmts = takeRewritten(mark);
  }

  /// The statements rewritten_ holds above `mark`, moved into the arena.
  jlang::List<StmtPtr> takeRewritten(std::size_t mark) {
    const jlang::List<StmtPtr> list = arena_.list(std::span<const StmtPtr>(
        rewritten_.data() + mark, rewritten_.size() - mark));
    rewritten_.resize(mark);
    return list;
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
                   fact(s.declName, NameFacts::kArithmetic),
                   fact(s.declName, NameFacts::kReassigned));
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
    if (nonNegCounter && !nonNegative(cf.var)) {
      nonNegativeVars_.push_back(cf.var);
    }
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
    if (nonNegCounter) std::erase(nonNegativeVars_, cf.var);

    out->push_back(sp);
  }

  /// Rewrite a single child statement slot (wraps multi-statement results
  /// in a block).
  void rewriteChild(StmtPtr& slot) {
    const std::size_t mark = rewritten_.size();
    rewriteStmt(slot, &rewritten_);
    JEPO_ASSERT(rewritten_.size() > mark);
    if (rewritten_.size() == mark + 1) {
      slot = rewritten_.back();
      rewritten_.pop_back();
    } else {
      Stmt* block = arena_.make<Stmt>(StmtKind::kBlock);
      block->line = rewritten_[mark]->line;
      block->body = takeRewritten(mark);
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
        !fact(e.a->strValue, NameFacts::kString)) {
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
    concats_.clear();
    walkStmt(
        *loopStmt,
        [&](const Stmt& st) {
          forEachDiscardedSlot(st, [&](const Expr* e) {
            const std::string_view v = selfConcatTarget(*e);
            if (v.empty()) return;
            Concat* c = findConcat(v);
            if (c == nullptr) {
              c = &concats_.emplace_back();
              c->target = v;
            }
            c->covered += e->assignOp == AssignOp::kAdd ? 1 : 2;
          });
        },
        [](const Expr&) {});
    if (concats_.empty()) return false;
    walkStmt(
        *loopStmt,
        [&](const Stmt& st) {
          if (st.kind != StmtKind::kVarDecl) return;
          if (Concat* c = findConcat(st.declName)) c->declaredInside = true;
        },
        [&](const Expr& e) {
          if (e.kind != ExprKind::kVarRef) return;
          if (Concat* c = findConcat(e.strValue)) ++c->refs;
        });

    const int line = loopStmt->line;
    bool hoisted = false;
    for (Concat& c : concats_) {
      if (c.refs != c.covered || c.declaredInside) continue;
      c.builder = freshBuilderName();
      hoisted = true;
      record(RuleId::kStringConcat, line,
             concat("hoisted '", c.target,
                    "' concat loop into StringBuilder ", c.builder));

      // StringBuilder __sbN = new StringBuilder(target);
      Stmt* decl = arena_.make<Stmt>(StmtKind::kVarDecl);
      decl->line = line;
      decl->declType = TypeRef::ofClass("StringBuilder");
      decl->declName = c.builder;
      Expr* ctor = arena_.make<Expr>(ExprKind::kNew);
      ctor->line = line;
      ctor->strValue = "StringBuilder";
      ctor->args = arena_.list({makeVarRef(c.target, line)});
      decl->init = ctor;
      out->push_back(decl);
    }
    if (!hoisted) return false;

    // Replace each self-concat with __sbN.append(X).
    walkStmt(
        *loopStmt,
        [&](Stmt& st) {
          forEachDiscardedSlot(st, [&](ExprPtr& slot) {
            const Concat* c = findConcat(selfConcatTarget(*slot));
            if (c == nullptr || c->builder.empty()) return;
            Expr* call = arena_.make<Expr>(ExprKind::kCall);
            call->line = slot->line;
            call->strValue = "append";
            call->a = makeVarRef(c->builder, slot->line);
            call->args = arena_.list(
                {slot->assignOp == AssignOp::kAdd ? slot->b : slot->b->b});
            slot = call;
          });
        },
        [](const Expr&) {});

    out->push_back(loopStmt);
    // target = __sbN.toString();
    for (const Concat& c : concats_) {
      if (c.builder.empty()) continue;
      Expr* toStr = arena_.make<Expr>(ExprKind::kCall);
      toStr->line = line;
      toStr->strValue = "toString";
      toStr->a = makeVarRef(c.builder, line);
      out->push_back(makeAssignStmt(c.target, toStr, line));
    }
    return true;
  }

  /// A self-concat target of the loop tryBuilderExtraction looks at.
  struct Concat {
    std::string_view target;
    int covered = 0;  // references inside its replaceable self-concats
    int refs = 0;     // references anywhere in the loop
    bool declaredInside = false;
    std::string_view builder;  // the hoisted StringBuilder, if any
  };

  Concat* findConcat(std::string_view target) {
    for (Concat& c : concats_) {
      if (c.target == target) return &c;
    }
    return nullptr;
  }

  /// True when the current method declares `name` (see MethodFacts) or the
  /// class has a field of that name: a fresh local must shadow neither.
  bool nameTaken(std::string_view name) const {
    if (fact(name, NameFacts::kDeclared)) return true;
    for (const auto& f : currentClass_->fields) {
      if (f.name == name) return true;
    }
    return false;
  }

  /// A builder name no later call returns again (the counter only
  /// grows), so it needs no entry among the declared names.
  std::string_view freshBuilderName() {
    std::string name;
    do {
      name = "__sb" + std::to_string(builderCounter_++);
    } while (nameTaken(name));
    return arena_.copy(name);
  }

  // ---------------------------------------------------- static caching

  /// Hoist reads of read-only static fields into a method-local copy when a
  /// method reads them repeatedly (JEPO's static-keyword remedy).
  void cacheStatics(MethodDecl& m) {
    if (!on(RuleId::kStaticKeyword) || !m.body) return;
    // Count unqualified reads of each read-only static of this class. The
    // prologue and the change records follow this map's iteration order,
    // which std::hash<std::string_view> keeps equal to that of the
    // std::string keys it had before.
    std::unordered_map<std::string_view, int> reads;  // field -> count
    walkStmt(
        *m.body, [](const Stmt&) {},
        [&](const Expr& e) {
          if (e.kind == ExprKind::kVarRef &&
              statics_.find(currentClass_->name, e.strValue) != nullptr) {
            ++reads[e.strValue];
          }
        });
    std::vector<StmtPtr> prologue;
    for (const auto& [field, count] : reads) {
      if (count < 2) continue;
      // A parameter, local or catch variable of the same name shadows the
      // static somewhere in the method.
      if (fact(field, NameFacts::kDeclared)) continue;
      const std::string cached = concat("__cached_", field);
      if (nameTaken(cached)) continue;

      const std::string_view localName = arena_.copy(cached);
      const TypeRef type = statics_.find(currentClass_->name, field)->type;
      record(RuleId::kStaticKeyword, m.line,
             concat("cached static '", field, "' in local (",
                    std::to_string(count), " reads) in ", m.name));

      Stmt* decl = arena_.make<Stmt>(StmtKind::kVarDecl);
      decl->line = m.line;
      decl->declType = type;
      decl->declName = localName;
      decl->init = makeVarRef(field, m.line);  // the clone's arena
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

  /// What each method of the class does with its names (see NameFacts),
  /// gathered before any rewrite: the rewriter moves statements out of the
  /// body while it runs.
  void noteMethodFacts(const MethodDecl& m) {
    for (const auto& p : m.params) {
      facts_.note(p.name, NameFacts::kDeclared |
                              (p.type.isClass("String") ? NameFacts::kString
                                                        : 0));
    }
    if (!m.body) return;
    walkStmt(
        *m.body,
        [&](const Stmt& st) {
          if (st.kind == StmtKind::kVarDecl) {
            facts_.note(st.declName,
                        NameFacts::kDeclared |
                            (st.declType.isClass("String") ? NameFacts::kString
                                                           : 0));
          }
          for (const auto& c : st.catches) {
            facts_.note(c.varName, NameFacts::kDeclared);
          }
        },
        [&](const Expr& e) {
          const Write w = writeOf(e);
          if (w.target == nullptr || w.target->kind != ExprKind::kVarRef) {
            return;
          }
          facts_.note(w.target->strValue,
                      NameFacts::kReassigned |
                          (w.arithmetic ? NameFacts::kArithmetic : 0));
        });
  }

  /// Whether `fact` holds for `name` in the method being rewritten.
  bool fact(std::string_view name, NameFacts::Fact fact) const {
    return facts_.has(method_, name, fact);
  }

  void rewriteClass(ClassDecl& cls) {
    currentClass_ = &cls;
    // Run i holds method i's facts; the run after them, the class's.
    facts_.clear();
    for (const auto& m : cls.methods) {
      noteMethodFacts(m);
      facts_.close();
    }
    // Field narrowing is gated on the writes anywhere in the class (fields
    // escape method scope): the union of the methods' facts.
    method_ = facts_.unionOfRuns();
    for (auto& f : cls.fields) {
      narrowType(&f.type, f.name, f.line, fact(f.name, NameFacts::kArithmetic),
                 fact(f.name, NameFacts::kReassigned));
      improveWrapper(&f.type, f.name, f.line);
      if (f.init) rewriteAllExprsIn(f.init);
    }
    for (std::size_t i = 0; i < cls.methods.size(); ++i) {
      MethodDecl& m = cls.methods[i];
      method_ = i;
      for (auto& p : m.params) {
        narrowType(&p.type, p.name, m.line,
                   fact(p.name, NameFacts::kArithmetic),
                   fact(p.name, NameFacts::kReassigned));
      }
      if (!m.body) continue;
      rewriteStmtList(m.body->body);
      cacheStatics(m);
    }
  }

  const OptimizerOptions& options_;
  const StaticInfo& statics_;
  Program& program_;
  jlang::Arena& arena_;
  CompilationUnit& unit_;
  std::vector<ChangeRecord>* changes_;
  const ClassDecl* currentClass_ = nullptr;
  NameFacts facts_;          // the current class's, one run per method
  std::size_t method_ = 0;   // the run fact() reads
  // Names viewing the rewritten unit's arena: the non-negative canonical
  // loop counters in scope, each once.
  std::vector<std::string_view> nonNegativeVars_;
  /// What rewriteStmt produced, as a stack: a list rewrite appends above a
  /// mark and takes its statements back off (takeRewritten).
  std::vector<StmtPtr> rewritten_;
  std::vector<Concat> concats_;  // tryBuilderExtraction's, per loop
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
