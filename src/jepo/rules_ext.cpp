#include "jepo/rules_ext.hpp"

#include <unordered_map>
#include <unordered_set>

#include "jepo/engine.hpp"
#include "jepo/walk.hpp"

namespace jepo::core {

using jlang::ClassDecl;
using jlang::CompilationUnit;
using jlang::Expr;
using jlang::ExprKind;
using jlang::ExprPtr;
using jlang::MethodDecl;
using jlang::Program;
using jlang::Stmt;
using jlang::StmtKind;
using jlang::StmtPtr;
using jlang::TypeRef;

std::string_view extRuleName(ExtRuleId id) noexcept {
  switch (id) {
    case ExtRuleId::kTryInLoop: return "Exception handling in loop";
    case ExtRuleId::kBoxingInLoop: return "Boxing in loop";
    case ExtRuleId::kAllocationInLoop: return "Allocation in loop";
    case ExtRuleId::kLengthInLoopCond: return "length() in loop condition";
    case ExtRuleId::kRepeatedFieldAccess: return "Repeated field access";
    case ExtRuleId::kExtRuleCount: break;
  }
  return "?";
}

std::string_view extRuleSuggestion(ExtRuleId id) noexcept {
  switch (id) {
    case ExtRuleId::kTryInLoop:
      return "Entering a try block every iteration pays its setup cost "
             "repeatedly. Move the loop inside the try when the handler "
             "allows it.";
    case ExtRuleId::kBoxingInLoop:
      return "Boxing allocates per iteration. Use the primitive inside the "
             "loop and box once outside.";
    case ExtRuleId::kAllocationInLoop:
      return "Allocating a new object every iteration is energy-expensive. "
             "Hoist or reuse the object when it does not escape the "
             "iteration.";
    case ExtRuleId::kLengthInLoopCond:
      return "length() is re-evaluated on every loop test. Hoist it into a "
             "local before the loop.";
    case ExtRuleId::kRepeatedFieldAccess:
      return "The same field is read repeatedly; cache it in a local to "
             "avoid the per-read field access cost.";
    case ExtRuleId::kExtRuleCount: break;
  }
  return "?";
}

namespace {

bool isLoop(const Stmt& s) {
  return s.kind == StmtKind::kFor || s.kind == StmtKind::kWhile;
}

/// Visit loop bodies: fn(loopStmt, bodyStmt).
void forEachLoop(const Stmt& root,
                 const std::function<void(const Stmt&)>& fn) {
  walkStmt(
      root,
      [&](const Stmt& s) {
        if (isLoop(s)) fn(s);
      },
      [](const Expr&) {});
}

bool isWrapperName(const std::string& n) {
  return n == "Integer" || n == "Long" || n == "Double" || n == "Float" ||
         n == "Short" || n == "Byte" || n == "Character" || n == "Boolean";
}

}  // namespace

std::vector<ExtSuggestion> analyzeExtensions(const Program& program) {
  std::vector<ExtSuggestion> out;
  for (const auto& unit : program.units) {
    for (const auto& cls : unit.classes) {
      auto emit = [&](ExtRuleId rule, int line, std::string detail) {
        ExtSuggestion s;
        s.rule = rule;
        s.file = unit.fileName;
        s.className = cls.name;
        s.line = line;
        s.detail = std::move(detail);
        out.push_back(std::move(s));
      };

      for (const auto& m : cls.methods) {
        if (!m.body) continue;

        // Loop-scoped rules.
        forEachLoop(*m.body, [&](const Stmt& loop) {
          const Stmt& body = *loop.thenStmt;
          // Rule 1: a try directly inside the loop.
          walkStmt(
              body,
              [&](const Stmt& s) {
                if (s.kind == StmtKind::kTry) {
                  emit(ExtRuleId::kTryInLoop, s.line,
                       "try entered every iteration of the loop at line " +
                           std::to_string(loop.line));
                }
              },
              [](const Expr&) {});
          // Rules 2+3: boxing / allocation inside the loop.
          walkStmt(
              body,
              [&](const Stmt& s) {
                if (s.kind == StmtKind::kVarDecl &&
                    s.declType.arrayDims == 0 &&
                    s.declType.prim == jlang::Prim::kClass &&
                    isWrapperName(s.declType.className)) {
                  emit(ExtRuleId::kBoxingInLoop, s.line,
                       s.declType.className + " '" + s.declName +
                           "' boxed per iteration");
                }
              },
              [&](const Expr& e) {
                if (e.kind == ExprKind::kCall && e.strValue == "valueOf" &&
                    e.a && e.a->kind == ExprKind::kVarRef &&
                    isWrapperName(e.a->strValue)) {
                  emit(ExtRuleId::kBoxingInLoop, e.line,
                       e.a->strValue + ".valueOf per iteration");
                }
                if (e.kind == ExprKind::kNew) {
                  emit(ExtRuleId::kAllocationInLoop, e.line,
                       "new " + e.strValue + " per iteration");
                }
              });
          // Rule 4: length() in the loop condition.
          if (loop.cond) {
            walkExpr(*loop.cond, [&](const Expr& e) {
              if (e.kind == ExprKind::kCall && e.strValue == "length" &&
                  e.a != nullptr) {
                emit(ExtRuleId::kLengthInLoopCond, e.line,
                     "length() evaluated on every test");
              }
            });
          }
        });

        // Rule 5: same instance field read 3+ times in the method.
        std::unordered_set<std::string> fieldNames;
        for (const auto& f : cls.fields) {
          if (!f.isStatic) fieldNames.insert(f.name);
        }
        std::unordered_set<std::string> locals;
        for (const auto& p : m.params) locals.insert(p.name);
        walkStmt(
            *m.body,
            [&](const Stmt& s) {
              if (s.kind == StmtKind::kVarDecl) locals.insert(s.declName);
            },
            [](const Expr&) {});
        std::unordered_map<std::string, int> reads;
        walkStmt(
            *m.body, [](const Stmt&) {},
            [&](const Expr& e) {
              if (e.kind == ExprKind::kVarRef &&
                  fieldNames.count(e.strValue) != 0 &&
                  locals.count(e.strValue) == 0) {
                ++reads[e.strValue];
              }
            });
        for (const auto& [name, count] : reads) {
          if (count >= 3) {
            emit(ExtRuleId::kRepeatedFieldAccess, m.line,
                 "field '" + name + "' read " + std::to_string(count) +
                     " times in " + m.name);
          }
        }
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Safe rewrites.

namespace {

class ExtRewriter {
 public:
  ExtRewriter(CompilationUnit& unit, std::vector<ExtChange>* changes)
      : unit_(unit), changes_(changes) {}

  void run() {
    for (auto& cls : unit_.classes) {
      cls_ = &cls;
      for (auto& m : cls.methods) {
        if (!m.body) continue;
        hoistLengthCalls(m);
        cacheHotFields(m);
      }
    }
  }

 private:
  void record(ExtRuleId rule, int line, std::string description) {
    changes_->push_back(
        ExtChange{rule, cls_->name, line, std::move(description)});
  }

  static bool varWrittenIn(const Stmt& root, const std::string& name) {
    bool written = false;
    walkStmt(
        root, [](const Stmt&) {},
        [&](const Expr& e) {
          if (e.kind == ExprKind::kAssign &&
              e.a->kind == ExprKind::kVarRef && e.a->strValue == name) {
            written = true;
          }
        });
    return written;
  }

  static bool containsCalls(const Stmt& root) {
    bool found = false;
    walkStmt(
        root, [](const Stmt&) {},
        [&](const Expr& e) {
          if (e.kind == ExprKind::kCall || e.kind == ExprKind::kNew) {
            found = true;
          }
        });
    return found;
  }

  /// for (...; i < s.length(); ...) with s a plain variable never written
  /// inside the loop -> hoist into `int __len_s = s.length();`.
  void hoistLengthCalls(MethodDecl& m) {
    rewriteBlockList(m.body->body);
  }

  void rewriteBlockList(std::vector<StmtPtr>& stmts) {
    std::vector<StmtPtr> out;
    out.reserve(stmts.size());
    for (auto& sp : stmts) {
      // Recurse first so inner loops hoist into their own blocks.
      recurseChildren(*sp);

      if (sp->kind == StmtKind::kFor && sp->cond) {
        // Find `X.length()` with X a VarRef in the condition.
        Expr* lengthCall = nullptr;
        std::function<void(Expr&)> find = [&](Expr& e) {
          if (e.kind == ExprKind::kCall && e.strValue == "length" && e.a &&
              e.a->kind == ExprKind::kVarRef && e.args.empty()) {
            lengthCall = &e;
          }
          if (e.a) find(*e.a);
          if (e.b) find(*e.b);
          if (e.c) find(*e.c);
          for (auto& arg : e.args) find(*arg);
        };
        find(*sp->cond);
        if (lengthCall != nullptr) {
          const std::string target = lengthCall->a->strValue;
          if (!varWrittenIn(*sp, target)) {
            const std::string local = "__len_" + target;
            record(ExtRuleId::kLengthInLoopCond, sp->line,
                   "hoisted " + target + ".length() into " + local);
            // int __len_x = x.length();
            auto decl = std::make_unique<Stmt>(StmtKind::kVarDecl);
            decl->line = sp->line;
            decl->declType = TypeRef::scalar(jlang::Prim::kInt);
            decl->declName = local;
            auto call = std::make_unique<Expr>(ExprKind::kCall);
            call->line = sp->line;
            call->strValue = "length";
            call->a = std::make_unique<Expr>(ExprKind::kVarRef);
            call->a->strValue = target;
            call->a->line = sp->line;
            decl->init = std::move(call);
            out.push_back(std::move(decl));
            // Replace the call node with the local read.
            lengthCall->kind = ExprKind::kVarRef;
            lengthCall->strValue = local;
            lengthCall->a.reset();
          }
        }
      }
      out.push_back(std::move(sp));
    }
    stmts = std::move(out);
  }

  void recurseChildren(Stmt& s) {
    if (s.kind == StmtKind::kBlock) {
      rewriteBlockList(s.body);
      return;
    }
    if (s.thenStmt) recurseChildren(*s.thenStmt);
    if (s.elseStmt) recurseChildren(*s.elseStmt);
    if (s.tryBlock) recurseChildren(*s.tryBlock);
    for (auto& c : s.catches) recurseChildren(*c.body);
    if (s.finallyBlock) recurseChildren(*s.finallyBlock);
    for (auto& c : s.cases) rewriteBlockList(c.body);
  }

  /// Cache an instance field read 3+ times when the method never writes it
  /// and performs no calls (calls could write the field through `this`).
  void cacheHotFields(MethodDecl& m) {
    if (m.isStatic || containsCalls(*m.body)) return;

    std::unordered_map<std::string, const jlang::FieldDecl*> fields;
    for (const auto& f : cls_->fields) {
      if (!f.isStatic && f.type.arrayDims == 0 &&
          f.type.prim != jlang::Prim::kClass) {
        fields.emplace(f.name, &f);
      }
    }
    std::unordered_set<std::string> shadowed;
    for (const auto& p : m.params) shadowed.insert(p.name);
    walkStmt(
        *m.body,
        [&](const Stmt& s) {
          if (s.kind == StmtKind::kVarDecl) shadowed.insert(s.declName);
        },
        [](const Expr&) {});

    std::unordered_map<std::string, int> reads;
    walkStmt(
        *m.body, [](const Stmt&) {},
        [&](const Expr& e) {
          if (e.kind == ExprKind::kVarRef && fields.count(e.strValue) != 0 &&
              shadowed.count(e.strValue) == 0) {
            ++reads[e.strValue];
          }
        });

    std::vector<StmtPtr> prologue;
    for (const auto& [name, count] : reads) {
      if (count < 3 || varWrittenIn(*m.body, name)) continue;
      const std::string local = "__field_" + name;
      record(ExtRuleId::kRepeatedFieldAccess, m.line,
             "cached field '" + name + "' (" + std::to_string(count) +
                 " reads) in " + m.name);
      auto decl = std::make_unique<Stmt>(StmtKind::kVarDecl);
      decl->line = m.line;
      decl->declType = fields.at(name)->type;
      decl->declName = local;
      decl->init = std::make_unique<Expr>(ExprKind::kVarRef);
      decl->init->strValue = name;
      decl->init->line = m.line;
      prologue.push_back(std::move(decl));

      // Replace the reads.
      std::function<void(Expr&)> fix = [&](Expr& e) {
        if (e.kind == ExprKind::kVarRef && e.strValue == name) {
          e.strValue = local;
        }
        if (e.a) fix(*e.a);
        if (e.b) fix(*e.b);
        if (e.c) fix(*e.c);
        for (auto& arg : e.args) fix(*arg);
      };
      std::function<void(Stmt&)> walk = [&](Stmt& st) {
        if (st.init) fix(*st.init);
        if (st.expr) fix(*st.expr);
        if (st.cond) fix(*st.cond);
        for (auto& u : st.update) fix(*u);
        for (auto& child : st.body) walk(*child);
        if (st.thenStmt) walk(*st.thenStmt);
        if (st.elseStmt) walk(*st.elseStmt);
        if (st.tryBlock) walk(*st.tryBlock);
        for (auto& c : st.catches) walk(*c.body);
        if (st.finallyBlock) walk(*st.finallyBlock);
        for (auto& c : st.cases) {
          for (auto& child : c.body) walk(*child);
        }
      };
      walk(*m.body);
    }
    for (auto it = prologue.rbegin(); it != prologue.rend(); ++it) {
      m.body->body.insert(m.body->body.begin(), std::move(*it));
    }
  }

  CompilationUnit& unit_;
  std::vector<ExtChange>* changes_;
  const ClassDecl* cls_ = nullptr;
};

}  // namespace

ExtOptimizeResult optimizeExtensions(const Program& program) {
  ExtOptimizeResult result;
  result.program = jlang::cloneProgram(program);
  for (auto& unit : result.program.units) {
    ExtRewriter(unit, &result.changes).run();
  }
  return result;
}

}  // namespace jepo::core
