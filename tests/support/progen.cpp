#include "tests/support/progen.hpp"

#include <cstdio>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace jepo::testgen {
namespace {

// Shape of one generated helper class H<i>. All members are ints; names are
// positional (f0.., s0.., m0.., t0..) so references never dangle. Fields
// and statics may carry initializers (run by the engines' class and object
// initialization).
struct ClassSpec {
  int fields = 0;
  int statics = 0;
  int methods = 0;        // int m<k>(int x)      (rich mode only)
  int staticMethods = 0;  // static int t<k>(int x)
  int pairMethods = 0;    // static int u<k>(int x, int y): `return x op y;`
};

// One lexical scope's visible locals. Names are globally unique (a single
// counter per kind), so shadowing never occurs and scope tracking only
// decides visibility, not validity.
struct Scope {
  std::vector<std::string> ints;
  std::vector<std::pair<std::string, int>> objs;  // name, class index
  std::vector<std::pair<std::string, int>> arrs;  // name, length
};

class Emitter {
 public:
  explicit Emitter(std::uint64_t seed) : rng_(seed) {
    // Half the seeds are "rich" (ctors, fields, virtual/self calls); the
    // other half use static members only.
    rich_ = rng_.nextBelow(2) == 0;
  }

  std::string emit() {
    const int helpers = static_cast<int>(rng_.nextInt(1, 3));
    classes_.resize(static_cast<std::size_t>(helpers));
    for (ClassSpec& c : classes_) {
      if (rich_) {
        c.fields = static_cast<int>(rng_.nextInt(1, 3));
        c.statics = static_cast<int>(rng_.nextInt(0, 2));
        c.methods = static_cast<int>(rng_.nextInt(1, 3));
        c.staticMethods = static_cast<int>(rng_.nextInt(0, 2));
      } else {
        c.statics = static_cast<int>(rng_.nextInt(1, 2));
        c.staticMethods = static_cast<int>(rng_.nextInt(1, 2));
      }
      c.pairMethods = static_cast<int>(rng_.nextInt(0, 1));
    }
    std::string out;
    for (int i = 0; i < helpers; ++i) emitClass(out, i);
    emitMain(out);
    return out;
  }

 private:
  // ------------------------------------------------------------- utilities

  static std::string className(int idx) { return "H" + std::to_string(idx); }

  std::string freshInt() { return "l" + std::to_string(nextInt_++); }
  std::string freshObj() { return "o" + std::to_string(nextObj_++); }
  std::string freshArr() { return "a" + std::to_string(nextArr_++); }
  std::string freshLoop() { return "i" + std::to_string(nextLoop_++); }

  std::vector<std::string> visibleInts() const {
    std::vector<std::string> v;
    for (const Scope& s : scopes_)
      v.insert(v.end(), s.ints.begin(), s.ints.end());
    return v;
  }
  std::vector<std::pair<std::string, int>> visibleObjs() const {
    std::vector<std::pair<std::string, int>> v;
    for (const Scope& s : scopes_)
      v.insert(v.end(), s.objs.begin(), s.objs.end());
    return v;
  }
  std::vector<std::pair<std::string, int>> visibleArrs() const {
    std::vector<std::pair<std::string, int>> v;
    for (const Scope& s : scopes_)
      v.insert(v.end(), s.arrs.begin(), s.arrs.end());
    return v;
  }

  void indent(std::string& out) const {
    out.append(static_cast<std::size_t>(indent_) * 2, ' ');
  }

  // Call sites compound: a method called from a loop that itself calls two
  // methods that each call two more multiplies the dynamic invocation count
  // per level. Keeping programs comfortably under the engines' step limits
  // needs a structural bound, not a step budget: at most a few call sites
  // per body, and none inside helper-method loops (Main's loops run once,
  // so calls there only multiply by the loop's own trip count).
  bool callAllowed(bool exprAllows) {
    if (!exprAllows || callBudget_ <= 0) return false;
    if (inClass_ >= 0 && loopDepth_ > 0) return false;
    return true;
  }

  // ----------------------------------------------------------- expressions

  // Always-positive denominator: ((e) % 7 + 13) lands in [7, 19].
  std::string safeDenominator(const std::string& e) {
    return "((" + e + ") % 7 + 13)";
  }

  // In-range index for an array of length `len`, whatever sign `e` has.
  std::string safeIndex(const std::string& e, int len) {
    const std::string l = std::to_string(len);
    return "((" + e + ") % " + l + " + " + l + ") % " + l;
  }

  std::string literal() { return std::to_string(rng_.nextInt(0, 20)); }

  // A binary operator that cannot throw (no / or %).
  const char* safeOp() {
    static const char* const kOps[] = {"+", "-", "*", "&", "|", "^"};
    return kOps[rng_.nextBelow(6)];
  }

  // Assignable int locals: everything visible except loop counters and
  // loop bounds (both named i<n>), which only their loop may write.
  std::vector<std::string> assignableInts() const {
    std::vector<std::string> ints;
    for (const std::string& n : visibleInts())
      if (n[0] != 'i') ints.push_back(n);
    return ints;
  }

  // `acc = acc <op> (v <op> K);` — the accumulate-statement shape.
  std::string accumulate(const std::string& acc, const std::string& v) {
    return acc + " = " + acc + " " + safeOp() + " (" + v + " " + safeOp() +
           " " + std::to_string(rng_.nextInt(1, 15)) + ");\n";
  }

  // An int-valued expression. `depth` bounds recursion; `calls` allows
  // method-call atoms (disabled inside constructors to keep the call graph
  // acyclic and construction non-reentrant).
  std::string genExpr(int depth, bool calls = true) {
    // Atoms nest expressions (indices, call arguments, conditions); a
    // nesting cap keeps that recursion finite.
    if (exprNest_ >= kMaxExprNest) return literal();
    ++exprNest_;
    std::string e = genExprAt(depth, calls);
    --exprNest_;
    return e;
  }

  std::string genExprAt(int depth, bool calls) {
    if (depth <= 0) return genAtom(calls);
    switch (rng_.nextBelow(7)) {
      case 0:
        return genAtom(calls);
      case 1:
        return "(" + genExpr(depth - 1, calls) + " + " +
               genExpr(depth - 1, calls) + ")";
      case 2:
        return "(" + genExpr(depth - 1, calls) + " - " +
               genExpr(depth - 1, calls) + ")";
      case 3:
        return "(" + genExpr(depth - 1, calls) + " * " +
               genExpr(depth - 1, calls) + ")";
      case 4:
        return "(" + genExpr(depth - 1, calls) + " / " +
               safeDenominator(genExpr(depth - 1, calls)) + ")";
      case 5:
        return "(" + genCondition(calls, depth - 1) + " ? " +
               genExpr(depth - 1, calls) +
               " : " + genExpr(depth - 1, calls) + ")";
      default:
        return "(" + genExpr(depth - 1, calls) + " % " +
               safeDenominator(genExpr(depth - 1, calls)) + ")";
    }
  }

  std::string genAtom(bool calls) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      switch (rng_.nextBelow(7)) {
        case 0:
          return literal();
        case 1: {
          const std::vector<std::string> ints = visibleInts();
          if (ints.empty()) break;
          return ints[rng_.nextBelow(ints.size())];
        }
        case 2: {  // static field of this or an earlier class
          std::vector<std::pair<int, int>> cands;  // class, slot
          const int limit = inClass_ >= 0 ? inClass_ + 1
                                          : static_cast<int>(classes_.size());
          for (int c = 0; c < limit; ++c)
            for (int s = 0; s < classes_[static_cast<std::size_t>(c)].statics;
                 ++s)
              cands.emplace_back(c, s);
          if (cands.empty()) break;
          const auto [c, s] = cands[rng_.nextBelow(cands.size())];
          return className(c) + ".s" + std::to_string(s);
        }
        case 3: {  // own field (instance context only)
          if (inClass_ < 0 || inStatic_) break;
          const int n = classes_[static_cast<std::size_t>(inClass_)].fields;
          if (n <= 0) break;
          return "f" + std::to_string(rng_.nextBelow(
                           static_cast<std::uint64_t>(n)));
        }
        case 4: {  // field read or method call on an object-typed local
          const auto objs = visibleObjs();
          if (objs.empty()) break;
          const auto& [name, cls] = objs[rng_.nextBelow(objs.size())];
          const ClassSpec& spec = classes_[static_cast<std::size_t>(cls)];
          if (callAllowed(calls) && spec.methods > 0 &&
              rng_.nextBelow(2) == 0) {
            --callBudget_;
            const std::uint64_t m =
                rng_.nextBelow(static_cast<std::uint64_t>(spec.methods));
            return name + ".m" + std::to_string(m) + "(" + genExpr(1, false) +
                   ")";
          }
          return name + ".f" +
                 std::to_string(rng_.nextBelow(
                     static_cast<std::uint64_t>(spec.fields)));
        }
        case 5: {  // array load at a safe index
          const auto arrs = visibleArrs();
          if (arrs.empty()) break;
          const auto& [name, len] = arrs[rng_.nextBelow(arrs.size())];
          return name + "[" + safeIndex(genExpr(1, false), len) + "]";
        }
        default: {  // a call: qualified static, or unqualified self
          if (!callAllowed(calls)) break;
          struct Callee {
            int cls;
            int idx;
            bool self;
          };
          std::vector<Callee> cands;
          // Qualified statics of strictly earlier classes (any class when
          // generating Main) — the acyclic half of the call graph.
          const int limit = inClass_ >= 0 ? inClass_
                                          : static_cast<int>(classes_.size());
          for (int c = 0; c < limit; ++c)
            for (int t = 0;
                 t < classes_[static_cast<std::size_t>(c)].staticMethods; ++t)
              cands.push_back({c, t, false});
          // Unqualified self calls: only strictly earlier methods of the
          // same kind, so intra-class recursion is impossible too.
          if (inClass_ >= 0)
            for (int m = 0; m < inMethod_; ++m)
              cands.push_back({inClass_, m, true});
          if (cands.empty()) break;
          --callBudget_;
          const Callee& callee = cands[rng_.nextBelow(cands.size())];
          if (callee.self) {
            const char* prefix = inStatic_ ? "t" : "m";
            return std::string(prefix) + std::to_string(callee.idx) + "(" +
                   genExpr(1, false) + ")";
          }
          return className(callee.cls) + ".t" + std::to_string(callee.idx) +
                 "(" + genExpr(1, false) + ")";
        }
      }
    }
    return literal();
  }

  std::string genComparison(bool calls, int depth) {
    static const char* const kCmp[] = {"<", "<=", ">", ">=", "==", "!="};
    return "(" + genExpr(depth, calls) + " " + kCmp[rng_.nextBelow(6)] + " " +
           genExpr(depth, calls) + ")";
  }

  // A comparison of depth-`depth` operands, or two joined by a
  // short-circuit operator.
  std::string genCondition(bool calls = true, int depth = 1) {
    switch (rng_.nextBelow(4)) {
      case 0:
        return "(" + genComparison(calls, depth) + " && " +
               genComparison(calls, depth) + ")";
      case 1:
        return "(" + genComparison(calls, depth) + " || " +
               genComparison(calls, depth) + ")";
      default:
        return genComparison(calls, depth);
    }
  }

  // ------------------------------------------------------------ statements

  void genStmt(std::string& out, int stmtDepth) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      switch (rng_.nextBelow(19)) {
        case 0: {  // new int local
          const std::string n = freshInt();
          indent(out);
          out += "int " + n + " = " + genExpr(2) + ";\n";
          scopes_.back().ints.push_back(n);
          return;
        }
        case 1: {  // assign an existing int local — never a loop counter
          const std::vector<std::string> ints = assignableInts();
          if (ints.empty()) break;
          indent(out);
          out += ints[rng_.nextBelow(ints.size())] + " = " + genExpr(2) +
                 ";\n";
          return;
        }
        case 2: {  // if / else
          if (stmtDepth >= 2) break;
          indent(out);
          out += "if " + genCondition() + " {\n";
          genBlock(out, stmtDepth + 1, static_cast<int>(rng_.nextInt(1, 2)));
          indent(out);
          if (rng_.nextBelow(2) == 0) {
            out += "} else {\n";
            genBlock(out, stmtDepth + 1, static_cast<int>(rng_.nextInt(1, 2)));
            indent(out);
          }
          out += "}\n";
          return;
        }
        case 3: {  // bounded counter loop against a literal or local bound
          if (loopDepth_ >= 2 || stmtDepth >= 2) break;
          std::string bound = std::to_string(rng_.nextInt(2, 8));
          if (rng_.nextBelow(2) == 0) {
            const std::string local = freshLoop();  // i<n>: never assigned
            indent(out);
            out += "int " + local + " = " + bound + ";\n";
            scopes_.back().ints.push_back(local);
            bound = local;
          }
          const std::string i = freshLoop();
          const std::vector<std::string> accs = assignableInts();
          indent(out);
          out += "int " + i + " = 0;\n";
          indent(out);
          out += "while (" + i + " < " + bound + ") {\n";
          ++loopDepth_;
          const bool outerFor = innermostFor_;
          innermostFor_ = false;  // `continue` would skip the increment
          scopes_.push_back(Scope{});
          scopes_.back().ints.push_back(i);
          ++indent_;
          const int body = static_cast<int>(rng_.nextInt(1, 2));
          for (int s = 0; s < body; ++s) genStmt(out, stmtDepth + 1);
          if (!accs.empty() && rng_.nextBelow(2) == 0) {
            indent(out);  // an accumulate tail fuses with a `++` latch
            out += accumulate(accs[rng_.nextBelow(accs.size())], i);
          }
          indent(out);
          out += rng_.nextBelow(2) == 0 ? i + " = " + i + " + 1;\n"
                                        : i + "++;\n";
          --indent_;
          scopes_.pop_back();
          --loopDepth_;
          innermostFor_ = outerFor;
          indent(out);
          out += "}\n";
          return;
        }
        case 4: {  // construct a helper object (rich mode only)
          if (!rich_) break;
          const int limit = inClass_ >= 0 ? inClass_
                                          : static_cast<int>(classes_.size());
          if (limit <= 0) break;
          const int cls = static_cast<int>(
              rng_.nextBelow(static_cast<std::uint64_t>(limit)));
          const std::string n = freshObj();
          indent(out);
          out += className(cls) + " " + n + " = new " + className(cls) + "(" +
                 genExpr(1) + ");\n";
          scopes_.back().objs.emplace_back(n, cls);
          return;
        }
        case 5: {  // unqualified this-field store (instance context)
          if (inClass_ < 0 || inStatic_) break;
          const int n = classes_[static_cast<std::size_t>(inClass_)].fields;
          if (n <= 0) break;
          indent(out);
          out += "f" +
                 std::to_string(
                     rng_.nextBelow(static_cast<std::uint64_t>(n))) +
                 " = " + genExpr(2) + ";\n";
          return;
        }
        case 6: {  // new int array
          const int len = static_cast<int>(rng_.nextInt(4, 12));
          const std::string n = freshArr();
          indent(out);
          out += "int[] " + n + " = new int[" + std::to_string(len) + "];\n";
          scopes_.back().arrs.emplace_back(n, len);
          return;
        }
        case 7: {  // qualified static store
          std::vector<std::pair<int, int>> cands;
          const int limit = inClass_ >= 0 ? inClass_ + 1
                                          : static_cast<int>(classes_.size());
          for (int c = 0; c < limit; ++c)
            for (int s = 0; s < classes_[static_cast<std::size_t>(c)].statics;
                 ++s)
              cands.emplace_back(c, s);
          if (cands.empty()) break;
          const auto [c, s] = cands[rng_.nextBelow(cands.size())];
          indent(out);
          out += className(c) + ".s" + std::to_string(s) + " = " +
                 genExpr(2) + ";\n";
          return;
        }
        case 8: {  // qualified field store on an object-typed local
          const auto objs = visibleObjs();
          if (objs.empty()) break;
          const auto& [name, cls] = objs[rng_.nextBelow(objs.size())];
          const ClassSpec& spec = classes_[static_cast<std::size_t>(cls)];
          indent(out);
          out += name + ".f" +
                 std::to_string(rng_.nextBelow(
                     static_cast<std::uint64_t>(spec.fields))) +
                 " = " + genExpr(2) + ";\n";
          return;
        }
        case 9: {  // array store at a safe index
          const auto arrs = visibleArrs();
          if (arrs.empty()) break;
          const auto& [name, len] = arrs[rng_.nextBelow(arrs.size())];
          indent(out);
          out += name + "[" + safeIndex(genExpr(1, false), len) +
                 "] = " + genExpr(2) + ";\n";
          return;
        }
        case 10: {  // compound assignment or ++/-- on a non-counter local
          const std::vector<std::string> ints = assignableInts();
          if (ints.empty()) break;
          const std::string& n = ints[rng_.nextBelow(ints.size())];
          indent(out);
          switch (rng_.nextBelow(4)) {
            case 0: out += n + " += " + genExpr(2) + ";\n"; break;
            case 1: out += n + " -= " + genExpr(2) + ";\n"; break;
            case 2: out += n + "++;\n"; break;
            default: out += "--" + n + ";\n"; break;
          }
          return;
        }
        case 12: {  // counted for loop (its update survives `continue`)
          if (loopDepth_ >= 2 || stmtDepth >= 2) break;
          const std::string i = freshLoop();
          indent(out);
          out += "for (int " + i + " = 0; " + i + " < " +
                 std::to_string(rng_.nextInt(2, 8)) + "; " + i + "++) {\n";
          ++loopDepth_;
          const bool outerFor = innermostFor_;
          innermostFor_ = true;
          scopes_.push_back(Scope{});
          scopes_.back().ints.push_back(i);
          ++indent_;
          const int body = static_cast<int>(rng_.nextInt(1, 3));
          for (int st = 0; st < body; ++st) genStmt(out, stmtDepth + 1);
          --indent_;
          scopes_.pop_back();
          innermostFor_ = outerFor;
          --loopDepth_;
          indent(out);
          out += "}\n";
          return;
        }
        case 13: {  // conditional break / continue out of a loop
          if (loopDepth_ == 0) break;
          const bool cont = innermostFor_ && rng_.nextBelow(2) == 0;
          indent(out);
          out += "if " + genCondition() + " { " +
                 (cont ? "continue" : "break") + "; }\n";
          return;
        }
        case 14: {  // switch with fall-through and a default
          if (stmtDepth >= 2) break;
          indent(out);
          out += "switch (((" + genExpr(1) + ") % 4 + 4) % 4) {\n";
          for (int c = 0; c < 4; ++c) {
            // Each case body is a block: a declaration in one case must
            // not be visible (uninitialized) in the cases below it.
            indent(out);
            out += c < 3 ? "  case " + std::to_string(c) + ": {\n"
                         : std::string("  default: {\n");
            ++indent_;
            genBlockBody(out, stmtDepth + 1);
            indent(out);
            out += rng_.nextBelow(3) != 0 ? "  } break;\n" : "  }\n";
            --indent_;
          }
          indent(out);
          out += "}\n";
          return;
        }
        case 15: {  // try / catch / finally around a conditional throw
          if (stmtDepth >= 2) break;
          const bool hasCatch = rng_.nextBelow(3) != 0;
          const bool hasFinally = !hasCatch || rng_.nextBelow(2) == 0;
          indent(out);
          out += "try {\n";
          scopes_.push_back(Scope{});
          ++indent_;
          genStmt(out, stmtDepth + 1);
          if (inClass_ >= 0 && rng_.nextBelow(3) == 0) {
            indent(out);  // an early return crossing the finally
            out += "if " + genCondition() + " { return " + genExpr(1) +
                   "; }\n";
          }
          // Without a catch the exception would escape: throw only when
          // one is there to take it.
          if (hasCatch) {
            indent(out);
            out += "if " + genCondition() +
                   " { throw new RuntimeException(\"t\"); }\n";
          }
          genStmt(out, stmtDepth + 1);
          --indent_;
          scopes_.pop_back();
          indent(out);
          out += "}";
          if (hasCatch) {
            out += rng_.nextBelow(2) == 0 ? " catch (RuntimeException e) {\n"
                                          : " catch (Exception e) {\n";
            genBlockBody(out, stmtDepth + 1);
            indent(out);
            out += "}";
          }
          if (hasFinally) {
            out += " finally {\n";
            genBlockBody(out, stmtDepth + 1);
            indent(out);
            out += "}";
          }
          out += "\n";
          return;
        }
        case 16: {  // accumulate statement on a non-counter local
          const std::vector<std::string> ints = assignableInts();
          if (ints.empty()) break;
          const std::vector<std::string> vs = visibleInts();
          indent(out);
          out += accumulate(ints[rng_.nextBelow(ints.size())],
                            vs[rng_.nextBelow(vs.size())]);
          return;
        }
        case 17: {  // counted accumulate loop: one dispatch per iteration
          if (loopDepth_ >= 2) break;
          const std::string acc = freshInt();
          const std::string i = freshLoop();
          indent(out);
          out += "int " + acc + " = " + genExpr(1) + ";\n";
          indent(out);
          out += "for (int " + i + " = 0; " + i + " < " +
                 std::to_string(rng_.nextInt(2, 12)) + "; " + i + "++) " +
                 accumulate(acc, i);
          scopes_.back().ints.push_back(acc);
          return;
        }
        case 18: {  // a call whose arguments are two locals
          const std::vector<std::string> ints = visibleInts();
          if (ints.empty()) break;
          const std::string& a = ints[rng_.nextBelow(ints.size())];
          const std::string& b = ints[rng_.nextBelow(ints.size())];
          std::string call;
          const auto objs = visibleObjs();
          if (!objs.empty() && callAllowed(true) && rng_.nextBelow(2) == 0) {
            // Virtual: the receiver and one argument.
            const auto& [name, cls] = objs[rng_.nextBelow(objs.size())];
            const ClassSpec& spec = classes_[static_cast<std::size_t>(cls)];
            --callBudget_;
            call = name + ".m" +
                   std::to_string(rng_.nextBelow(
                       static_cast<std::uint64_t>(spec.methods))) +
                   "(" + a + ")";
          } else {
            // Unqualified static leaf of the running class (Main has u0).
            const int pairs =
                inClass_ >= 0
                    ? classes_[static_cast<std::size_t>(inClass_)].pairMethods
                    : 1;
            if (pairs <= 0) break;
            call = "u" +
                   std::to_string(rng_.nextBelow(
                       static_cast<std::uint64_t>(pairs))) +
                   "(" + a + ", " + b + ")";
          }
          const std::string n = freshInt();
          indent(out);
          out += "int " + n + " = " + call + ";\n";
          scopes_.back().ints.push_back(n);
          return;
        }
        default: {  // print — makes divergence visible in stdout too
          indent(out);
          out += "System.out.println(" + genExpr(2) + ");\n";
          return;
        }
      }
    }
    indent(out);
    out += "System.out.println(" + literal() + ");\n";
  }

  // One statement in its own scope, indented one level (catch/finally).
  void genBlockBody(std::string& out, int stmtDepth) {
    scopes_.push_back(Scope{});
    ++indent_;
    genStmt(out, stmtDepth);
    --indent_;
    scopes_.pop_back();
  }

  void genBlock(std::string& out, int stmtDepth, int stmts) {
    scopes_.push_back(Scope{});
    ++indent_;
    for (int s = 0; s < stmts; ++s) genStmt(out, stmtDepth);
    --indent_;
    scopes_.pop_back();
  }

  // -------------------------------------------------------------- classes

  void emitClass(std::string& out, int idx) {
    const ClassSpec& spec = classes_[static_cast<std::size_t>(idx)];
    out += "class " + className(idx) + " {\n";
    inClass_ = idx;
    // Initializers are call-free and see no locals; they may read this
    // class's or earlier classes' members (uninitialized ones read 0).
    inStatic_ = false;
    for (int f = 0; f < spec.fields; ++f) {
      out += "  int f" + std::to_string(f);
      if (rng_.nextBelow(2) == 0) out += " = " + genExpr(1, false);
      out += ";\n";
    }
    inStatic_ = true;
    for (int s = 0; s < spec.statics; ++s) {
      out += "  static int s" + std::to_string(s);
      if (rng_.nextBelow(2) == 0) out += " = " + genExpr(1, false);
      out += ";\n";
    }

    if (spec.fields > 0) {
      // Constructor: assigns every field from call-free expressions so
      // `new H<j>(...)` can never recurse into user methods.
      inStatic_ = false;
      inMethod_ = 0;
      out += "  " + className(idx) + "(int x) {\n";
      scopes_.push_back(Scope{});
      scopes_.back().ints.push_back("x");
      indent_ = 2;
      for (int f = 0; f < spec.fields; ++f) {
        indent(out);
        out += "f" + std::to_string(f) + " = " + genExpr(1, false) + ";\n";
      }
      scopes_.pop_back();
      out += "  }\n";
    }

    for (int m = 0; m < spec.methods; ++m) {
      inStatic_ = false;
      inMethod_ = m;
      out += "  int m" + std::to_string(m) + "(int x) {\n";
      if (rng_.nextBelow(3) == 0) {
        // The field-accumulate body `f1 = f1 op f2; return f1;`.
        const std::string f1 =
            "f" + std::to_string(rng_.nextBelow(
                      static_cast<std::uint64_t>(spec.fields)));
        const std::string f2 =
            "f" + std::to_string(rng_.nextBelow(
                      static_cast<std::uint64_t>(spec.fields)));
        out += "    " + f1 + " = " + f1 + " " + safeOp() + " " + f2 +
               ";\n    return " + f1 + ";\n";
      } else {
        emitMethodBody(out);
      }
      out += "  }\n";
    }
    for (int t = 0; t < spec.staticMethods; ++t) {
      inStatic_ = true;
      inMethod_ = t;
      out += "  static int t" + std::to_string(t) + "(int x) {\n";
      emitMethodBody(out);
      out += "  }\n";
    }
    for (int u = 0; u < spec.pairMethods; ++u) emitPairMethod(out, u);
    out += "}\n";
    inClass_ = -1;
    inStatic_ = true;
  }

  // A leaf `static int u<k>(int x, int y) { return x op y; }`.
  void emitPairMethod(std::string& out, int idx) {
    out += "  static int u" + std::to_string(idx) +
           "(int x, int y) {\n    return x " + safeOp() + " y;\n  }\n";
  }

  void emitMethodBody(std::string& out) {
    callBudget_ = 2;
    scopes_.push_back(Scope{});
    scopes_.back().ints.push_back("x");
    indent_ = 2;
    const int stmts = static_cast<int>(rng_.nextInt(1, 4));
    for (int s = 0; s < stmts; ++s) genStmt(out, 0);
    indent(out);
    out += "return " + genExpr(2) + ";\n";
    scopes_.pop_back();
  }

  void emitMain(std::string& out) {
    inClass_ = -1;
    inStatic_ = true;
    inMethod_ = 0;
    callBudget_ = 4;
    out += "class Main {\n";
    out += "  static int g0;\n";
    emitPairMethod(out, 0);
    out += "  static void main(String[] args) {\n";
    scopes_.push_back(Scope{});
    indent_ = 2;
    out += "    g0 = " + literal() + ";\n";
    const int stmts = static_cast<int>(rng_.nextInt(4, 8));
    for (int s = 0; s < stmts; ++s) genStmt(out, 0);

    // Guaranteed churn: every iteration allocates, so the heap-limited
    // rerun in the fuzzer exercises the collector on every seed, with a
    // live/dead mix and a printed checksum. Rich seeds churn objects;
    // strict seeds churn arrays and route through a static call instead.
    const int iters = static_cast<int>(rng_.nextInt(40, 160));
    out += "    int chk = g0;\n";
    out += "    int ci = 0;\n";
    out += "    while (ci < " + std::to_string(iters) + ") {\n";
    if (rich_) {
      const int cls = static_cast<int>(
          rng_.nextBelow(static_cast<std::uint64_t>(classes_.size())));
      const ClassSpec& spec = classes_[static_cast<std::size_t>(cls)];
      const std::string m =
          "m" + std::to_string(rng_.nextBelow(
                    static_cast<std::uint64_t>(spec.methods)));
      out += "      " + className(cls) + " tmp = new " + className(cls) +
             "(ci);\n";
      out += "      int[] buf = new int[8];\n";
      out += "      chk = chk + tmp." + m + "(ci) + tmp.f0 + buf[((ci) % 8 + "
             "8) % 8];\n";
    } else {
      std::vector<std::pair<int, int>> statics;
      for (int c = 0; c < static_cast<int>(classes_.size()); ++c)
        for (int t = 0;
             t < classes_[static_cast<std::size_t>(c)].staticMethods; ++t)
          statics.emplace_back(c, t);
      const auto [c, t] = statics[rng_.nextBelow(statics.size())];
      out += "      int[] buf = new int[8];\n";
      out += "      int[] spare = new int[4];\n";
      out += "      chk = chk + " + className(c) + ".t" + std::to_string(t) +
             "(ci) + buf[((ci) % 8 + 8) % 8] + spare[((chk) % 4 + 4) % 4];\n";
    }
    out += "      ci = ci + 1;\n";
    out += "    }\n";
    out += "    System.out.println(chk);\n";
    scopes_.pop_back();
    out += "  }\n";
    out += "}\n";
  }

  Rng rng_;
  bool rich_ = false;
  std::vector<ClassSpec> classes_;
  std::vector<Scope> scopes_;
  int inClass_ = -1;  // -1 = Main
  bool inStatic_ = true;
  int inMethod_ = 0;
  int indent_ = 2;
  int loopDepth_ = 0;
  bool innermostFor_ = false;  // the innermost enclosing loop is a for
  int callBudget_ = 0;
  int nextInt_ = 0;
  int nextObj_ = 0;
  int nextArr_ = 0;
  int nextLoop_ = 0;
  int exprNest_ = 0;
  static constexpr int kMaxExprNest = 8;
};

}  // namespace

GeneratedProgram generateProgram(std::uint64_t seed) {
  char tag[24];
  std::snprintf(tag, sizeof tag, "fuzz_%016llx",
                static_cast<unsigned long long>(seed));
  GeneratedProgram p;
  p.name = tag;
  p.source = Emitter(seed).emit();
  return p;
}

}  // namespace jepo::testgen
