#include "jbc/compiler.hpp"

#include <iterator>
#include <unordered_map>
#include <utility>

#include "energy/op.hpp"
#include "jlang/resolve.hpp"
#include "jvm/builtins.hpp"
#include "jvm/ops.hpp"

namespace jepo::jbc {

using jlang::AssignOp;
using jlang::BinOp;
using jlang::CallKind;
using jlang::ClassDecl;
using jlang::Expr;
using jlang::ExprKind;
using jlang::MethodDecl;
using jlang::NameRef;
using jlang::Prim;
using jlang::Program;
using jlang::Stmt;
using jlang::StmtKind;
using jlang::UnOp;
using jvm::BuiltinLibrary;
using jvm::ValKind;

namespace {

class ProgramCompiler;

/// Compiles one method body into a Chunk.
///
/// The lowering mirrors jvm::Interpreter node by node: every name and call
/// site dispatches on the resolver's binding (the one the tree
/// interpreter reads), locals use the resolver's frame slots (shifted past
/// `this` in instance chunks), and every node emits the tree's charges in
/// the tree's order — a statement's kBranch/kTernary/kTryEnter is a
/// kCharge ahead of the code it guards, compiler temporaries never charge.
/// Tree steps are counted in Instr::n: each statement or expression node
/// adds one pending step, which lands on the next emitted instruction —
/// the first one the node's code executes.
class MethodCompiler {
 public:
  MethodCompiler(ProgramCompiler& owner, const ClassDecl& cls,
                 bool isStatic);

  Chunk compileMethod(const MethodDecl& m);
  /// Synthesized chunks over field initializers.
  Chunk compileFieldInits(const ClassDecl& cls, bool staticFields);

 private:
  // ------------------------------------------------------------- emission
  int emit(Op op, std::int32_t a = 0, std::int32_t b = 0, std::int32_t c = 0,
           int line = 0) {
    Instr in{op, a, b, c, line};
    in.n = pendingSteps_;
    pendingSteps_ = 0;
    chunk_.code.push_back(in);
    return static_cast<int>(chunk_.code.size() - 1);
  }
  int here() const { return static_cast<int>(chunk_.code.size()); }
  /// The pc of a jump target about to be emitted. Steps still pending
  /// belong to the path falling into it, so they get their own carrier.
  int label() {
    if (pendingSteps_ > 0) emit(Op::kStep);
    return here();
  }
  void patch(int at, int target) {
    chunk_.code[static_cast<std::size_t>(at)].a = target;
  }
  void emitCharge(energy::Op op, int line) {
    emit(Op::kCharge, static_cast<std::int32_t>(op), 0, 0, line);
  }
  void emitError(const std::string& message, int line);

  // ---------------------------------------------------------------- slots
  /// VM slot of a resolver frame slot (slot 0 holds `this` in instance
  /// chunks).
  int slotOf(std::int32_t resolverSlot) const {
    return resolverSlot + thisOffset_;
  }
  /// Declared kind of a resolver slot (kRef when unknown).
  ValKind kindOf(std::int32_t resolverSlot) const {
    const auto i = static_cast<std::size_t>(resolverSlot);
    return i < slotKinds_.size() ? slotKinds_[i] : ValKind::kRef;
  }
  void setKind(std::int32_t resolverSlot, ValKind k) {
    const auto i = static_cast<std::size_t>(resolverSlot);
    if (i >= slotKinds_.size()) slotKinds_.resize(i + 1, ValKind::kRef);
    slotKinds_[i] = k;
  }
  int newTemp() { return chunk_.numSlots++; }

  // ------------------------------------------------------------ statements
  void compileStmt(const Stmt& s);
  void compileVarDecl(const Stmt& s);
  void compileIf(const Stmt& s);
  void compileWhile(const Stmt& s);
  void compileFor(const Stmt& s);
  void compileTry(const Stmt& s);
  void compileSwitch(const Stmt& s);
  void compileReturn(const Stmt& s);
  void compileJumpOut(const Stmt& s);

  // ----------------------------------------------------------- expressions
  void compileExpr(const Expr& e);
  void compileVarRef(const Expr& e);
  void compileFieldAccess(const Expr& e);
  void compileAssign(const Expr& e);
  void compileIncDec(const Expr& e);
  void compileCall(const Expr& e);
  /// Store the top of stack into the lvalue `target` (jvm::Interpreter::
  /// storeTo: qualified targets evaluate their object/array/index after
  /// the value).
  void compileStoreTo(const Expr& target);
  /// Implicit narrowing of a compound-assignment or ++/-- result to the
  /// target local's declared kind.
  void emitLocalNarrowing(const Expr& target, int line);

  /// Inline copies of the finally blocks of try frames deeper than
  /// `downToDepth` (for return/break/continue leaving them). Each copy runs
  /// outside the try ranges it leaves, as the tree runs it after the try
  /// statement completes.
  void emitFinallyCopies(std::size_t downToDepth);

  ProgramCompiler& owner_;
  const ClassDecl& cls_;
  bool isStatic_;
  int thisOffset_ = 0;
  Chunk chunk_;
  std::uint32_t pendingSteps_ = 0;
  std::vector<ValKind> slotKinds_;  // by resolver slot

  struct LoopContext {
    std::vector<int> breakJumps;
    std::vector<int> continueJumps;
    bool isLoop = true;         // false for switch (breakable only)
    std::size_t tryDepth;       // try frames live at loop entry
  };
  std::vector<LoopContext> loops_;
  /// One entry per enclosing try block (and catch body, whose return/break
  /// must run the same finally): the finally to inline on early exits and
  /// the pc ranges of finally copies emitted inside, which the try's
  /// exception entries must not cover.
  struct TryFrame {
    const Stmt* finallyBlock = nullptr;
    std::vector<std::pair<int, int>> holes;
  };
  std::vector<TryFrame> tries_;
};

class ProgramCompiler {
 public:
  ProgramCompiler(const Program& program, const CompileOptions& options)
      : program_(program), options_(options) {}

  CompiledProgram run();

  int nameIdx(std::string_view s) {
    const auto it = nameIndex_.find(s);
    if (it != nameIndex_.end()) return it->second;
    out_.names.emplace_back(s);
    const int idx = static_cast<int>(out_.names.size() - 1);
    nameIndex_.emplace(s, idx);
    return idx;
  }
  int intIdx(std::int64_t v) {
    out_.intPool.push_back(v);
    return static_cast<int>(out_.intPool.size() - 1);
  }
  int numIdx(double v) {
    out_.numPool.push_back(v);
    return static_cast<int>(out_.numPool.size() - 1);
  }

  /// The resolution substrate (available once run() has started).
  const jlang::Resolution& res() const { return *res_; }

 private:
  const Program& program_;
  CompileOptions options_;
  CompiledProgram out_;
  StringMap<int> nameIndex_;
  std::shared_ptr<const jlang::Resolution> res_;
};

bool hasStaticInitializers(const ClassDecl& cls) {
  for (const auto& f : cls.fields) {
    if (f.isStatic && f.init) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------

MethodCompiler::MethodCompiler(ProgramCompiler& owner, const ClassDecl& cls,
                               bool isStatic)
    : owner_(owner),
      cls_(cls),
      isStatic_(isStatic),
      thisOffset_(isStatic ? 0 : 1) {}

void MethodCompiler::emitError(const std::string& message, int line) {
  emit(Op::kThrowError, owner_.nameIdx(message), 0, 0, line);
}

Chunk MethodCompiler::compileMethod(const MethodDecl& m) {
  chunk_ = Chunk{};
  chunk_.qualifiedName = concat(cls_.name, ".", m.name);
  chunk_.methodId = m.methodId;
  chunk_.isStatic = m.isStatic;
  if (!m.isStatic) chunk_.paramKinds.push_back(ValKind::kRef);
  for (std::size_t i = 0; i < m.params.size(); ++i) {
    const ValKind k = jvm::kindOfType(m.params[i].type);
    chunk_.paramKinds.push_back(k);
    setKind(static_cast<std::int32_t>(i), k);
  }
  chunk_.numSlots = slotOf(m.numSlots);
  if (m.body) compileStmt(*m.body);  // the body block steps, as execStmt
  emit(Op::kReturnVoid, 0, 0, 0, m.line);
  return std::move(chunk_);
}

Chunk MethodCompiler::compileFieldInits(const ClassDecl& cls,
                                        bool staticFields) {
  const jlang::ResolvedClass& rc =
      owner_.res().classes[static_cast<std::size_t>(cls.classId)];
  chunk_ = Chunk{};
  chunk_.qualifiedName =
      concat(cls.name, (staticFields ? ".<clinit>" : ".<initfields>"));
  chunk_.methodId = staticFields ? rc.clinitId : rc.initFieldsId;
  chunk_.isStatic = staticFields;
  if (!staticFields) chunk_.paramKinds.push_back(ValKind::kRef);
  chunk_.numSlots = thisOffset_;
  // Interpreter::ensureClassInit / constructResolved: coerce to the
  // declared kind, box static wrappers, charge the store.
  for (const auto& f : cls.fields) {
    if (f.isStatic != staticFields || !f.init) continue;
    compileExpr(*f.init);
    const ValKind k = jvm::kindOfType(f.type);
    if (k != ValKind::kRef) {
      emit(Op::kCast, static_cast<int>(k), /*implicit=*/1, 0, f.line);
    }
    // f.slot was assigned by the resolver: the global flat-statics slot
    // for statics, the layout offset for instance fields.
    if (staticFields) {
      if (jlang::isWrapperClassName(f.type.className)) {
        emit(Op::kBox, owner_.nameIdx(f.type.className), 0, 0, f.line);
      }
      emit(Op::kPutStaticSlot, f.slot, cls.classId,
           owner_.nameIdx(concat(cls.name, ".", f.name)), f.line);
    } else {
      emit(Op::kPutThisFieldSlot, f.slot, 0, 0, f.line);
    }
  }
  emit(Op::kReturnVoid);
  return std::move(chunk_);
}

// ----------------------------------------------------------------- stmts

void MethodCompiler::compileStmt(const Stmt& s) {
  ++pendingSteps_;
  switch (s.kind) {
    case StmtKind::kBlock:
      for (const auto& st : s.body) compileStmt(*st);
      return;
    case StmtKind::kVarDecl: compileVarDecl(s); return;
    case StmtKind::kExprStmt:
      compileExpr(*s.expr);
      emit(Op::kPop, 0, 0, 0, s.line);
      return;
    case StmtKind::kIf: compileIf(s); return;
    case StmtKind::kWhile: compileWhile(s); return;
    case StmtKind::kFor: compileFor(s); return;
    case StmtKind::kReturn: compileReturn(s); return;
    case StmtKind::kThrow:
      compileExpr(*s.expr);
      emit(Op::kThrow, 0, 0, 0, s.line);
      return;
    case StmtKind::kTry: compileTry(s); return;
    case StmtKind::kSwitch: compileSwitch(s); return;
    case StmtKind::kBreak:
    case StmtKind::kContinue: compileJumpOut(s); return;
  }
  throw Error("unhandled statement kind in compiler");
}

void MethodCompiler::compileJumpOut(const Stmt& s) {
  // break: the nearest loop or switch; continue: the nearest *loop*.
  LoopContext* target = nullptr;
  for (auto it = loops_.rbegin(); it != loops_.rend(); ++it) {
    if (s.kind == StmtKind::kBreak || it->isLoop) {
      target = &*it;
      break;
    }
  }
  if (target == nullptr) {
    emitError("break/continue escaped method " + chunk_.qualifiedName,
              s.line);
    return;
  }
  emitFinallyCopies(target->tryDepth);
  const int jump = emit(Op::kJump, 0, 0, 0, s.line);
  (s.kind == StmtKind::kBreak ? target->breakJumps : target->continueJumps)
      .push_back(jump);
}

void MethodCompiler::compileVarDecl(const Stmt& s) {
  const ValKind k = jvm::kindOfType(s.declType);
  if (s.init) {
    compileExpr(*s.init);
  } else {
    emit(Op::kPushDefault, static_cast<int>(k), 0, 0, s.line);
  }
  // A wrapper-class declaration with a primitive initializer autoboxes
  // (kBox leaves references alone).
  if (jlang::isWrapperClassName(s.declType.className)) {
    emit(Op::kBox, owner_.nameIdx(s.declType.className), 0, 0, s.line);
  }
  setKind(s.declSlot, k);
  emit(Op::kStoreDecl, slotOf(s.declSlot), static_cast<int>(k), 0, s.line);
}

void MethodCompiler::compileIf(const Stmt& s) {
  emitCharge(energy::Op::kBranch, s.line);
  compileExpr(*s.cond);
  const int jumpElse = emit(Op::kJumpIfFalse, 0, 0, 0, s.line);
  compileStmt(*s.thenStmt);
  if (s.elseStmt) {
    const int jumpEnd = emit(Op::kJump);
    patch(jumpElse, label());
    compileStmt(*s.elseStmt);
    patch(jumpEnd, label());
  } else {
    patch(jumpElse, label());
  }
}

void MethodCompiler::compileWhile(const Stmt& s) {
  const int start = label();
  emitCharge(energy::Op::kBranch, s.line);
  compileExpr(*s.cond);
  const int exitJump = emit(Op::kJumpIfFalse, 0, 0, 0, s.line);
  emitCharge(energy::Op::kLoopIter, s.line);
  loops_.push_back(LoopContext{{}, {}, true, tries_.size()});
  compileStmt(*s.thenStmt);
  LoopContext ctx = std::move(loops_.back());
  loops_.pop_back();
  for (int j : ctx.continueJumps) patch(j, start);
  emit(Op::kJump, start);
  const int end = label();
  patch(exitJump, end);
  for (int j : ctx.breakJumps) patch(j, end);
}

void MethodCompiler::compileFor(const Stmt& s) {
  for (const auto& init : s.body) compileStmt(*init);
  const int start = label();
  int exitJump = -1;
  if (s.cond) {
    emitCharge(energy::Op::kBranch, s.line);
    compileExpr(*s.cond);
    exitJump = emit(Op::kJumpIfFalse, 0, 0, 0, s.line);
  }
  emitCharge(energy::Op::kLoopIter, s.line);
  loops_.push_back(LoopContext{{}, {}, true, tries_.size()});
  compileStmt(*s.thenStmt);
  LoopContext ctx = std::move(loops_.back());
  loops_.pop_back();
  if (!ctx.continueJumps.empty()) {
    const int update = label();
    for (int j : ctx.continueJumps) patch(j, update);
  }
  // Updates are evaluated as bare expressions (no statement step).
  for (const auto& u : s.update) {
    compileExpr(*u);
    emit(Op::kPop);
  }
  emit(Op::kJump, start);
  const int end = label();
  if (exitJump >= 0) patch(exitJump, end);
  for (int j : ctx.breakJumps) patch(j, end);
}

void MethodCompiler::emitFinallyCopies(std::size_t downToDepth) {
  for (std::size_t i = tries_.size(); i > downToDepth; --i) {
    const Stmt* fin = tries_[i - 1].finallyBlock;
    if (fin == nullptr) continue;
    // The copy runs after try i-1 and every deeper one completed: compile
    // it with only the frames outside them live (an early exit inside it
    // leaves those), and keep it out of their exception ranges.
    std::vector<TryFrame> left(std::make_move_iterator(tries_.begin() + i - 1),
                               std::make_move_iterator(tries_.end()));
    tries_.resize(i - 1);
    const int start = here();
    compileStmt(*fin);
    const int end = here();
    for (TryFrame& t : left) {
      t.holes.emplace_back(start, end);
      tries_.push_back(std::move(t));
    }
  }
}

void MethodCompiler::compileReturn(const Stmt& s) {
  bool crossesFinally = false;
  for (const TryFrame& t : tries_) crossesFinally |= t.finallyBlock != nullptr;
  if (!crossesFinally) {
    if (s.expr) {
      compileExpr(*s.expr);
      emit(Op::kReturnValue, 0, 0, 0, s.line);
    } else {
      emit(Op::kReturnVoid, 0, 0, 0, s.line);
    }
    return;
  }
  // Return crossing finally frames: stash the value, run the finallys.
  if (s.expr) {
    compileExpr(*s.expr);
    const int temp = newTemp();
    emit(Op::kStoreTemp, temp, 0, 0, s.line);
    emitFinallyCopies(0);
    emit(Op::kLoadTemp, temp, 0, 0, s.line);
    emit(Op::kReturnValue, 0, 0, 0, s.line);
  } else {
    emitFinallyCopies(0);
    emit(Op::kReturnVoid, 0, 0, 0, s.line);
  }
}

void MethodCompiler::compileTry(const Stmt& s) {
  emitCharge(energy::Op::kTryEnter, s.line);
  const Stmt* finallyBlock = s.finallyBlock;
  tries_.push_back(TryFrame{finallyBlock, {}});
  const int tryStart = here();
  compileStmt(*s.tryBlock);
  const int tryEnd = here();
  const TryFrame frame = std::move(tries_.back());
  tries_.pop_back();

  // The try block's pc range minus the finally copies inlined into it.
  std::vector<std::pair<int, int>> ranges;
  int from = tryStart;
  for (const auto& [holeStart, holeEnd] : frame.holes) {
    if (holeStart > from) ranges.emplace_back(from, holeStart);
    from = holeEnd;
  }
  if (tryEnd > from) ranges.emplace_back(from, tryEnd);
  const auto cover = [&](int handler, std::int32_t classNameIdx, int slot) {
    for (const auto& [start, end] : ranges) {
      chunk_.handlers.push_back(
          ExceptionEntry{start, end, handler, classNameIdx, slot});
    }
  };

  std::vector<int> endJumps;
  if (finallyBlock != nullptr) compileStmt(*finallyBlock);
  endJumps.push_back(emit(Op::kJump));

  // Catch handlers. As in the tree interpreter, an exception escaping a
  // catch body skips the finally; return/break/continue out of one run it.
  for (const auto& clause : s.catches) {
    cover(label(), owner_.nameIdx(clause.exceptionClass),
          slotOf(clause.slot));
    tries_.push_back(TryFrame{finallyBlock, {}});
    compileStmt(*clause.body);
    tries_.pop_back();
    if (finallyBlock != nullptr) compileStmt(*finallyBlock);
    endJumps.push_back(emit(Op::kJump));
  }

  // Uncaught: run the finally, rethrow.
  if (finallyBlock != nullptr) {
    const int temp = newTemp();
    cover(label(), -1, temp);
    compileStmt(*finallyBlock);
    emit(Op::kRethrow, temp);
  }

  const int end = label();
  for (int j : endJumps) patch(j, end);
}

void MethodCompiler::compileSwitch(const Stmt& s) {
  emitCharge(energy::Op::kBranch, s.line);
  compileExpr(*s.cond);
  const int selSlot = newTemp();
  emit(Op::kStoreTemp, selSlot, 0, 0, s.line);

  // Dispatch: compare against each case label in order.
  std::vector<int> caseJumps(s.cases.size(), -1);
  int defaultIdx = -1;
  for (std::size_t i = 0; i < s.cases.size(); ++i) {
    if (s.cases[i].isDefault) {
      defaultIdx = static_cast<int>(i);
      continue;
    }
    caseJumps[i] = emit(Op::kCaseJump, 0, owner_.intIdx(s.cases[i].value),
                        selSlot, s.line);
  }
  const int dispatchEndJump = emit(Op::kJump);

  loops_.push_back(LoopContext{{}, {}, false, tries_.size()});
  std::vector<int> bodyStart(s.cases.size(), 0);
  for (std::size_t i = 0; i < s.cases.size(); ++i) {
    bodyStart[i] = label();
    for (const auto& st : s.cases[i].body) compileStmt(*st);
  }
  LoopContext ctx = std::move(loops_.back());
  loops_.pop_back();
  const int end = label();

  for (std::size_t i = 0; i < s.cases.size(); ++i) {
    if (caseJumps[i] >= 0) patch(caseJumps[i], bodyStart[i]);
  }
  patch(dispatchEndJump,
        defaultIdx >= 0 ? bodyStart[static_cast<std::size_t>(defaultIdx)]
                        : end);
  for (int j : ctx.breakJumps) patch(j, end);
}

// ----------------------------------------------------------------- exprs

void MethodCompiler::compileVarRef(const Expr& e) {
  switch (e.nameRef) {
    case NameRef::kThis:
      emit(Op::kLoadThis, 0, isStatic_ ? 1 : 0, 0, e.line);
      return;
    case NameRef::kLocal:
      emit(Op::kLoad, slotOf(e.slot), 0, 0, e.line);
      return;
    case NameRef::kThisField:
      emit(Op::kGetThisFieldSlot, e.slot, 0, 0, e.line);
      return;
    case NameRef::kStaticSlot:
      emit(Op::kGetStaticSlot, e.slot, e.classId,
           owner_.nameIdx(concat(cls_.name, ".", e.strValue)), e.line);
      return;
    default:
      emitError(concat("undefined name '", e.strValue, "' at line ",
                       std::to_string(e.line)),
                e.line);
      return;
  }
}

void MethodCompiler::compileFieldAccess(const Expr& e) {
  const std::string qualified = concat(e.a->strValue, ".", e.strValue);
  switch (e.nameRef) {
    case NameRef::kBuiltinStatic:
      emit(Op::kGetStatic, owner_.nameIdx(qualified), 0, 0, e.line);
      return;
    case NameRef::kStaticSlot:
      // The receiver names a class and is never evaluated.
      emit(Op::kGetStaticSlot, e.slot, e.classId, owner_.nameIdx(qualified),
           e.line);
      return;
    default:
      compileExpr(*e.a);
      emit(Op::kGetFieldCached, owner_.nameIdx(e.strValue), e.cacheSlot, 0,
           e.line);
      return;
  }
}

void MethodCompiler::compileStoreTo(const Expr& target) {
  // Precondition: the value to store is on top of the stack.
  switch (target.kind) {
    case ExprKind::kVarRef:
      switch (target.nameRef) {
        case NameRef::kLocal:
          emit(Op::kStore, slotOf(target.slot),
               static_cast<int>(kindOf(target.slot)), 0, target.line);
          return;
        case NameRef::kThisField:
          emit(Op::kPutThisFieldSlot, target.slot, 0, 0, target.line);
          return;
        case NameRef::kStaticSlot:
          emit(Op::kPutStaticSlot, target.slot, target.classId,
               owner_.nameIdx(concat(cls_.name, ".", target.strValue)),
               target.line);
          return;
        default:  // `this` and unresolved names are not assignable
          emitError(concat("assignment to undefined name '", target.strValue,
                           "' at line ", std::to_string(target.line)),
                    target.line);
          return;
      }
    case ExprKind::kFieldAccess:
      if (target.nameRef == NameRef::kBuiltinStatic ||
          target.nameRef == NameRef::kStaticSlot) {
        // Unlike reads, stores never consult the builtin statics.
        emit(Op::kPutStaticSlot, target.slot, target.classId,
             owner_.nameIdx(concat(target.a->strValue, ".", target.strValue)),
             target.line);
        return;
      }
      compileExpr(*target.a);
      emit(Op::kPutFieldCached, owner_.nameIdx(target.strValue),
           target.cacheSlot, 0, target.line);
      return;
    case ExprKind::kArrayIndex:
      compileExpr(*target.a);
      compileExpr(*target.b);
      emit(Op::kArraySet, 0, 0, 0, target.line);
      return;
    default:
      emitError("invalid assignment target at line " +
                    std::to_string(target.line),
                target.line);
      return;
  }
}

void MethodCompiler::emitLocalNarrowing(const Expr& target, int line) {
  if (target.kind != ExprKind::kVarRef || target.nameRef != NameRef::kLocal) {
    return;
  }
  const ValKind k = kindOf(target.slot);
  if (k != ValKind::kRef) {
    emit(Op::kCast, static_cast<int>(k), /*implicit=*/1, 0, line);
  }
}

void MethodCompiler::compileAssign(const Expr& e) {
  if (e.assignOp == AssignOp::kSet) {
    compileExpr(*e.b);
  } else {
    BinOp op;
    switch (e.assignOp) {
      case AssignOp::kAdd: op = BinOp::kAdd; break;
      case AssignOp::kSub: op = BinOp::kSub; break;
      case AssignOp::kMul: op = BinOp::kMul; break;
      case AssignOp::kDiv: op = BinOp::kDiv; break;
      case AssignOp::kMod: op = BinOp::kMod; break;
      default: throw Error("bad compound assignment");
    }
    compileExpr(*e.a);  // current value
    compileExpr(*e.b);
    emit(Op::kBinary, static_cast<int>(op), 0, 0, e.line);
    emitLocalNarrowing(*e.a, e.line);
  }
  emit(Op::kDup);  // assignment yields its value
  compileStoreTo(*e.a);
}

void MethodCompiler::compileIncDec(const Expr& e) {
  const bool inc = e.unOp == UnOp::kPreInc || e.unOp == UnOp::kPostInc;
  const bool pre = e.unOp == UnOp::kPreInc || e.unOp == UnOp::kPreDec;
  compileExpr(*e.a);  // old value
  if (!pre) emit(Op::kDup);  // keep old as the expression result
  emit(Op::kIncDec, static_cast<int>(inc ? BinOp::kAdd : BinOp::kSub), 0, 0,
       e.line);
  if (pre) emit(Op::kDup);  // new value is the expression result
  compileStoreTo(*e.a);
}

void MethodCompiler::compileCall(const Expr& e) {
  const auto compileArgs = [&] {
    for (const auto& arg : e.args) compileExpr(*arg);
  };
  const auto argc = static_cast<std::int32_t>(e.args.size());
  switch (e.callKind) {
    case CallKind::kPrint: {
      const bool hasArg = !e.args.empty();
      if (hasArg) compileExpr(*e.args[0]);
      emit(Op::kPrint, e.slot == 1 ? 1 : 0, hasArg ? 1 : 0, 0, e.line);
      return;
    }
    case CallKind::kBuiltinStatic:
      compileArgs();
      emit(Op::kCallStatic, owner_.nameIdx(e.a->strValue),
           owner_.nameIdx(e.strValue), argc, e.line);
      return;
    case CallKind::kStaticMethod: {
      // The tree initializes the target class before evaluating the
      // arguments. That order is observable only when the class has
      // static initializers and is not the running class (whose
      // initialization has already started).
      if (e.classId != cls_.classId && hasStaticInitializers(*e.targetClass)) {
        emit(Op::kInitClass, e.classId, 0, 0, e.line);
      }
      compileArgs();
      const jlang::ResolvedClass& rc =
          owner_.res().classes[static_cast<std::size_t>(e.classId)];
      emit(Op::kCallStaticResolved, e.classId,
           rc.methodOrdinal(e.targetMethod), argc, e.line);
      return;
    }
    case CallKind::kStaticMissing:
      // Fails before evaluating arguments or initializing the class.
      emitError(concat("unknown method ", e.a->strValue, ".", e.strValue,
                       " at line ", std::to_string(e.line)),
                e.line);
      return;
    case CallKind::kSelfMethod:
      compileArgs();
      if (isStatic_ && !e.targetMethod->isStatic) {
        emitError(concat("instance method ", e.strValue,
                         " called from static context at line ",
                         std::to_string(e.line)),
                  e.line);
        return;
      }
      emit(Op::kCallSelfResolved,
           owner_.res()
               .classes[static_cast<std::size_t>(cls_.classId)]
               .methodOrdinal(e.targetMethod),
           argc, e.targetMethod->isStatic ? 0 : 1, e.line);
      return;
    case CallKind::kSelfMissing:
      emitError(concat("unknown method ", e.strValue, " at line ",
                       std::to_string(e.line)),
                e.line);
      return;
    case CallKind::kInstanceCached:
      compileExpr(*e.a);
      compileArgs();
      emit(Op::kCallVirtualCached, owner_.nameIdx(e.strValue), argc,
           e.cacheSlot, e.line);
      return;
    default:
      emitError(concat("unresolved call '", e.strValue, "' at line ",
                       std::to_string(e.line)),
                e.line);
      return;
  }
}

void MethodCompiler::compileExpr(const Expr& e) {
  ++pendingSteps_;
  switch (e.kind) {
    case ExprKind::kIntLit:
      emit(Op::kConstInt, owner_.intIdx(e.intValue), 0, 0, e.line);
      return;
    case ExprKind::kLongLit:
      emit(Op::kConstLong, owner_.intIdx(e.intValue), 0, 0, e.line);
      return;
    case ExprKind::kFloatLit:
      emit(Op::kConstFloat, owner_.numIdx(e.floatValue), e.scientific ? 0 : 1,
           0, e.line);
      return;
    case ExprKind::kDoubleLit:
      emit(Op::kConstDouble, owner_.numIdx(e.floatValue),
           e.scientific ? 0 : 1, 0, e.line);
      return;
    case ExprKind::kCharLit:
      emit(Op::kConstChar, static_cast<int>(e.intValue), 0, 0, e.line);
      return;
    case ExprKind::kStringLit:
      emit(Op::kConstStr, owner_.nameIdx(e.strValue), 0, 0, e.line);
      return;
    case ExprKind::kBoolLit:
      emit(Op::kConstBool, e.intValue != 0 ? 1 : 0, 0, 0, e.line);
      return;
    case ExprKind::kNullLit:
      emit(Op::kConstNull, 0, 0, 0, e.line);
      return;
    case ExprKind::kVarRef: compileVarRef(e); return;
    case ExprKind::kFieldAccess: compileFieldAccess(e); return;
    case ExprKind::kArrayIndex:
      compileExpr(*e.a);
      compileExpr(*e.b);
      emit(Op::kArrayGet, 0, 0, 0, e.line);
      return;
    case ExprKind::kBinary: {
      if (e.binOp == BinOp::kAndAnd || e.binOp == BinOp::kOrOr) {
        // Charge the branch, then short-circuit on the lhs, leaving it as
        // the result when the jump is taken.
        emitCharge(energy::Op::kBranch, e.line);
        compileExpr(*e.a);
        const int jump =
            emit(e.binOp == BinOp::kAndAnd ? Op::kJumpIfFalse
                                           : Op::kJumpIfTrue,
                 0, /*keep=*/1, 0, e.line);
        compileExpr(*e.b);
        patch(jump, label());
        return;
      }
      compileExpr(*e.a);
      compileExpr(*e.b);
      emit(Op::kBinary, static_cast<int>(e.binOp), 0, 0, e.line);
      return;
    }
    case ExprKind::kUnary:
      switch (e.unOp) {
        case UnOp::kNeg:
          compileExpr(*e.a);
          emit(Op::kNeg, 0, 0, 0, e.line);
          return;
        case UnOp::kNot:
          compileExpr(*e.a);
          emit(Op::kNot, 0, 0, 0, e.line);
          return;
        case UnOp::kBitNot:
          compileExpr(*e.a);
          emit(Op::kBitNot, 0, 0, 0, e.line);
          return;
        default:
          compileIncDec(e);
          return;
      }
    case ExprKind::kAssign: compileAssign(e); return;
    case ExprKind::kTernary: {
      emitCharge(energy::Op::kTernary, e.line);
      compileExpr(*e.a);
      const int jumpElse = emit(Op::kJumpIfFalse, 0, 0, 0, e.line);
      compileExpr(*e.b);
      const int jumpEnd = emit(Op::kJump);
      patch(jumpElse, label());
      compileExpr(*e.c);
      patch(jumpEnd, label());
      return;
    }
    case ExprKind::kCall: compileCall(e); return;
    case ExprKind::kNew: {
      for (const auto& arg : e.args) compileExpr(*arg);
      // c = classId+1 when the resolver bound the class (program class,
      // not shadowed by a builtin) — the VM skips the builtin probe.
      const bool bound = e.callKind == CallKind::kConstruct && e.classId >= 0;
      emit(Op::kNewObject, owner_.nameIdx(e.strValue),
           static_cast<int>(e.args.size()), bound ? e.classId + 1 : 0,
           e.line);
      return;
    }
    case ExprKind::kNewArray: {
      for (const auto& dim : e.args) compileExpr(*dim);
      jlang::TypeRef leaf = e.type;
      leaf.arrayDims = 0;
      ValKind leafKind = jvm::kindOfType(leaf);
      if (e.type.arrayDims > 0) leafKind = ValKind::kRef;
      emit(Op::kNewArray, static_cast<int>(e.args.size()),
           static_cast<int>(leafKind), 0, e.line);
      return;
    }
    case ExprKind::kCast: {
      compileExpr(*e.a);
      const ValKind k = jvm::kindOfType(e.type);
      if (e.type.prim != Prim::kClass && e.type.arrayDims == 0) {
        emit(Op::kCast, static_cast<int>(k), 0, 0, e.line);
      }
      return;
    }
  }
  throw Error("unhandled expression kind in compiler");
}

// ------------------------------------------------------------ post passes
//
// Everything below runs on finished chunks: a max-stack dataflow (always)
// and the superinstruction peephole (unless disabled via CompileOptions).

/// Operand-stack effect of one instruction (pushes - pops). Terminators
/// (returns/throw) end propagation, so their effect is irrelevant.
int stackEffect(const Instr& in) {
  switch (in.op) {
    case Op::kConstInt: case Op::kConstLong: case Op::kConstFloat:
    case Op::kConstDouble: case Op::kConstStr: case Op::kConstChar:
    case Op::kConstBool: case Op::kConstNull: case Op::kPushDefault:
    case Op::kLoad: case Op::kLoadThis: case Op::kLoadTemp:
    case Op::kGetStatic: case Op::kGetThisFieldSlot: case Op::kGetStaticSlot:
    case Op::kDup:
      return 1;
    case Op::kStore: case Op::kStoreDecl: case Op::kStoreTemp:
    case Op::kPutThisFieldSlot: case Op::kPutStaticSlot:
    case Op::kJumpIfFalse: case Op::kJumpIfTrue:
    case Op::kBinary: case Op::kArrayGet: case Op::kPop:
    case Op::kReturnValue: case Op::kThrow:
      return -1;
    case Op::kPutFieldCached:
      return -2;
    case Op::kArraySet:
      return -3;
    case Op::kNewArray:
      return 1 - in.a;
    case Op::kNewObject:
      return 1 - in.b;
    case Op::kCallStatic: case Op::kCallStaticResolved:
      return 1 - in.c;
    case Op::kCallSelfResolved:
      return 1 - in.b;  // argc in b; `this` comes from slot 0, not the stack
    case Op::kCallVirtualCached:
      return -in.b;  // argc args + receiver popped, result pushed
    case Op::kPrint:
      return in.b != 0 ? 0 : 1;  // pops the argument if present, pushes null
    default:
      // kGetFieldCached (obj -> value), unary ops, kIncDec, kCast, kBox,
      // kJump, kCaseJump, kCharge, kStep, kInitClass, the throwing ops and
      // kReturnVoid: net zero. The peephole runs after this pass, so
      // superinstructions never appear here.
      return 0;
  }
}

bool isTerminator(Op op) {
  return op == Op::kReturnValue || op == Op::kReturnVoid ||
         op == Op::kThrow || op == Op::kRethrow || op == Op::kThrowError ||
         op == Op::kJump;
}

/// Worklist dataflow computing the worst-case operand-stack depth. Runs on
/// pre-fusion code; fused instructions never exceed the depth of the runs
/// they replace (their handlers keep intermediates in C locals).
void computeMaxStack(Chunk& chunk) {
  const auto size = chunk.code.size();
  std::vector<int> depthAt(size, -1);
  std::vector<std::size_t> work;
  int maxDepth = 0;
  const auto enqueue = [&](std::size_t pc, int depth) {
    if (pc >= size) return;
    if (depthAt[pc] >= depth) return;
    depthAt[pc] = depth;
    if (depth > maxDepth) maxDepth = depth;
    work.push_back(pc);
  };
  if (size > 0) enqueue(0, 0);
  for (const auto& h : chunk.handlers) {
    // Handler entry: stack cleared, exception either stored to a slot or
    // left as the single stack entry.
    enqueue(static_cast<std::size_t>(h.handler), h.slot >= 0 ? 0 : 1);
  }
  while (!work.empty()) {
    const std::size_t pc = work.back();
    work.pop_back();
    const Instr& in = chunk.code[pc];
    const int after = depthAt[pc] + stackEffect(in);
    if (after > maxDepth) maxDepth = after;
    if (in.op == Op::kJump || in.op == Op::kCaseJump) {
      enqueue(static_cast<std::size_t>(in.a), after);
    } else if (in.op == Op::kJumpIfFalse || in.op == Op::kJumpIfTrue) {
      // A short-circuit jump keeps the tested value on the taken path.
      enqueue(static_cast<std::size_t>(in.a), in.b != 0 ? after + 1 : after);
    }
    if (!isTerminator(in.op)) enqueue(pc + 1, after);
  }
  chunk.maxStack = maxDepth;
}

constexpr std::int32_t kNoKindEnc = 15;  // 4-bit "no store coercion" marker

bool isCmp(BinOp op) {
  return op == BinOp::kLt || op == BinOp::kGt || op == BinOp::kLe ||
         op == BinOp::kGe || op == BinOp::kEq || op == BinOp::kNe;
}

/// Try to fuse the instruction run starting at `pc` into one
/// superinstruction. Interior positions must not be jump targets or
/// exception-table boundaries (`barrier`); operands must fit the packing
/// documented in code.hpp. Returns the run length (1 = no fusion).
std::size_t matchSuper(const std::vector<Instr>& c, std::size_t pc,
                       const std::vector<char>& barrier, Instr* out) {
  const std::size_t size = c.size();
  // A fusion candidate of length k needs pc+k <= size and no barrier on
  // any interior pc (the run's first pc may itself be a target).
  const auto runOk = [&](std::size_t k) {
    if (pc + k > size) return false;
    for (std::size_t i = 1; i < k; ++i) {
      if (barrier[pc + i]) return false;
    }
    return true;
  };
  const auto op = [&](std::size_t i) { return c[pc + i].op; };
  const auto in = [&](std::size_t i) -> const Instr& { return c[pc + i]; };
  const auto implicitCast = [&](std::size_t i) {
    return op(i) == Op::kCast && in(i).b == 1;
  };
  const auto storeEnc = [](const Instr& st) {
    return st.b < 0 ? kNoKindEnc : st.b;
  };
  const auto make = [&](Op sop, std::int32_t a, std::int32_t b,
                        std::int32_t cOperand, std::size_t len) {
    *out = Instr{sop, a, b, cOperand, in(0).line};
    out->n = 0;
    for (std::size_t i = 0; i < len; ++i) out->n += in(i).n;
    return len;
  };

  switch (op(0)) {
    case Op::kLoad: {
      const std::int32_t s1 = in(0).a;
      // [kLoad kDup kIncDec kStore kPop (kJump)] — post-inc/dec statement
      // on one local; with the trailing kJump it is the canonical
      // counted-loop latch (kIncDecJump).
      if (runOk(5) && op(1) == Op::kDup && op(2) == Op::kIncDec &&
          op(3) == Op::kStore && in(3).a == s1 && op(4) == Op::kPop) {
        const std::int32_t operands = in(2).a | storeEnc(in(3)) << 8;
        if (runOk(6) && op(5) == Op::kJump) {
          return make(Op::kIncDecJump, s1, operands, in(5).a, 6);
        }
        return make(Op::kIncDecLocalStmt, s1, operands, 0, 5);
      }
      // [kLoad kConstInt kBinary (kCast) kDup kStore kPop] — local
      // assignment statement `s2 = s1 <op> const`.
      for (std::size_t len : {std::size_t{7}, std::size_t{6}}) {
        const bool cast = len == 7;
        if (!runOk(len)) continue;
        std::size_t i = 1;
        if (op(i) != Op::kConstInt) break;
        const std::int32_t pool = in(i).a;
        ++i;
        if (op(i) != Op::kBinary) break;
        const std::int32_t bop = in(i).a;
        ++i;
        std::int32_t castEnc = -1;
        if (cast) {
          if (!implicitCast(i)) continue;
          castEnc = in(i).a;
          ++i;
        }
        if (op(i) != Op::kDup) break;
        ++i;
        if (op(i) != Op::kStore) break;
        const std::int32_t s2 = in(i).a;
        const std::int32_t se = storeEnc(in(i));
        ++i;
        if (op(i) != Op::kPop) break;
        if (s1 >= (1 << 10) || s2 >= (1 << 10) || bop >= 32 || se >= 16) break;
        return make(Op::kLoadConstBinStore, pool,
                    s1 | s2 << 10 | bop << 20 | se << 25, castEnc, len);
      }
      // [kLoad kLoad kBinary kReturnValue] — e.g. `return a + b;`.
      if (runOk(4) && op(1) == Op::kLoad && op(2) == Op::kBinary &&
          op(3) == Op::kReturnValue && in(1).a < (1 << 20)) {
        return make(Op::kLoadLoadBinaryReturn, s1,
                    in(1).a | in(2).a << 20, 0, 4);
      }
      // [kLoad kLoad kConstInt kBinary kBinary (kCast) kDup kStore kPop] —
      // the accumulate statement `s1 = s1 <op2> (s2 <op1> const)`, e.g.
      // `acc = acc + (i & 7);`. Must precede the 4-long prefix match below.
      for (std::size_t len : {std::size_t{9}, std::size_t{8}}) {
        const bool cast = len == 9;
        if (!runOk(len)) continue;
        std::size_t i = 1;
        if (op(i) != Op::kLoad) break;
        const std::int32_t s2 = in(i).a;
        ++i;
        if (op(i) != Op::kConstInt) break;
        const std::int32_t pool = in(i).a;
        ++i;
        if (op(i) != Op::kBinary) break;
        const std::int32_t bop1 = in(i).a;
        ++i;
        if (op(i) != Op::kBinary) break;
        const std::int32_t bop2 = in(i).a;
        ++i;
        std::int32_t castEnc = -1;
        if (cast) {
          if (!implicitCast(i)) continue;
          castEnc = in(i).a;
          ++i;
        }
        if (op(i) != Op::kDup) break;
        ++i;
        if (op(i) != Op::kStore || in(i).a != s1) break;
        const std::int32_t se = storeEnc(in(i));
        ++i;
        if (op(i) != Op::kPop) break;
        if (s1 >= (1 << 10) || s2 >= (1 << 10) || bop1 >= 32 ||
            bop2 >= 32 || se >= 16 || castEnc >= 16) {
          break;
        }
        const std::int32_t castE = castEnc < 0 ? kNoKindEnc : castEnc;
        return make(Op::kAccumConstStmt, pool,
                    s1 | s2 << 10 | bop1 << 20 | bop2 << 25,
                    se | castE << 4, len);
      }
      // [kLoad kLoad kConstInt kBinary] — e.g. `a <op1> (b <op2> const)`
      // operand shapes; the compare-and-branch variants above match first.
      if (runOk(4) && op(1) == Op::kLoad && op(2) == Op::kConstInt &&
          op(3) == Op::kBinary && s1 < (1 << 10) && in(1).a < (1 << 10)) {
        return make(Op::kLoadLoadConstBinary, in(2).a,
                    s1 | in(1).a << 10 | in(3).a << 20, 0, 4);
      }
      // [kLoad kLoad kCall*] — argument loads feeding a resolved call
      // site. The call's own operands ride through unchanged in a and c;
      // argc (always < 1024) shares b with the two slots.
      if (runOk(3) && op(1) == Op::kLoad &&
          (op(2) == Op::kCallSelfResolved ||
           op(2) == Op::kCallVirtualCached) &&
          s1 < (1 << 10) && in(1).a < (1 << 10) && in(2).b < (1 << 10)) {
        return make(op(2) == Op::kCallSelfResolved ? Op::kLoadLoadCallSelf
                                                   : Op::kLoadLoadCallVirt,
                    in(2).a, in(2).b | s1 << 10 | in(1).a << 20, in(2).c, 3);
      }
      if (runOk(3) && op(1) == Op::kConstInt && op(2) == Op::kBinary &&
          s1 < (1 << 20)) {
        return make(Op::kLoadConstBinary, in(1).a, s1 | in(2).a << 20, 0, 3);
      }
      if (runOk(3) && op(1) == Op::kLoad && op(2) == Op::kBinary &&
          in(1).a < (1 << 20)) {
        return make(Op::kLoadLoadBinary, s1, in(1).a | in(2).a << 20, 0, 3);
      }
      if (runOk(2) && op(1) == Op::kReturnValue) {
        return make(Op::kLoadReturn, s1, 0, 0, 2);
      }
      if (runOk(2) && op(1) == Op::kLoad) {
        return make(Op::kLoadLoad, s1, in(1).a, 0, 2);
      }
      break;
    }
    case Op::kCharge: {
      // [kCharge(kBranch) kLoad kConstInt|kLoad kBinary(cmp) kJumpIfFalse
      // (kCharge(kLoopIter))] — the canonical loop header: the branch
      // charge, the compare, and the iteration charge on fall-through.
      if (in(0).a != static_cast<std::int32_t>(energy::Op::kBranch) ||
          !runOk(5) || op(1) != Op::kLoad || op(3) != Op::kBinary ||
          !isCmp(static_cast<BinOp>(in(3).a)) ||
          op(4) != Op::kJumpIfFalse || in(4).b != 0) {
        break;
      }
      const bool tick =
          runOk(6) && op(5) == Op::kCharge &&
          in(5).a == static_cast<std::int32_t>(energy::Op::kLoopIter) &&
          in(5).n == 0;  // charged on fall-through only, so it carries no
                         // step the taken exit would skip
      const std::int32_t s1 = in(1).a;
      const std::size_t len = tick ? 6 : 5;
      if (op(2) == Op::kConstInt && s1 < (1 << 20)) {
        return make(Op::kLoadConstCmpJump, in(4).a,
                    s1 | in(3).a << 20 | (tick ? 1 : 0) << 26, in(2).a, len);
      }
      if (op(2) == Op::kLoad && s1 < (1 << 10) && in(2).a < (1 << 10)) {
        return make(Op::kLoadLoadCmpJump, in(4).a,
                    s1 | in(2).a << 10 | in(3).a << 20 | (tick ? 1 : 0) << 26,
                    0, len);
      }
      break;
    }
    case Op::kGetThisFieldSlot: {
      const std::int32_t off = in(0).a;
      // [kGetThisFieldSlot kGetThisFieldSlot kBinary (kCast) kDup
      //  kPutThisFieldSlot kPop kGetThisFieldSlot kReturnValue] — the
      // `f1 = f1 <op> f2; return f1;` method body, e.g. a counter bump.
      for (std::size_t len : {std::size_t{9}, std::size_t{8}}) {
        const bool cast = len == 9;
        if (!runOk(len)) continue;
        std::size_t i = 1;
        if (op(i) != Op::kGetThisFieldSlot) break;
        const std::int32_t off2 = in(i).a;
        ++i;
        if (op(i) != Op::kBinary) break;
        const std::int32_t bop = in(i).a;
        ++i;
        std::int32_t castEnc = -1;
        if (cast) {
          if (!implicitCast(i)) continue;
          castEnc = in(i).a;
          ++i;
        }
        if (op(i) != Op::kDup) break;
        ++i;
        if (op(i) != Op::kPutThisFieldSlot || in(i).a != off) break;
        ++i;
        if (op(i) != Op::kPop) break;
        ++i;
        if (op(i) != Op::kGetThisFieldSlot || in(i).a != off) break;
        ++i;
        if (op(i) != Op::kReturnValue) break;
        if (off >= (1 << 12) || off2 >= (1 << 12) || bop >= 32 ||
            castEnc >= 16) {
          break;
        }
        const std::int32_t castE = castEnc < 0 ? kNoKindEnc : castEnc;
        std::uint32_t throwTail = 0;  // steps after the kBinary at index 2
        for (std::size_t k = 3; k < len; ++k) throwTail += in(k).n;
        return make(Op::kThisFieldAccumReturn, off | off2 << 12,
                    bop | castE << 8, static_cast<std::int32_t>(throwTail),
                    len);
      }
      if (runOk(3) && op(1) == Op::kConstInt && op(2) == Op::kBinary &&
          off < (1 << 20)) {
        return make(Op::kThisFieldConstBinary, in(1).a, off | in(2).a << 20,
                    0, 3);
      }
      if (runOk(2) && op(1) == Op::kBinary) {
        return make(Op::kThisFieldBinary, off, in(1).a, 0, 2);
      }
      if (runOk(2) && op(1) == Op::kReturnValue) {
        return make(Op::kThisFieldReturn, off, 0, 0, 2);
      }
      break;
    }
    case Op::kConstInt:
      if (runOk(2) && op(1) == Op::kBinary) {
        return make(Op::kConstBinary, in(0).a, in(1).a, 0, 2);
      }
      break;
    case Op::kDup:
      if (runOk(3) && op(1) == Op::kStore && op(2) == Op::kPop) {
        return make(Op::kStorePop, in(1).a, in(1).b, 0, 3);
      }
      if (runOk(3) && op(1) == Op::kPutThisFieldSlot && op(2) == Op::kPop) {
        return make(Op::kPutThisFieldSlotPop, in(1).a, 0, 0, 3);
      }
      break;
    case Op::kBinary: {
      const std::int32_t bop = in(0).a;
      if (runOk(5) && implicitCast(1) && op(2) == Op::kDup &&
          op(3) == Op::kStore && op(4) == Op::kPop) {
        const std::int32_t se = storeEnc(in(3));
        if (bop < 256 && in(1).a < 256 && se < 256) {
          return make(Op::kBinCastStorePop, in(3).a,
                      bop | in(1).a << 8 | se << 16, 0, 5);
        }
      }
      if (runOk(2) && implicitCast(1)) {
        return make(Op::kBinaryCast, bop, in(1).a, 0, 2);
      }
      break;
    }
    default:
      break;
  }
  *out = in(0);
  return 1;
}

/// Second peephole pass, over already-fused code: merge a loop-body tail
/// statement with the kIncDecJump latch that follows it, so a steady-state
/// counted-loop iteration dispatches once for the whole tail. The merged
/// instruction replays both constituent charge sequences verbatim and
/// carries the combined step count in n. Targets inside the packed
/// operands are the pre-pass pcs; remapping happens in runFusePass like
/// any other jump operand.
std::size_t matchPair(const std::vector<Instr>& c, std::size_t pc,
                      const std::vector<char>& barrier, Instr* out) {
  *out = c[pc];
  if (pc + 2 > c.size() || barrier[pc + 1]) return 1;
  const Instr& i0 = c[pc];
  const Instr& i1 = c[pc + 1];
  // The latch's steps ride in c as the pair's throw tail (code.hpp).
  if (i1.op != Op::kIncDecJump || i1.c >= (1 << 16) || i1.n >= 16) return 1;
  const std::uint32_t lSlot = static_cast<std::uint32_t>(i1.a);
  const std::uint32_t lBop = static_cast<std::uint32_t>(i1.b) & 0x1F;
  const std::uint32_t lStoreK = (static_cast<std::uint32_t>(i1.b) >> 8) & 0xF;
  const std::uint32_t target = static_cast<std::uint32_t>(i1.c);
  const auto emit = [&](Op sop, std::uint32_t a, std::uint32_t b,
                        std::uint32_t cOperand) {
    *out = Instr{sop, static_cast<std::int32_t>(a),
                 static_cast<std::int32_t>(b),
                 static_cast<std::int32_t>(cOperand), i0.line};
    out->n = i0.n + i1.n;
    return std::size_t{2};
  };
  switch (i0.op) {
    case Op::kAccumConstStmt: {
      const std::uint32_t b0 = static_cast<std::uint32_t>(i0.b);
      const std::uint32_t s1 = b0 & 0x3FF;
      const std::uint32_t s2 = (b0 >> 10) & 0x3FF;
      if (s2 != lSlot || s1 >= (1 << 8) || s2 >= (1 << 8)) return 1;
      const std::uint32_t c0 = static_cast<std::uint32_t>(i0.c);
      return emit(Op::kAccumConstJump, static_cast<std::uint32_t>(i0.a),
                  s1 | s2 << 8 | ((b0 >> 20) & 0x1F) << 16 |
                      ((b0 >> 25) & 0x1F) << 21 | lBop << 26,
                  target | (c0 & 0xF) << 16 | ((c0 >> 4) & 0xF) << 20 |
                      lStoreK << 24 | i1.n << 28);
    }
    case Op::kStorePop: {
      if (i0.a >= (1 << 10) || lSlot >= (1 << 10) || i0.b >= 15) return 1;
      const std::uint32_t storeKS =
          i0.b < 0 ? kNoKindEnc : static_cast<std::uint32_t>(i0.b);
      return emit(Op::kStorePopIncDecJump, target,
                  static_cast<std::uint32_t>(i0.a) | lSlot << 10 |
                      lBop << 20,
                  storeKS | lStoreK << 4);
    }
    case Op::kBinCastStorePop: {
      const std::uint32_t b0 = static_cast<std::uint32_t>(i0.b);
      const std::uint32_t bopS = b0 & 0xFF;
      const std::uint32_t castKS = (b0 >> 8) & 0xFF;
      const std::uint32_t storeKS = (b0 >> 16) & 0xFF;
      if (i0.a >= (1 << 8) || lSlot >= (1 << 8) || bopS >= 32 ||
          castKS >= 16 || storeKS >= 16) {
        return 1;
      }
      return emit(Op::kBinCastStoreIncDecJump, target,
                  static_cast<std::uint32_t>(i0.a) | lSlot << 8 |
                      bopS << 16 | lBop << 21,
                  storeKS | castKS << 4 | lStoreK << 8 | i1.n << 12);
    }
    default:
      return 1;
  }
}

/// Third peephole pass: collapse a whole counted accumulate loop —
/// [kLoadConstCmpJump][kAccumConstJump] with the cmp testing the latch
/// slot, the false-exit falling through past the pair, and the backedge
/// returning to the cmp — into one self-dispatching instruction. n is the
/// cmp run's step count (the only part an exiting iteration executes); the
/// body run's count rides in the operands and is accounted on the taken
/// path, so step totals stay exact on both paths.
std::size_t matchLoop(const std::vector<Instr>& c, std::size_t pc,
                      const std::vector<char>& barrier, Instr* out) {
  *out = c[pc];
  if (pc + 2 > c.size() || barrier[pc + 1]) return 1;
  const Instr& i0 = c[pc];
  const Instr& i1 = c[pc + 1];
  if (i0.op != Op::kLoadConstCmpJump || i1.op != Op::kAccumConstJump) {
    return 1;
  }
  const std::uint32_t b0 = static_cast<std::uint32_t>(i0.b);
  const std::uint32_t b1 = static_cast<std::uint32_t>(i1.b);
  const std::uint32_t c1 = static_cast<std::uint32_t>(i1.c);
  const std::uint32_t tick = (b0 >> 26) & 1;
  if (i0.a != static_cast<std::int32_t>(pc) + 2 ||       // exit falls through
      (c1 & 0xFFFF) != pc ||                             // backedge to cmp
      (b0 & 0xFFFFF) != ((b1 >> 8) & 0xFF) ||            // cmp slot == s2
      i0.c >= (1 << 16) || i1.a >= (1 << 16) || i1.n >= (1 << 10)) {
    return 1;
  }
  *out = Instr{Op::kCountedAccumLoop,
               static_cast<std::int32_t>(static_cast<std::uint32_t>(i0.c) |
                                         static_cast<std::uint32_t>(i1.a)
                                             << 16),
               i1.b,
               static_cast<std::int32_t>(i1.n | ((b0 >> 20) & 0x1F) << 10 |
                                         tick << 15 | (c1 >> 16) << 16),
               i0.line};
  out->n = i0.n;
  return 2;
}

/// Every pc a jump operand or handler boundary can name, for the barrier
/// set and the post-pass remap. Understands the fused jump forms too, so
/// later passes can run over earlier passes' output.
template <typename Fn>
void visitJumpOperands(Instr& in, Fn&& fn) {
  switch (in.op) {
    case Op::kJump:
    case Op::kJumpIfFalse:
    case Op::kJumpIfTrue:
    case Op::kCaseJump:
    case Op::kLoadConstCmpJump:
    case Op::kLoadLoadCmpJump:
    case Op::kStorePopIncDecJump:
    case Op::kBinCastStoreIncDecJump:
      in.a = fn(in.a);
      break;
    case Op::kIncDecJump:
      in.c = fn(in.c);
      break;
    case Op::kAccumConstJump: {
      const std::uint32_t cc = static_cast<std::uint32_t>(in.c);
      in.c = static_cast<std::int32_t>(
          (cc & ~0xFFFFu) |
          static_cast<std::uint32_t>(fn(static_cast<std::int32_t>(
              cc & 0xFFFF))));
      break;
    }
    default:
      break;
  }
}

/// One greedy left-to-right fusion pass: jump-target and exception-range
/// barriers, match, then pc remapping of every jump operand and
/// exception-table entry.
void runFusePass(Chunk& chunk,
                 std::size_t (*match)(const std::vector<Instr>&, std::size_t,
                                      const std::vector<char>&, Instr*)) {
  std::vector<Instr>& code = chunk.code;
  if (code.empty()) return;

  std::vector<char> barrier(code.size() + 1, 0);
  barrier[0] = 1;
  for (Instr& in : code) {
    visitJumpOperands(in, [&](std::int32_t t) {
      barrier[static_cast<std::size_t>(t)] = 1;
      return t;
    });
  }
  for (const auto& h : chunk.handlers) {
    barrier[static_cast<std::size_t>(h.start)] = 1;
    barrier[static_cast<std::size_t>(h.end)] = 1;
    barrier[static_cast<std::size_t>(h.handler)] = 1;
  }

  std::vector<Instr> fused;
  fused.reserve(code.size());
  // Old pc -> new pc. Interior pcs of a fused run map to the run's new pc;
  // that case never feeds a jump or handler operand because interior pcs
  // are barrier-free by construction.
  std::vector<std::int32_t> newPcOf(code.size() + 1, 0);
  std::size_t pc = 0;
  while (pc < code.size()) {
    Instr out;
    const std::size_t len = match(code, pc, barrier, &out);
    for (std::size_t i = 0; i < len; ++i) {
      newPcOf[pc + i] = static_cast<std::int32_t>(fused.size());
    }
    fused.push_back(out);
    pc += len;
  }
  newPcOf[code.size()] = static_cast<std::int32_t>(fused.size());

  for (Instr& in : fused) {
    visitJumpOperands(
        in, [&](std::int32_t t) { return newPcOf[static_cast<std::size_t>(t)]; });
  }
  for (auto& h : chunk.handlers) {
    h.start = newPcOf[static_cast<std::size_t>(h.start)];
    h.end = newPcOf[static_cast<std::size_t>(h.end)];
    h.handler = newPcOf[static_cast<std::size_t>(h.handler)];
  }
  chunk.code = std::move(fused);
}

/// The peephole: run-level fusion over the seed code, the loop-tail pair
/// pass over its output, then the whole-loop pass over that.
void fuseChunk(Chunk& chunk) {
  runFusePass(chunk, matchSuper);
  runFusePass(chunk, matchPair);
  runFusePass(chunk, matchLoop);
}

// ---------------------------------------------------------------------------

CompiledProgram ProgramCompiler::run() {
  // Resolve before lowering: the resolver stamps every class/method/field
  // with ids and slots, and every bound name site compiles straight to a
  // slot-resolved opcode.
  res_ = jlang::ensureResolved(program_);
  out_.resolution = res_;
  for (const auto& unit : program_.units) {
    for (const auto& cls : unit.classes) {
      CompiledClass compiled;
      compiled.name = cls.name;
      compiled.classId = cls.classId;
      for (const auto& f : cls.fields) {
        compiled.fields.push_back(CompiledField{
            std::string(f.name), jvm::kindOfType(f.type), f.isStatic});
      }
      {
        MethodCompiler mc(*this, cls, /*isStatic=*/true);
        compiled.clinit = mc.compileFieldInits(cls, /*staticFields=*/true);
      }
      {
        MethodCompiler mc(*this, cls, /*isStatic=*/false);
        compiled.initFields =
            mc.compileFieldInits(cls, /*staticFields=*/false);
      }
      for (const auto& m : cls.methods) {
        MethodCompiler mc(*this, cls, m.isStatic);
        compiled.methods.emplace(m.name, mc.compileMethod(m));
        if (m.name == "main" && m.isStatic) compiled.hasMain = true;
      }
      out_.classes.emplace(cls.name, std::move(compiled));
    }
  }
  // Post passes over every chunk: dense chunk ids (the VM's per-chunk
  // tables key on them), the pre-fusion max-stack dataflow, then the
  // peephole.
  std::uint32_t nextChunkId = 0;
  const auto finishChunk = [&](Chunk& chunk) {
    chunk.chunkId = nextChunkId++;
    computeMaxStack(chunk);
    if (options_.fuseSuperinstructions) fuseChunk(chunk);
  };
  for (auto& [name, cls] : out_.classes) {
    finishChunk(cls.clinit);
    finishChunk(cls.initFields);
    for (auto& [mname, chunk] : cls.methods) finishChunk(chunk);
  }
  out_.chunkCount = nextChunkId;
  return std::move(out_);
}

}  // namespace

CompiledProgram compile(const Program& program) {
  return ProgramCompiler(program, CompileOptions{}).run();
}

CompiledProgram compile(const Program& program,
                        const CompileOptions& options) {
  return ProgramCompiler(program, options).run();
}

std::string disassemble(const Chunk& chunk, const CompiledProgram& program) {
  std::string out = chunk.qualifiedName + " (slots=" +
                    std::to_string(chunk.numSlots) + ")\n";
  for (std::size_t pc = 0; pc < chunk.code.size(); ++pc) {
    const Instr& in = chunk.code[pc];
    out += "  " + std::to_string(pc) + ": op" +
           std::to_string(static_cast<int>(in.op)) + " a=" +
           std::to_string(in.a) + " b=" + std::to_string(in.b);
    if (in.op == Op::kConstStr || in.op == Op::kGetStatic ||
        in.op == Op::kGetFieldCached || in.op == Op::kPutFieldCached ||
        in.op == Op::kCallVirtualCached || in.op == Op::kThrowError) {
      out += " (" + program.names.at(static_cast<std::size_t>(in.a)) + ")";
    }
    if (in.n != 0) out += " n=" + std::to_string(in.n);
    out += "\n";
  }
  for (const auto& h : chunk.handlers) {
    out += "  handler [" + std::to_string(h.start) + "," +
           std::to_string(h.end) + ") -> " + std::to_string(h.handler) +
           "\n";
  }
  return out;
}

}  // namespace jepo::jbc
