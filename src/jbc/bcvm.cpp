#include "jbc/bcvm.hpp"

#include "jvm/ops.hpp"
#include "jvm/tier.hpp"
#include "obs/span.hpp"

// Dispatch strategy. Computed goto ("labels as values", a GNU extension
// GCC and Clang both support) keeps one indirect branch per opcode handler,
// so the host branch predictor learns per-opcode successor patterns instead
// of sharing one mispredicting switch branch.
#if !defined(__GNUC__) && !defined(__clang__)
#error "the bytecode VM dispatches by computed goto: build with GCC or Clang"
#endif

namespace jepo::jbc {

using jvm::BuiltinLibrary;
using jvm::HeapObject;
using jvm::ObjKind;
using jvm::Ref;
using jvm::Thrown;
using jvm::ValKind;
using jvm::Value;

namespace {

/// Per-invocation hook dispatch under tiering (finishInvoke): hooks off,
/// hooks on (full instrumentation or a sampled-in entry), or counted-only
/// (unsampled entry — population counter, no hook calls).
enum : std::uint8_t { kHooksOff = 0, kHooksOn, kHooksCounted };

#define JEPO_FORCE_INLINE __attribute__((always_inline)) inline
#define JEPO_LAMBDA_INLINE __attribute__((always_inline))

/// int×int binary fast path, bit-exact with applyBinary (ops.cpp): for two
/// kInt operands unboxIfNeeded is the identity and charges nothing, there
/// is no sub-int widening charge, the promoted kind is kInt, and the string
/// / reference-equality / boolean special cases never apply. Returns false
/// (charging nothing) for any other operand shape. Forced inline so the
/// dominant int path stays inside each dispatch handler.
JEPO_FORCE_INLINE bool fastIntBinary(jlang::BinOp op, const Value& a,
                                     const Value& b, BuiltinLibrary& lib,
                                     energy::SimMachine& machine,
                                     Value* out) {
  if (a.kind != ValKind::kInt || b.kind != ValKind::kInt) return false;
  const std::int64_t x = a.asInt();
  const std::int64_t y = b.asInt();
  bool cmp = false;
  std::int64_t r = 0;
  switch (op) {
    case jlang::BinOp::kLt: cmp = x < y; goto compared;
    case jlang::BinOp::kGt: cmp = x > y; goto compared;
    case jlang::BinOp::kLe: cmp = x <= y; goto compared;
    case jlang::BinOp::kGe: cmp = x >= y; goto compared;
    case jlang::BinOp::kEq: cmp = x == y; goto compared;
    case jlang::BinOp::kNe: cmp = x != y; goto compared;
    case jlang::BinOp::kAdd:
      machine.charge(energy::Op::kIntAlu);
      r = static_cast<std::int64_t>(static_cast<std::uint64_t>(x) +
                                    static_cast<std::uint64_t>(y));
      break;
    case jlang::BinOp::kSub:
      machine.charge(energy::Op::kIntAlu);
      r = static_cast<std::int64_t>(static_cast<std::uint64_t>(x) -
                                    static_cast<std::uint64_t>(y));
      break;
    case jlang::BinOp::kMul:
      machine.charge(energy::Op::kIntAlu);
      r = static_cast<std::int64_t>(static_cast<std::uint64_t>(x) *
                                    static_cast<std::uint64_t>(y));
      break;
    case jlang::BinOp::kDiv:
      machine.charge(energy::Op::kIntDiv);  // charged before the zero check,
      if (y == 0) lib.throwJava("ArithmeticException", "/ by zero");
      r = x / y;                            // exactly as arith() does
      break;
    case jlang::BinOp::kMod:
      machine.charge(energy::Op::kIntMod);
      if (y == 0) lib.throwJava("ArithmeticException", "% by zero");
      r = x % y;
      break;
    case jlang::BinOp::kBitAnd:
      machine.charge(energy::Op::kIntAlu);
      r = x & y;
      break;
    case jlang::BinOp::kBitOr:
      machine.charge(energy::Op::kIntAlu);
      r = x | y;
      break;
    case jlang::BinOp::kBitXor:
      machine.charge(energy::Op::kIntAlu);
      r = x ^ y;
      break;
    case jlang::BinOp::kShl:
      machine.charge(energy::Op::kIntAlu);
      r = static_cast<std::int64_t>(static_cast<std::uint64_t>(x) << (y & 31));
      break;
    case jlang::BinOp::kShr:
      machine.charge(energy::Op::kIntAlu);
      r = x >> (y & 31);
      break;
    default:
      return false;  // &&/|| never reach kBinary; keep applyBinary's error
  }
  // wrapToKind(r, kInt) inlined: sign-extended int32 truncation.
  *out = Value::ofInt(static_cast<std::int64_t>(static_cast<std::int32_t>(r)));
  return true;
compared:
  machine.charge(energy::Op::kIntAlu);
  *out = Value::ofBool(cmp);
  return true;
}

/// coerceToKind with its identity head (same kind, or a kRef target)
/// inlined at the call site — the overwhelmingly common already-typed case
/// skips the out-of-line call. Bit-exact: these are the first two lines of
/// jvm::coerceToKind, which charge nothing.
JEPO_FORCE_INLINE Value coerceInline(const Value& v, ValKind k,
                                     BuiltinLibrary& lib, int line) {
  if (v.kind == k || k == ValKind::kRef) return v;
  return jvm::coerceToKind(v, k, lib, line);
}

/// Steps `in` accounted at dispatch for constituents a Java exception from
/// its binary operator skips (the throw tails of code.hpp); 0 for every
/// instruction without one.
std::uint32_t throwTailSteps(const Instr& in) {
  const auto c = static_cast<std::uint32_t>(in.c);
  switch (in.op) {
    case Op::kThisFieldAccumReturn:
      return c;
    case Op::kAccumConstJump:
    case Op::kCountedAccumLoop:
      return c >> 28;
    case Op::kBinCastStoreIncDecJump:
      return c >> 12;
    default:
      return 0;
  }
}

/// The kThisFieldAccumReturn body (`f1 = f1 <op> f2; return f1;`), shared
/// by the trivial-callee inline helpers. Replays the seed charge sequence
/// exactly; `self` stays valid across an allocating binary because heap
/// addresses are stable between safepoints.
JEPO_FORCE_INLINE Value fieldAccumReturnImpl(const Instr& in0,
                                             const Value& thisV,
                                             jvm::Heap& heap,
                                             jvm::BuiltinLibrary& builtins,
                                             energy::SimMachine& machine) {
  const std::int32_t aa = in0.a;
  const std::size_t o1 = static_cast<std::size_t>(aa & 0xFFF);
  machine.charge(energy::Op::kFieldAccess);
  HeapObject& self = heap.get(thisV.asRef());
  const Value a = self.fields[o1];
  machine.charge(energy::Op::kFieldAccess);
  const Value b = self.fields[static_cast<std::size_t>((aa >> 12) & 0xFFF)];
  Value r;
  if (!fastIntBinary(static_cast<jlang::BinOp>(in0.b & 0xFF), a, b, builtins,
                     machine, &r)) {
    r = jvm::applyBinary(static_cast<jlang::BinOp>(in0.b & 0xFF), a, b, heap,
                         builtins, machine, in0.line);
  }
  const std::int32_t castE = (in0.b >> 8) & 0xF;
  if (castE != 15) {
    r = coerceInline(r, static_cast<ValKind>(castE), builtins, in0.line);
  }
  machine.charge(energy::Op::kFieldAccess);
  Value& field = self.fields[o1];
  if (field.isNumeric() && r.isNumeric()) {
    r = coerceInline(r, field.kind, builtins, in0.line);
  }
  field = r;
  machine.charge(energy::Op::kFieldAccess);
  return field;
}

}  // namespace

BytecodeVm::BytecodeVm(const CompiledProgram& program,
                       energy::SimMachine& machine)
    : program_(&program),
      resolution_(program.resolution),
      machine_(&machine),
      builtins_(heap_, machine, out_, [this](std::string_view name) {
        return program_->findClass(name) != nullptr;
      }),
      gc_(heap_, [this](jvm::Gc::RootWalker& w) { scanGcRoots(w); }) {
  gc_.setLimit(jvm::Gc::limitFromEnv());
  gc_.setPostCompact([this] {
    // A recycled Ref must not resurrect a stale row-cache hit: remap the
    // cached row if it survived, otherwise invalidate the cache.
    if (lastRowArray_ != kNullRef) lastRowArray_ = gc_.remap(lastRowArray_);
  });
  JEPO_REQUIRE(resolution_ != nullptr,
               "CompiledProgram carries no resolution (use jbc::compile)");
  const jlang::Resolution& res = *resolution_;
  statics_.assign(static_cast<std::size_t>(res.staticCount), Value::null());
  classInitDone_.assign(res.classes.size(), 0);
  literalByName_.assign(program.names.size(), kNullRef);
  callCaches_.assign(static_cast<std::size_t>(res.numCallCaches),
                     CallCacheEntry{});
  fieldCaches_.assign(static_cast<std::size_t>(res.numFieldCaches),
                      FieldCacheEntry{});
  classById_.assign(res.classes.size(), nullptr);
  methodChunks_.resize(res.classes.size());
  staticDefaults_.resize(res.classes.size());
  objectTemplates_.resize(res.classes.size());
  // Classify trivial callees once: a single fused body instruction, no
  // exception table, and every slot it reads is a parameter slot (so the
  // body never touches a default-initialized local).
  trivialKind_.assign(program.chunkCount, kNotTrivial);
  const auto classify = [this](const Chunk& ch) {
    if (!ch.handlers.empty() || ch.code.empty() ||
        ch.chunkId >= trivialKind_.size()) {
      return;
    }
    const Instr& in0 = ch.code[0];
    const auto nParams = static_cast<std::int32_t>(ch.paramKinds.size());
    std::uint8_t kind = kNotTrivial;
    switch (in0.op) {
      case Op::kLoadLoadBinaryReturn:
        if (in0.a < nParams && (in0.b & 0xFFFFF) < nParams) {
          kind = kTrivLoadLoadBinaryReturn;
        }
        break;
      case Op::kThisFieldAccumReturn:
        if (nParams >= 1) kind = kTrivThisFieldAccumReturn;
        break;
      default:
        break;
    }
    trivialKind_[ch.chunkId] = kind;
  };
  for (const auto& [clsName, compiled] : program.classes) {
    (void)clsName;
    classify(compiled.clinit);
    classify(compiled.initFields);
    for (const auto& [methodName, m] : compiled.methods) {
      (void)methodName;
      classify(m);
    }
  }
  for (std::size_t id = 0; id < res.classes.size(); ++id) {
    const jlang::ResolvedClass& rc = res.classes[id];
    // Shadowed duplicate class names never execute (findClass returns the
    // first); leave their rows empty.
    if (res.classIdOf(rc.layout.className) != static_cast<std::int32_t>(id)) {
      continue;
    }
    const CompiledClass* cls = program.findClass(rc.layout.className);
    if (cls == nullptr) continue;
    classById_[id] = cls;
    auto& chunks = methodChunks_[id];
    chunks.reserve(rc.methods.size());
    for (const auto& rm : rc.methods) {
      const auto it = cls->methods.find(rm.decl->name);
      chunks.push_back(it == cls->methods.end() ? nullptr : &it->second);
    }
    for (const CompiledField& f : cls->fields) {
      if (f.isStatic) {
        const int idx = rc.staticIndexOf(f.name);
        if (idx >= 0) staticDefaults_[id].emplace_back(rc.staticSlots[idx],
                                                       f.kind);
      } else {
        objectTemplates_[id].push_back(jvm::Heap::defaultValue(f.kind));
      }
    }
  }
}

void BytecodeVm::throwStepLimit() const {
  throw VmError("step limit exceeded (" + std::to_string(maxSteps_) +
                "): possible runaway loop");
}

void BytecodeVm::throwCancelled() const {
  throw CancelledError(cancel_->reason());
}

void BytecodeVm::chargeRowLoad(Ref array, std::int64_t index,
                               bool rowIsArray) {
  if (!rowIsArray) {
    charge(energy::Op::kArrayAccess);
    return;
  }
  if (array == lastRowArray_ && index == lastRowIndex_) {
    charge(energy::Op::kArrayAccess);
  } else {
    charge(energy::Op::kArrayRowLoad);
  }
  lastRowArray_ = array;
  lastRowIndex_ = index;
}

void BytecodeVm::ensureClassInit(const std::string& className) {
  const std::int32_t id = resolution_->classIdOf(className);
  if (id >= 0) ensureClassInitById(id);
}

void BytecodeVm::ensureClassInitById(std::int32_t classId) {
  const auto idx = static_cast<std::size_t>(classId);
  if (classInitDone_[idx] != 0) return;
  classInitDone_[idx] = 1;  // marked before <clinit>: recursion guard
  const CompiledClass* cls = classById_[idx];
  if (cls == nullptr) return;
  for (const auto& [slot, kind] : staticDefaults_[idx]) {
    statics_[static_cast<std::size_t>(slot)] = jvm::Heap::defaultValue(kind);
  }
  // Fusion never produces an empty chunk and kReturnVoid never fuses, so a
  // non-trivial <clinit> still has > 1 instructions post-fusion.
  if (cls->clinit.code.size() > 1) runInitializer(*cls, cls->clinit, nullptr);
}

jvm::Value* BytecodeVm::findStaticByName(const std::string& className,
                                         const std::string& fieldName) {
  const std::int32_t id = resolution_->classIdOf(className);
  if (id < 0) return nullptr;
  const jlang::ResolvedClass& rc =
      resolution_->classes[static_cast<std::size_t>(id)];
  const int idx = rc.staticIndexOf(fieldName);
  if (idx < 0) return nullptr;
  return &statics_[static_cast<std::size_t>(rc.staticSlots[idx])];
}

jvm::Value BytecodeVm::allocArray(const std::vector<std::int64_t>& dims,
                                  std::size_t level, ValKind leafKind) {
  const bool innermost = level + 1 == dims.size();
  const ValKind ek = innermost ? leafKind : ValKind::kRef;
  const auto n = static_cast<std::size_t>(dims[level]);
  charge(energy::Op::kAllocObject);
  charge(energy::Op::kAllocArrayPerElem, n);
  const Ref r = heap_.allocArray(n, ek);
  if (!innermost) {
    for (std::size_t i = 0; i < n; ++i) {
      heap_.get(r).elems[i] = allocArray(dims, level + 1, leafKind);
    }
  }
  return Value::ofRef(r);
}

jvm::Value BytecodeVm::construct(const std::string& className,
                                 std::vector<Value> args, int line) {
  Value builtinResult;
  if (builtins_.construct(className, args, &builtinResult)) {
    return builtinResult;
  }
  const std::int32_t id = resolution_->classIdOf(className);
  if (id < 0 || classById_[static_cast<std::size_t>(id)] == nullptr) {
    throw VmError("unknown class " + className + " at line " +
                  std::to_string(line));
  }
  // args live across <clinit>, <initfields> and constructor safepoints.
  jvm::Gc::ScopedVector rootArgs(gc_, args);
  return constructByIdSpan(id, args.data(), args.size());
}

jvm::Value BytecodeVm::constructByIdSpan(std::int32_t classId,
                                         const Value* args,
                                         std::size_t argc) {
  const auto idx = static_cast<std::size_t>(classId);
  const CompiledClass& cls = *classById_[idx];
  const jlang::ResolvedClass& rc = resolution_->classes[idx];
  charge(energy::Op::kAllocObject);
  // Span callers keep args on the caller's (rooted) operand stack; the
  // fresh object is only reachable through `r` until returned.
  ensureClassInitById(classId);
  Ref r = heap_.allocObject(cls.name, rc.layout);
  jvm::Gc::ScopedRef rootR(gc_, r);
  heap_.get(r).fields = objectTemplates_[idx];
  if (cls.initFields.code.size() > 1) {
    const Value self = Value::ofRef(r);
    runInitializer(cls, cls.initFields, &self);
  }
  const auto ctor = cls.methods.find(cls.name);
  if (ctor != cls.methods.end()) {
    invokeRecvSpan(cls, ctor->second, Value::ofRef(r), args, argc);
  } else {
    JEPO_REQUIRE(argc == 0,
                 "class " + cls.name + " has no constructor taking args");
  }
  return Value::ofRef(r);
}

BytecodeVm::Frame& BytecodeVm::acquireFrame(const Chunk& chunk) {
  if (frameDepth_ >= framePool_.size()) {
    framePool_.push_back(std::make_unique<Frame>());
  }
  Frame& f = *framePool_[frameDepth_];
  const auto nSlots = static_cast<std::size_t>(chunk.numSlots);
  // +2: one for the exception push on handler entry of a zero-depth chunk,
  // one safety margin over the dataflow bound.
  const auto nStack = static_cast<std::size_t>(chunk.maxStack) + 2;
  if (f.slots.size() < nSlots) f.slots.resize(nSlots);
  if (f.stack.size() < nStack) f.stack.resize(nStack);
  // Parameter slots are written by every caller before the frame goes
  // live (the argc REQUIREs run before acquire), so only the locals past
  // them need the default-null reset.
  const auto nParams = chunk.paramKinds.size();
  if (nParams < nSlots) {
    std::fill(f.slots.data() + nParams, f.slots.data() + nSlots, Value());
  }
  f.liveSlots = nSlots;
  f.top = 0;
  return f;
}

jvm::Value BytecodeVm::invokeSpan(const CompiledClass& cls,
                                  const Chunk& chunk, const Value* args,
                                  std::size_t argc) {
  if (frameDepth_ >= kMaxFrames) {
    throwJava("StackOverflowError", chunk.qualifiedName);
  }
  JEPO_REQUIRE(argc == chunk.paramKinds.size(),
               "wrong argument count for " + chunk.qualifiedName);
  Frame& frame = acquireFrame(chunk);
  std::copy(args, args + argc, frame.slots.data());
  return finishInvoke(cls, chunk, frame);
}

jvm::Value BytecodeVm::invokeRecvSpan(const CompiledClass& cls,
                                      const Chunk& chunk, const Value& recv,
                                      const Value* rest, std::size_t nRest) {
  if (frameDepth_ >= kMaxFrames) {
    throwJava("StackOverflowError", chunk.qualifiedName);
  }
  JEPO_REQUIRE(nRest + 1 == chunk.paramKinds.size(),
               "wrong argument count for " + chunk.qualifiedName);
  Frame& frame = acquireFrame(chunk);
  frame.slots[0] = recv;
  std::copy(rest, rest + nRest, frame.slots.data() + 1);
  return finishInvoke(cls, chunk, frame);
}

jvm::Value BytecodeVm::finishInvoke(const CompiledClass& cls,
                                    const Chunk& chunk, Frame& frame) {
  // The frame becomes visible to the GC root scan only now, fully
  // initialized; no safepoint can run between acquireFrame and here.
  ++frameDepth_;
  const jvm::MethodRef ref{chunk.methodId, chunk.qualifiedName};
  // Tier dispatch: a branch on the hoisted gate pointer (see setHooks).
  // No gate (full instrumentation) keeps the seed-exact path; an
  // unsampled entry pays the gate's counter increment and skips both
  // hook calls — no MSR reads, no record allocation.
  std::uint8_t hookMode = kHooksOff;
  if (hooks_ != nullptr) {
    hookMode = (tier_ == nullptr || tier_->enter(ref)) ? kHooksOn
                                                       : kHooksCounted;
  }
  if (hookMode == kHooksOn) hooks_->onEnter(ref);
  const bool tracing = obs::enabled();
  if (tracing) obs::beginSpan(chunk.qualifiedName);
  const auto epilogue = [&] {
    if (hookMode == kHooksOn) {
      hooks_->onExit(ref);
    } else if (hookMode == kHooksCounted) {
      tier_->exitUnsampled(ref);
    }
  };
  Value result;
  try {
    // Parameter binding inside the callee's measurement interval, as the
    // tree binds it: coerce, then charge each declared parameter; `this`
    // binds free.
    Value* const slots = frame.slots.data();
    for (std::size_t i = chunk.isStatic ? 0 : 1; i < chunk.paramKinds.size();
         ++i) {
      slots[i] = coerceInline(slots[i], chunk.paramKinds[i], builtins_, 0);
      charge(energy::Op::kLocalAccess);
    }
    result = run(cls, chunk, frame);
    charge(energy::Op::kReturn);
  } catch (const Thrown&) {
    // A Java exception unwinding through the method runs the injected
    // epilogue, exactly as a normal return does.
    epilogue();
    if (tracing) obs::endSpan();
    --frameDepth_;
    throw;
  } catch (...) {
    // VM abort (step limit, cancel, runtime error): the epilogue never
    // runs, leaving the hook's frame open for
    // Instrumenter::unwindAbortedFrames to flush as a truncated record
    // (and the tier gate's exit to TierGate::reconcileAborted).
    if (tracing) obs::endSpan();
    --frameDepth_;
    throw;
  }
  epilogue();
  if (tracing) obs::endSpan();
  --frameDepth_;
  return result;
}

void BytecodeVm::runInitializer(const CompiledClass& cls, const Chunk& chunk,
                                const Value* self) {
  Frame& frame = acquireFrame(chunk);
  if (self != nullptr) frame.slots[0] = *self;
  ++frameDepth_;
  struct DepthGuard {
    std::size_t* depth;
    ~DepthGuard() { --*depth; }
  } guard{&frameDepth_};
  run(cls, chunk, frame);
}

// Trivial-callee inlining. The framed flow for an eligible call is: depth
// check, argc check, per-declared-parameter {identity coerce;
// charge(kLocalAccess)}, callee VM_TOP (steps += n, limit check, safepoint
// with the new frame's top = 0), the single fused body instruction,
// charge(kReturn). The helper replays exactly that sequence without
// acquiring a frame. The identity coercions are guaranteed by the kind
// precheck (every argument kind already equals its parameter kind, or the
// parameter is kRef — the exact first test of coerceToKind), which also
// means no throw can land between the parameter charges, so they merge into
// one counted charge. The safepoint sees the same root object set as the
// framed flow: the arguments are still live on the caller's stack under
// frame.top (recorded at the call's own dispatch before sp was lowered —
// fused load-load call handlers re-record it after pushing their argument
// pair), and the callee frame it replaces held only copies of those values
// plus null locals. Argument values are re-read through the caller's rooted
// storage *after* the safepoint, so a compaction's remaps are observed just
// as callee-frame slots would have been.
bool BytecodeVm::inlineSpanCall(const Chunk& chunk, const Value* args,
                                std::size_t argc, Value* out) {
  // Every trivial shape reads a parameter, so argc == 0 never qualifies.
  return argc != 0 && inlineRecvCall(chunk, args[0], args + 1, argc - 1, out);
}

bool BytecodeVm::inlineRecvCall(const Chunk& chunk, const Value& recv,
                                const Value* rest, std::size_t nRest,
                                Value* out) {
  if (chunk.chunkId >= trivialKind_.size()) return false;
  const std::uint8_t triv = trivialKind_[chunk.chunkId];
  if (triv == kNotTrivial) return false;
  const jvm::MethodRef ref{chunk.methodId, chunk.qualifiedName};
  // With hooks installed the call may stay fused only if a sampling gate
  // declines this entry — peek (no ordinal commit yet: a framed bailout
  // below must not double-count) and fall back to the framed path for
  // instrumented entries.
  if (hooks_ != nullptr && (tier_ == nullptr || tier_->peekAdmit(ref))) {
    return false;
  }
  if (nRest + 1 != chunk.paramKinds.size()) return false;
  // Slot s of the would-be callee frame: recv binds the caller's slot 0 or
  // stack, rest the caller's stack — both rooted storage, so reads after
  // the safepoint observe any compaction remaps.
  const auto slotVal = [&](std::size_t s) -> const Value& {
    return s == 0 ? recv : rest[s - 1];
  };
  for (std::size_t i = 0; i <= nRest; ++i) {
    const ValKind k = chunk.paramKinds[i];
    if (slotVal(i).kind != k && k != ValKind::kRef) return false;
  }
  if (frameDepth_ >= kMaxFrames) {
    throwJava("StackOverflowError", chunk.qualifiedName);
  }
  // Point of no return: commit the unsampled entry to the gate. Its exit
  // accounting runs on return and on a Java exception, like the framed
  // epilogue; a VM abort leaves it to TierGate::reconcileAborted.
  if (hooks_ != nullptr) tier_->enter(ref);
  Value result;
  try {
    const std::size_t declared = nRest + (chunk.isStatic ? 1 : 0);
    if (declared != 0) charge(energy::Op::kLocalAccess, declared);
    const Instr& in0 = chunk.code[0];
    steps_ += in0.n;
    if (steps_ > maxStepsEff_) throwStepLimit();
    if (gc_.limit() != 0) gc_.safepoint();
    switch (triv) {
      case kTrivLoadLoadBinaryReturn: {
        const std::int32_t bb = in0.b;
        charge(energy::Op::kLocalAccess, 2);
        const Value a = slotVal(static_cast<std::size_t>(in0.a));
        const Value b = slotVal(static_cast<std::size_t>(bb & 0xFFFFF));
        const auto op = static_cast<jlang::BinOp>((bb >> 20) & 0x1F);
        if (!fastIntBinary(op, a, b, builtins_, *machine_, &result)) {
          result = jvm::applyBinary(op, a, b, heap_, builtins_, *machine_,
                                    in0.line);
        }
        break;
      }
      default:  // kTrivThisFieldAccumReturn
        result = fieldAccumReturnImpl(in0, recv, heap_, builtins_, *machine_);
        break;
    }
    charge(energy::Op::kReturn);
  } catch (const Thrown&) {
    steps_ -= throwTailSteps(chunk.code[0]);
    if (hooks_ != nullptr) tier_->exitUnsampled(ref);
    throw;
  }
  if (hooks_ != nullptr) tier_->exitUnsampled(ref);
  *out = result;
  return true;
}

jvm::Value BytecodeVm::run(const CompiledClass& cls, const Chunk& chunk,
                           Frame& frame) {
  const auto& names = program_->names;
  const auto name = [&](std::int32_t idx) -> const std::string& {
    return names[static_cast<std::size_t>(idx)];
  };

  const Instr* const codeBase = chunk.code.data();
  const Instr* const codeEnd = codeBase + chunk.code.size();
  const Instr* ip = codeBase;
  Value* const slots = frame.slots.data();
  Value* const stackBase = frame.stack.data();
  Value* sp = stackBase;

  const auto pop = [&]() -> Value {
    JEPO_ASSERT(sp > stackBase);
    return *--sp;
  };
  const auto popArgs = [&](std::int32_t argc) {
    JEPO_ASSERT(sp - stackBase >= argc);
    std::vector<Value> args(sp - argc, sp);
    sp -= argc;
    return args;
  };
  const auto binary = [&](jlang::BinOp op, const Value& a, const Value& b,
                          int line) JEPO_LAMBDA_INLINE -> Value {
    Value r;
    if (fastIntBinary(op, a, b, builtins_, *machine_, &r)) [[likely]] {
      return r;
    }
    return jvm::applyBinary(op, a, b, heap_, builtins_, *machine_, line);
  };
  // The seed kStore coercion rule; enc < 0 and the 4-bit kNoKindEnc (15)
  // both mean "no declared kind". Charges the kLocalAccess of the store.
  const auto storeToSlot = [&](std::int32_t slot, std::int32_t kindEnc,
                               Value v, int line) {
    charge(energy::Op::kLocalAccess);
    if (kindEnc >= 0 && kindEnc < 15 &&
        static_cast<ValKind>(kindEnc) != ValKind::kRef && v.isNumeric()) {
      v = coerceInline(v, static_cast<ValKind>(kindEnc), builtins_,
                            line);
    }
    slots[static_cast<std::size_t>(slot)] = v;
  };
  // ++/--: old +/- 1, narrowed back to the old value's kind.
  const auto incDec = [&](std::int32_t op, const Value& old, int line)
                          JEPO_LAMBDA_INLINE -> Value {
    return coerceInline(
        binary(static_cast<jlang::BinOp>(op), old, Value::ofInt(1), line),
        old.kind, builtins_, line);
  };
  // Shared bodies of the resolved call ops, also entered from their
  // load-load fused prefixes. Each replaces the argument span on the
  // caller stack with the call result.
  const auto callSelfResolved = [&](std::int32_t ordinal, std::int32_t argc,
                                    std::int32_t prependThis)
                                    JEPO_LAMBDA_INLINE {
    // The running class is always initialized (or initializing) here.
    charge(energy::Op::kCall);
    const Chunk& target = *methodChunks_[static_cast<std::size_t>(cls.classId)]
                                        [static_cast<std::size_t>(ordinal)];
    Value result;
    if (prependThis != 0) {
      if (!inlineRecvCall(target, slots[0], sp - argc,
                          static_cast<std::size_t>(argc), &result)) {
        result = invokeRecvSpan(cls, target, slots[0], sp - argc,
                                static_cast<std::size_t>(argc));
      }
    } else if (!inlineSpanCall(target, sp - argc,
                               static_cast<std::size_t>(argc), &result)) {
      result = invokeSpan(cls, target, sp - argc,
                          static_cast<std::size_t>(argc));
    }
    sp -= argc;
    *sp++ = result;
  };
  const auto callVirtualCached = [&](std::int32_t nameIdx, std::int32_t argc,
                                     std::int32_t cacheSlot, int line)
                                     JEPO_LAMBDA_INLINE {
    const Value receiver = sp[-(argc + 1)];
    if (receiver.isNull()) {
      throwJava("NullPointerException", "call '" + name(nameIdx) +
                                            "' on null at line " +
                                            std::to_string(line));
    }
    // Fast path: a program-class object dispatches through the monomorphic
    // cache. BuiltinLibrary::instanceCall is a no-op for such receivers
    // (it charges nothing and always declines), so skipping the probe is
    // observationally identical to the seed.
    if (receiver.isRef()) {
      HeapObject& obj = heap_.get(receiver.asRef());
      if (obj.kind == ObjKind::kObject && obj.layout != nullptr &&
          obj.layout->classId >= 0) {
        CallCacheEntry& cc = callCaches_[static_cast<std::size_t>(cacheSlot)];
        if (cc.classId != obj.layout->classId) {
          const std::int32_t id = obj.layout->classId;
          const jlang::ResolvedClass& rc =
              resolution_->classes[static_cast<std::size_t>(id)];
          const jlang::ResolvedMethod* rm = rc.findMethod(name(nameIdx));
          const int ordinal = rm != nullptr ? rc.methodOrdinal(rm->decl) : -1;
          const Chunk* target =
              ordinal >= 0 ? methodChunks_[static_cast<std::size_t>(id)]
                                          [static_cast<std::size_t>(ordinal)]
                           : nullptr;
          if (target == nullptr) {
            throw VmError("unknown method " + obj.className + "." +
                          name(nameIdx) + " at line " +
                          std::to_string(line));
          }
          cc = {id, classById_[static_cast<std::size_t>(id)], target};
        }
        // receiver + args are contiguous on the caller stack — exactly
        // the callee's parameter span. No arg vector, no insert.
        charge(energy::Op::kCall);
        Value result;
        if (!inlineSpanCall(*cc.chunk, sp - argc - 1,
                            static_cast<std::size_t>(argc) + 1, &result)) {
          result = invokeSpan(*cc.cls, *cc.chunk, sp - argc - 1,
                              static_cast<std::size_t>(argc) + 1);
        }
        sp -= argc + 1;
        *sp++ = result;
        return;
      }
    }
    // Slow path: builtin receivers (strings, wrappers, exceptions,
    // StringBuilder) — the seed's dynamic dispatch, verbatim.
    std::vector<Value> args = popArgs(argc);
    (void)pop();  // the receiver, already captured above
    Value result;
    if (builtins_.instanceCall(receiver, name(nameIdx), args, &result)) {
      *sp++ = result;
      return;
    }
    const HeapObject& obj = heap_.get(receiver.asRef());
    JEPO_REQUIRE(obj.kind == ObjKind::kObject, "method call on non-object");
    const CompiledClass* targetCls = program_->findClass(obj.className);
    if (targetCls == nullptr) {
      throw VmError("method call on unknown class " + obj.className);
    }
    const auto it = targetCls->methods.find(name(nameIdx));
    if (it == targetCls->methods.end()) {
      throw VmError("unknown method " + obj.className + "." + name(nameIdx) +
                    " at line " + std::to_string(line));
    }
    args.insert(args.begin(), receiver);
    charge(energy::Op::kCall);
    *sp++ = invokeSpan(*targetCls, it->second, args.data(), args.size());
  };

  // Hoisted per-dispatch state. setMaxSteps/setHeapLimit are configuration
  // calls made before execution, never from inside a run, so both are
  // loop-invariant; keeping them in locals lets the compiler hold them in
  // registers across the opaque charge()/helper calls in the handlers.
  // When the collector is unarmed (the limit-0 seed behaviour) no
  // collection can ever happen, so recording frame.top for the root scan
  // is dead work and the whole safepoint reduces to one predictable test.
  const std::uint64_t maxStepsHoisted = maxStepsEff_;
  const bool gcArmed = gc_.limit() != 0;
  const CancelToken* const cancelHoisted = cancel_;

// Per-dispatch prologue: record the operand-stack height for the GC root
// scan (this is the engine's only safepoint — no builtin, operator helper
// or allocation path can ever collect), account the fused run length, and
// enforce the step limit plus cooperative cancellation. Every fused
// superinstruction backedge (kCountedAccumLoop dispatches through VM_TOP
// per iteration) re-runs this prologue, so cancellation is never starved
// by the fast path; with no token installed the poll is one test of a
// register-held null pointer.
#define VM_TOP()                                                     \
  do {                                                               \
    if (ip >= codeEnd) return Value::null();                         \
    steps_ += ip->n;                                                 \
    if (steps_ > maxStepsHoisted) throwStepLimit();                  \
    if (cancelHoisted != nullptr && cancelHoisted->cancelled()) {    \
      throwCancelled();                                              \
    }                                                                \
    if (gcArmed) {                                                   \
      frame.top = static_cast<std::size_t>(sp - stackBase);          \
      gc_.safepoint();                                               \
    }                                                                \
  } while (0)

#define VM_CASE(op) L_##op:
#define VM_DISPATCH()                                                \
  do {                                                               \
    VM_TOP();                                                        \
    goto* kLabels[static_cast<std::size_t>(ip->op)];                 \
  } while (0)
#define VM_NEXT()                                                    \
  do {                                                               \
    ++ip;                                                            \
    VM_DISPATCH();                                                   \
  } while (0)
#define VM_JUMP(target)                                              \
  do {                                                               \
    ip = codeBase + (target);                                        \
    VM_DISPATCH();                                                   \
  } while (0)

  // One label per Op, in ops.inc order (dispatch indexes by opcode).
  static const void* const kLabels[] = {
#define JBC_OP(name) &&L_##name,
#include "jbc/ops.inc"
  };

  for (;;) {
    try {
      VM_DISPATCH();

      VM_CASE(kConstInt) {
        charge(energy::Op::kConstLoad);
        *sp++ = Value::ofInt(
            program_->intPool[static_cast<std::size_t>(ip->a)]);
        VM_NEXT();
      }
      VM_CASE(kConstLong) {
        charge(energy::Op::kConstLoad);
        *sp++ = Value::ofLong(
            program_->intPool[static_cast<std::size_t>(ip->a)]);
        VM_NEXT();
      }
      VM_CASE(kConstFloat) {
        charge(ip->b != 0 ? energy::Op::kConstLoadPlainDecimal
                          : energy::Op::kConstLoad);
        *sp++ = Value::ofFloat(
            program_->numPool[static_cast<std::size_t>(ip->a)]);
        VM_NEXT();
      }
      VM_CASE(kConstDouble) {
        charge(ip->b != 0 ? energy::Op::kConstLoadPlainDecimal
                          : energy::Op::kConstLoad);
        *sp++ = Value::ofDouble(
            program_->numPool[static_cast<std::size_t>(ip->a)]);
        VM_NEXT();
      }
      VM_CASE(kConstStr) {
        charge(energy::Op::kConstLoad);
        // The names pool is content-deduped at compile time, so a flat
        // vector indexed by name id replaces the seed's hash lookup.
        // Lazy allocation preserves the seed's heap-allocation order.
        Ref& interned = literalByName_[static_cast<std::size_t>(ip->a)];
        if (interned == kNullRef) interned = heap_.allocString(name(ip->a));
        *sp++ = Value::ofRef(interned);
        VM_NEXT();
      }
      VM_CASE(kConstChar) {
        charge(energy::Op::kConstLoad);
        *sp++ = Value::ofChar(ip->a);
        VM_NEXT();
      }
      VM_CASE(kConstBool) {
        charge(energy::Op::kConstLoad);
        *sp++ = Value::ofBool(ip->a != 0);
        VM_NEXT();
      }
      VM_CASE(kConstNull) {
        charge(energy::Op::kConstLoad);
        *sp++ = Value::null();
        VM_NEXT();
      }

      VM_CASE(kPushDefault) {
        *sp++ = jvm::Heap::defaultValue(static_cast<ValKind>(ip->a));
        VM_NEXT();
      }

      VM_CASE(kLoad) {
        charge(energy::Op::kLocalAccess);
        *sp++ = slots[static_cast<std::size_t>(ip->a)];
        VM_NEXT();
      }
      VM_CASE(kStore) {
        storeToSlot(ip->a, ip->b, pop(), ip->line);
        VM_NEXT();
      }
      VM_CASE(kStoreDecl) {
        const Value v =
            coerceInline(pop(), static_cast<ValKind>(ip->b), builtins_,
                         ip->line);
        charge(energy::Op::kLocalAccess);
        slots[static_cast<std::size_t>(ip->a)] = v;
        VM_NEXT();
      }
      VM_CASE(kLoadThis) {
        charge(energy::Op::kLocalAccess);
        *sp++ = ip->b != 0 ? Value::null() : slots[0];
        VM_NEXT();
      }
      VM_CASE(kLoadTemp) {
        *sp++ = slots[static_cast<std::size_t>(ip->a)];
        VM_NEXT();
      }
      VM_CASE(kStoreTemp) {
        slots[static_cast<std::size_t>(ip->a)] = pop();
        VM_NEXT();
      }

      VM_CASE(kGetStatic) {
        // Builtin class names: the builtin static table first, then a
        // same-named program class's statics, as the tree reads them.
        // Locals with destructors live in a block: a computed-goto
        // dispatch out of their scope would skip the destructors.
        Value v;
        {
          const std::string& key = name(ip->a);
          const auto dot = key.find('.');
          const std::string className = key.substr(0, dot);
          const std::string fieldName = key.substr(dot + 1);
          if (!builtins_.staticField(className, fieldName, &v)) {
            ensureClassInit(className);
            const Value* slot = findStaticByName(className, fieldName);
            if (slot == nullptr) {
              throw VmError("unknown static field " + key + " at line " +
                            std::to_string(ip->line));
            }
            charge(energy::Op::kStaticAccess);
            v = *slot;
          }
        }
        *sp++ = v;
        VM_NEXT();
      }

      VM_CASE(kArrayGet) {
        const std::int64_t idx = pop().asInt();
        const Value arr = pop();
        if (arr.isNull()) {
          throwJava("NullPointerException", "array access on null at line " +
                                                std::to_string(ip->line));
        }
        HeapObject& ho = heap_.get(arr.asRef());
        JEPO_REQUIRE(ho.kind == ObjKind::kArray, "indexing a non-array");
        if (idx < 0 || static_cast<std::size_t>(idx) >= ho.elems.size()) {
          throwJava("ArrayIndexOutOfBoundsException",
                    "index " + std::to_string(idx) + " length " +
                        std::to_string(ho.elems.size()) + " at line " +
                        std::to_string(ip->line));
        }
        const Value v = ho.elems[static_cast<std::size_t>(idx)];
        const bool rowIsArray =
            v.isRef() && heap_.get(v.asRef()).kind == ObjKind::kArray;
        chargeRowLoad(arr.asRef(), idx, rowIsArray);
        *sp++ = v;
        VM_NEXT();
      }
      VM_CASE(kArraySet) {
        const std::int64_t idx = pop().asInt();
        const Value arr = pop();
        Value v = pop();
        if (arr.isNull()) {
          throwJava("NullPointerException", "store to null array");
        }
        HeapObject& ho = heap_.get(arr.asRef());
        JEPO_REQUIRE(ho.kind == ObjKind::kArray, "indexing a non-array");
        if (idx < 0 || static_cast<std::size_t>(idx) >= ho.elems.size()) {
          throwJava("ArrayIndexOutOfBoundsException",
                    "store index " + std::to_string(idx) + " length " +
                        std::to_string(ho.elems.size()));
        }
        charge(energy::Op::kArrayAccess);
        if (v.isNumeric() && ho.elemKind != ValKind::kRef &&
            ho.elemKind != ValKind::kNull) {
          v = coerceInline(v, ho.elemKind, builtins_, ip->line);
        }
        ho.elems[static_cast<std::size_t>(idx)] = v;
        VM_NEXT();
      }
      VM_CASE(kNewArray) {
        if (ip->a == 1) {
          // Single-dimension fast path: no dims vector. Same charge order
          // as allocArray on a one-level dims list.
          const std::int64_t d = pop().asInt();
          if (d < 0) {
            throwJava("NegativeArraySizeException", std::to_string(d));
          }
          charge(energy::Op::kAllocObject);
          charge(energy::Op::kAllocArrayPerElem,
                 static_cast<std::uint64_t>(d));
          *sp++ = Value::ofRef(heap_.allocArray(
              static_cast<std::size_t>(d), static_cast<ValKind>(ip->b)));
          VM_NEXT();
        }
        Value array;
        {  // destructors before the dispatch (see kGetStatic)
          std::vector<std::int64_t> dims(static_cast<std::size_t>(ip->a));
          for (int i = ip->a - 1; i >= 0; --i) {
            dims[static_cast<std::size_t>(i)] = pop().asInt();
          }
          for (std::int64_t d : dims) {
            if (d < 0) {
              throwJava("NegativeArraySizeException", std::to_string(d));
            }
          }
          array = allocArray(dims, 0, static_cast<ValKind>(ip->b));
        }
        *sp++ = array;
        VM_NEXT();
      }

      VM_CASE(kNewObject) {
        const std::int32_t argc = ip->b;
        // c > 0: the resolver bound the class and ruled out the builtin
        // constructor probe (builtin names always take the dynamic path).
        if (ip->c > 0) {
          const Value result =
              constructByIdSpan(ip->c - 1, sp - argc,
                                static_cast<std::size_t>(argc));
          sp -= argc;
          *sp++ = result;
          VM_NEXT();
        }
        *sp++ = construct(name(ip->a), popArgs(argc), ip->line);
        VM_NEXT();
      }

      VM_CASE(kBinary) {
        const Value b = pop();
        const Value a = sp[-1];
        sp[-1] = binary(static_cast<jlang::BinOp>(ip->a), a, b, ip->line);
        VM_NEXT();
      }
      VM_CASE(kIncDec) {
        sp[-1] = incDec(ip->a, sp[-1], ip->line);
        VM_NEXT();
      }
      VM_CASE(kNeg) {
        sp[-1] = jvm::applyUnaryNeg(sp[-1], builtins_, *machine_);
        VM_NEXT();
      }
      VM_CASE(kNot) {
        sp[-1] = jvm::applyUnaryNot(sp[-1], *machine_);
        VM_NEXT();
      }
      VM_CASE(kBitNot) {
        sp[-1] = jvm::applyUnaryBitNot(sp[-1], builtins_, *machine_);
        VM_NEXT();
      }
      VM_CASE(kCast) {
        const auto k = static_cast<ValKind>(ip->a);
        if (ip->b == 0) {
          // Explicit source-level cast: charge like the tree engine.
          switch (k) {
            case ValKind::kLong: charge(energy::Op::kLongAlu); break;
            case ValKind::kFloat: charge(energy::Op::kFloatAlu); break;
            case ValKind::kDouble: charge(energy::Op::kDoubleAlu); break;
            case ValKind::kByte:
            case ValKind::kShort:
              charge(energy::Op::kByteShortAlu);
              break;
            default: charge(energy::Op::kIntAlu); break;
          }
        }
        sp[-1] = coerceInline(sp[-1], k, builtins_, ip->line);
        VM_NEXT();
      }
      VM_CASE(kBox) {
        const Value v = sp[-1];
        sp[-1] = v.isNumeric() ? builtins_.box(name(ip->a), v) : v;
        VM_NEXT();
      }

      VM_CASE(kJump) {
        VM_JUMP(ip->a);
      }
      VM_CASE(kJumpIfFalse) {
        if (!sp[-1].asBool()) {
          sp -= ip->b != 0 ? 0 : 1;  // b=1 keeps the short-circuit result
          VM_JUMP(ip->a);
        }
        --sp;
        VM_NEXT();
      }
      VM_CASE(kJumpIfTrue) {
        if (sp[-1].asBool()) {
          sp -= ip->b != 0 ? 0 : 1;
          VM_JUMP(ip->a);
        }
        --sp;
        VM_NEXT();
      }
      VM_CASE(kCaseJump) {
        charge(energy::Op::kIntAlu);
        if (slots[static_cast<std::size_t>(ip->c)].asInt() ==
            program_->intPool[static_cast<std::size_t>(ip->b)]) {
          VM_JUMP(ip->a);
        }
        VM_NEXT();
      }
      VM_CASE(kCharge) {
        charge(static_cast<energy::Op>(ip->a));
        VM_NEXT();
      }
      VM_CASE(kStep) {
        VM_NEXT();
      }

      VM_CASE(kCallStatic) {
        Value result;
        bool found;
        {  // destructors before the dispatch (see kGetStatic)
          std::vector<Value> args = popArgs(ip->c);
          found = builtins_.staticCall(name(ip->a), name(ip->b), args,
                                       &result);
        }
        if (!found) {
          throw VmError("unknown method " + name(ip->a) + "." +
                        name(ip->b) + " at line " + std::to_string(ip->line));
        }
        *sp++ = result;
        VM_NEXT();
      }
      VM_CASE(kInitClass) {
        ensureClassInitById(ip->a);
        VM_NEXT();
      }
      VM_CASE(kCallStaticResolved) {
        const std::int32_t argc = ip->c;
        // args stay on the caller stack, rooted under frame.top, across
        // both the <clinit> safepoints and the callee's coercion copies.
        ensureClassInitById(ip->a);
        charge(energy::Op::kCall);
        const auto classIdx = static_cast<std::size_t>(ip->a);
        const Chunk& target =
            *methodChunks_[classIdx][static_cast<std::size_t>(ip->b)];
        Value result;
        if (!inlineSpanCall(target, sp - argc, static_cast<std::size_t>(argc),
                            &result)) {
          result = invokeSpan(*classById_[classIdx], target, sp - argc,
                              static_cast<std::size_t>(argc));
        }
        sp -= argc;
        *sp++ = result;
        VM_NEXT();
      }
      VM_CASE(kCallSelfResolved) {
        callSelfResolved(ip->a, ip->b, ip->c);
        VM_NEXT();
      }
      VM_CASE(kLoadLoadCallSelf) {
        const std::int32_t bb = ip->b;
        // Two loads with no possible throw between them: one merged charge.
        charge(energy::Op::kLocalAccess, 2);
        sp[0] = slots[static_cast<std::size_t>((bb >> 10) & 0x3FF)];
        sp[1] = slots[static_cast<std::size_t>((bb >> 20) & 0x3FF)];
        sp += 2;
        // VM_TOP recorded frame.top before these pushes; re-record it so
        // the argument span is rooted across the call's interior
        // safepoints (<clinit>, inline-callee), as the unfused call's own
        // dispatch would have.
        if (gcArmed) frame.top = static_cast<std::size_t>(sp - stackBase);
        callSelfResolved(ip->a, bb & 0x3FF, ip->c);
        VM_NEXT();
      }
      VM_CASE(kCallVirtualCached) {
        callVirtualCached(ip->a, ip->b, ip->c, ip->line);
        VM_NEXT();
      }
      VM_CASE(kLoadLoadCallVirt) {
        const std::int32_t bb = ip->b;
        // Two loads with no possible throw between them: one merged charge.
        charge(energy::Op::kLocalAccess, 2);
        sp[0] = slots[static_cast<std::size_t>((bb >> 10) & 0x3FF)];
        sp[1] = slots[static_cast<std::size_t>((bb >> 20) & 0x3FF)];
        sp += 2;
        // Root the pushed span before the call's interior safepoints; see
        // kLoadLoadCallSelf.
        if (gcArmed) frame.top = static_cast<std::size_t>(sp - stackBase);
        callVirtualCached(ip->a, bb & 0x3FF, ip->c, ip->line);
        VM_NEXT();
      }
      VM_CASE(kPrint) {
        if (ip->b != 0) {
          const Value v = pop();
          builtins_.print(&v, ip->a != 0);
        } else {
          builtins_.print(nullptr, ip->a != 0);
        }
        *sp++ = Value::null();  // expression result, popped next
        VM_NEXT();
      }

      VM_CASE(kReturnValue) {
        return pop();
      }
      VM_CASE(kReturnVoid) {
        return Value::null();
      }
      VM_CASE(kPop) {
        (void)pop();
        VM_NEXT();
      }
      VM_CASE(kDup) {
        JEPO_ASSERT(sp > stackBase);
        sp[0] = sp[-1];
        ++sp;
        VM_NEXT();
      }
      VM_CASE(kThrow) {
        const Value v = pop();
        if (v.isNull()) throwJava("NullPointerException", "throw null");
        charge(energy::Op::kThrow);
        throw Thrown{v};
      }
      VM_CASE(kRethrow) {
        throw Thrown{slots[static_cast<std::size_t>(ip->a)]};
      }
      VM_CASE(kThrowError) {
        throw VmError(name(ip->a));
      }

      VM_CASE(kGetStaticSlot) {
        if (ip->b >= 0) ensureClassInitById(ip->b);
        if (ip->a < 0) {
          throw VmError("unknown static field " + name(ip->c) + " at line " +
                        std::to_string(ip->line));
        }
        charge(energy::Op::kStaticAccess);
        *sp++ = statics_[static_cast<std::size_t>(ip->a)];
        VM_NEXT();
      }
      VM_CASE(kPutStaticSlot) {
        if (ip->b >= 0) ensureClassInitById(ip->b);
        if (ip->a < 0) {
          throw VmError("unknown static field " + name(ip->c));
        }
        charge(energy::Op::kStaticAccess);
        Value& slot = statics_[static_cast<std::size_t>(ip->a)];
        Value v = pop();
        if (slot.isNumeric() && v.isNumeric()) {
          v = coerceInline(v, slot.kind, builtins_, ip->line);
        }
        slot = v;
        VM_NEXT();
      }
      VM_CASE(kGetThisFieldSlot) {
        charge(energy::Op::kFieldAccess);
        HeapObject& self = heap_.get(slots[0].asRef());
        *sp++ = self.fields[static_cast<std::size_t>(ip->a)];
        VM_NEXT();
      }
      VM_CASE(kPutThisFieldSlot) {
        charge(energy::Op::kFieldAccess);
        Value v = pop();
        HeapObject& self = heap_.get(slots[0].asRef());
        Value& field = self.fields[static_cast<std::size_t>(ip->a)];
        if (field.isNumeric() && v.isNumeric()) {
          v = coerceInline(v, field.kind, builtins_, ip->line);
        }
        field = v;
        VM_NEXT();
      }
      VM_CASE(kGetFieldCached) {
        const Value obj = pop();
        if (obj.isNull()) {
          throwJava("NullPointerException",
                    "field '" + name(ip->a) + "' on null at line " +
                        std::to_string(ip->line));
        }
        HeapObject& ho = heap_.get(obj.asRef());
        if (ho.kind == ObjKind::kObject && ho.layout != nullptr) {
          FieldCacheEntry& fc =
              fieldCaches_[static_cast<std::size_t>(ip->b)];
          if (fc.layout != ho.layout) {
            const int offset = ho.layout->indexOfName(name(ip->a));
            if (offset >= 0) fc = {ho.layout, offset};
          }
          if (fc.layout == ho.layout) {
            charge(energy::Op::kFieldAccess);
            *sp++ = ho.fields[static_cast<std::size_t>(fc.offset)];
            VM_NEXT();
          }
        } else if (name(ip->a) == "length") {
          if (ho.kind == ObjKind::kArray) {
            charge(energy::Op::kFieldAccess);
            *sp++ = Value::ofInt(static_cast<std::int64_t>(ho.elems.size()));
            VM_NEXT();
          }
          if (ho.kind == ObjKind::kString || ho.kind == ObjKind::kBuilder) {
            // length is a method on String; guide users with a precise
            // error.
            throw VmError("use length() on strings, at line " +
                          std::to_string(ip->line));
          }
        }
        throw VmError("unknown field '" + name(ip->a) + "' at line " +
                      std::to_string(ip->line));
      }
      VM_CASE(kPutFieldCached) {
        const Value obj = pop();
        Value v = pop();
        if (obj.isNull()) {
          throwJava("NullPointerException", "store to field of null");
        }
        HeapObject& ho = heap_.get(obj.asRef());
        JEPO_REQUIRE(ho.kind == ObjKind::kObject, "field store on non-object");
        FieldCacheEntry& fc = fieldCaches_[static_cast<std::size_t>(ip->b)];
        if (ho.layout != nullptr && fc.layout != ho.layout) {
          const int offset = ho.layout->indexOfName(name(ip->a));
          if (offset >= 0) fc = {ho.layout, offset};
        }
        if (ho.layout == nullptr || fc.layout != ho.layout) {
          throw VmError("unknown field '" + name(ip->a) + "'");
        }
        Value& field = ho.fields[static_cast<std::size_t>(fc.offset)];
        charge(energy::Op::kFieldAccess);
        if (field.isNumeric() && v.isNumeric()) {
          v = coerceInline(v, field.kind, builtins_, ip->line);
        }
        field = v;
        VM_NEXT();
      }

      // --- Superinstructions. Each replays the exact charge()/error
      // sequence of the run it replaced (documented in code.hpp); the
      // fused step count was already accounted by VM_TOP via Instr::n.

      VM_CASE(kLoadLoad) {
        charge(energy::Op::kLocalAccess, 2);
        sp[0] = slots[static_cast<std::size_t>(ip->a)];
        sp[1] = slots[static_cast<std::size_t>(ip->b)];
        sp += 2;
        VM_NEXT();
      }
      VM_CASE(kStorePop) {
        storeToSlot(ip->a, ip->b, pop(), ip->line);
        VM_NEXT();
      }
      VM_CASE(kPutThisFieldSlotPop) {
        charge(energy::Op::kFieldAccess);
        Value v = pop();
        HeapObject& self = heap_.get(slots[0].asRef());
        Value& field = self.fields[static_cast<std::size_t>(ip->a)];
        if (field.isNumeric() && v.isNumeric()) {
          v = coerceInline(v, field.kind, builtins_, ip->line);
        }
        field = v;
        VM_NEXT();
      }
      VM_CASE(kConstBinary) {
        charge(energy::Op::kConstLoad);
        const Value b = Value::ofInt(
            program_->intPool[static_cast<std::size_t>(ip->a)]);
        const Value a = sp[-1];
        sp[-1] = binary(static_cast<jlang::BinOp>(ip->b), a, b, ip->line);
        VM_NEXT();
      }
      VM_CASE(kLoadConstBinary) {
        const std::int32_t bb = ip->b;
        charge(energy::Op::kLocalAccess);
        const Value a = slots[static_cast<std::size_t>(bb & 0xFFFFF)];
        charge(energy::Op::kConstLoad);
        const Value b = Value::ofInt(
            program_->intPool[static_cast<std::size_t>(ip->a)]);
        *sp++ = binary(static_cast<jlang::BinOp>((bb >> 20) & 0x1F), a, b,
                       ip->line);
        VM_NEXT();
      }
      VM_CASE(kThisFieldConstBinary) {
        const std::int32_t bb = ip->b;
        charge(energy::Op::kFieldAccess);
        const Value a = heap_.get(slots[0].asRef())
                            .fields[static_cast<std::size_t>(bb & 0xFFFFF)];
        charge(energy::Op::kConstLoad);
        const Value b = Value::ofInt(
            program_->intPool[static_cast<std::size_t>(ip->a)]);
        *sp++ = binary(static_cast<jlang::BinOp>((bb >> 20) & 0x1F), a, b,
                       ip->line);
        VM_NEXT();
      }
      VM_CASE(kThisFieldBinary) {
        charge(energy::Op::kFieldAccess);
        const Value b = heap_.get(slots[0].asRef())
                            .fields[static_cast<std::size_t>(ip->a)];
        const Value a = sp[-1];
        sp[-1] = binary(static_cast<jlang::BinOp>(ip->b), a, b, ip->line);
        VM_NEXT();
      }
      VM_CASE(kBinCastStorePop) {
        const std::int32_t bb = ip->b;
        const Value b = pop();
        const Value a = pop();
        Value r = binary(static_cast<jlang::BinOp>(bb & 0xFF), a, b,
                         ip->line);
        r = coerceInline(r, static_cast<ValKind>((bb >> 8) & 0xFF),
                              builtins_, ip->line);
        storeToSlot(ip->a, (bb >> 16) & 0xFF, r, ip->line);
        VM_NEXT();
      }
      VM_CASE(kLoadLoadBinaryReturn) {
        const std::int32_t bb = ip->b;
        charge(energy::Op::kLocalAccess, 2);
        const Value a = slots[static_cast<std::size_t>(ip->a)];
        const Value b = slots[static_cast<std::size_t>(bb & 0xFFFFF)];
        return binary(static_cast<jlang::BinOp>((bb >> 20) & 0x1F), a, b,
                      ip->line);
      }
      VM_CASE(kLoadConstCmpJump) {
        const std::int32_t bb = ip->b;
        charge(energy::Op::kBranch);
        charge(energy::Op::kLocalAccess);
        const Value a = slots[static_cast<std::size_t>(bb & 0xFFFFF)];
        charge(energy::Op::kConstLoad);
        const std::int64_t yc =
            program_->intPool[static_cast<std::size_t>(ip->c)];
        bool cond;
        if (a.kind == ValKind::kInt) {
          Value r;
          fastIntBinary(static_cast<jlang::BinOp>((bb >> 20) & 0x1F), a,
                        Value::ofInt(yc), builtins_, *machine_, &r);
          cond = r.asBool();
        } else {
          cond = jvm::applyBinary(static_cast<jlang::BinOp>((bb >> 20) & 0x1F),
                                  a, Value::ofInt(yc), heap_, builtins_,
                                  *machine_, ip->line)
                     .asBool();
        }
        if (!cond) VM_JUMP(ip->a);
        // The fused kLoopIter charge executes only on fall-through; the
        // taken branch exits the run (its target is a barrier), exactly as
        // the unfused sequence behaves.
        if (((bb >> 26) & 1) != 0) charge(energy::Op::kLoopIter);
        VM_NEXT();
      }
      VM_CASE(kLoadLoadConstBinary) {
        const std::int32_t bb = ip->b;
        // Two loads with no possible throw between them: one merged charge.
        charge(energy::Op::kLocalAccess, 2);
        const Value a = slots[static_cast<std::size_t>(bb & 0x3FF)];
        const Value b = slots[static_cast<std::size_t>((bb >> 10) & 0x3FF)];
        charge(energy::Op::kConstLoad);
        const Value k = Value::ofInt(
            program_->intPool[static_cast<std::size_t>(ip->a)]);
        sp[0] = a;
        sp[1] = binary(static_cast<jlang::BinOp>((bb >> 20) & 0x1F), b, k,
                       ip->line);
        sp += 2;
        VM_NEXT();
      }
      VM_CASE(kIncDecJump) {
        const std::int32_t bb = ip->b;
        charge(energy::Op::kLocalAccess);
        const Value r =
            incDec(bb & 0xFF, slots[static_cast<std::size_t>(ip->a)], ip->line);
        storeToSlot(ip->a, (bb >> 8) & 0xF, r, ip->line);
        VM_JUMP(ip->c);
      }
      VM_CASE(kAccumConstStmt) {
        const std::int32_t bb = ip->b;
        const std::int32_t s1 = bb & 0x3FF;
        // Two loads with no possible throw between them: one merged charge.
        charge(energy::Op::kLocalAccess, 2);
        const Value a = slots[static_cast<std::size_t>(s1)];
        const Value b = slots[static_cast<std::size_t>((bb >> 10) & 0x3FF)];
        charge(energy::Op::kConstLoad);
        const Value k = Value::ofInt(
            program_->intPool[static_cast<std::size_t>(ip->a)]);
        const Value t = binary(static_cast<jlang::BinOp>((bb >> 20) & 0x1F),
                               b, k, ip->line);
        Value r = binary(static_cast<jlang::BinOp>((bb >> 25) & 0x1F), a, t,
                         ip->line);
        const std::int32_t castE = (ip->c >> 4) & 0xF;
        if (castE != 15) {
          r = coerceInline(r, static_cast<ValKind>(castE), builtins_,
                           ip->line);
        }
        storeToSlot(s1, ip->c & 0xF, r, ip->line);
        VM_NEXT();
      }
      VM_CASE(kThisFieldAccumReturn) {
        const std::int32_t aa = ip->a;
        const std::size_t o1 = static_cast<std::size_t>(aa & 0xFFF);
        charge(energy::Op::kFieldAccess);
        HeapObject& self = heap_.get(slots[0].asRef());
        const Value a = self.fields[o1];
        charge(energy::Op::kFieldAccess);
        const Value b =
            self.fields[static_cast<std::size_t>((aa >> 12) & 0xFFF)];
        Value r = binary(static_cast<jlang::BinOp>(ip->b & 0xFF), a, b,
                         ip->line);
        const std::int32_t castE = (ip->b >> 8) & 0xF;
        if (castE != 15) {
          r = coerceInline(r, static_cast<ValKind>(castE), builtins_,
                           ip->line);
        }
        // The seed kPutThisFieldSlot store rule, then the re-read that the
        // trailing kGetThisFieldSlot performed. `self` stays valid across
        // an allocating binary: heap addresses are stable between
        // safepoints.
        charge(energy::Op::kFieldAccess);
        Value& field = self.fields[o1];
        if (field.isNumeric() && r.isNumeric()) {
          r = coerceInline(r, field.kind, builtins_, ip->line);
        }
        field = r;
        charge(energy::Op::kFieldAccess);
        return field;
      }
      // Loop-tail pairs (matchPair): each replays its two constituents'
      // charge sequences back to back, then takes the latch's jump.
      VM_CASE(kAccumConstJump) {
        const std::int32_t bb = ip->b;
        const std::uint32_t cc = static_cast<std::uint32_t>(ip->c);
        const std::int32_t s1 = bb & 0xFF;
        const std::int32_t s2 = (bb >> 8) & 0xFF;
        charge(energy::Op::kLocalAccess, 2);
        const Value a = slots[static_cast<std::size_t>(s1)];
        const Value b = slots[static_cast<std::size_t>(s2)];
        charge(energy::Op::kConstLoad);
        const Value k =
            Value::ofInt(program_->intPool[static_cast<std::size_t>(ip->a)]);
        const Value t = binary(static_cast<jlang::BinOp>((bb >> 16) & 0x1F),
                               b, k, ip->line);
        Value r = binary(static_cast<jlang::BinOp>((bb >> 21) & 0x1F), a, t,
                         ip->line);
        const std::uint32_t castE = (cc >> 20) & 0xF;
        if (castE != 15) {
          r = coerceInline(r, static_cast<ValKind>(castE), builtins_,
                           ip->line);
        }
        storeToSlot(s1, static_cast<std::int32_t>((cc >> 16) & 0xF), r,
                    ip->line);
        charge(energy::Op::kLocalAccess);
        const Value r2 = incDec((bb >> 26) & 0x1F,
                                slots[static_cast<std::size_t>(s2)], ip->line);
        storeToSlot(s2, static_cast<std::int32_t>((cc >> 24) & 0xF), r2,
                    ip->line);
        VM_JUMP(static_cast<std::int32_t>(cc & 0xFFFF));
      }
      VM_CASE(kStorePopIncDecJump) {
        const std::int32_t bb = ip->b;
        const std::int32_t cc = ip->c;
        storeToSlot(bb & 0x3FF, cc & 0xF, pop(), ip->line);
        const std::int32_t slotL = (bb >> 10) & 0x3FF;
        charge(energy::Op::kLocalAccess);
        const Value r = incDec((bb >> 20) & 0x1F,
                               slots[static_cast<std::size_t>(slotL)],
                               ip->line);
        storeToSlot(slotL, (cc >> 4) & 0xF, r, ip->line);
        VM_JUMP(ip->a);
      }
      VM_CASE(kBinCastStoreIncDecJump) {
        const std::int32_t bb = ip->b;
        const std::int32_t cc = ip->c;
        const Value vb = pop();
        const Value va = pop();
        Value r = binary(static_cast<jlang::BinOp>((bb >> 16) & 0x1F), va, vb,
                         ip->line);
        r = coerceInline(r, static_cast<ValKind>((cc >> 4) & 0xF), builtins_,
                         ip->line);
        storeToSlot(bb & 0xFF, cc & 0xF, r, ip->line);
        const std::int32_t slotL = (bb >> 8) & 0xFF;
        charge(energy::Op::kLocalAccess);
        const Value r2 = incDec((bb >> 21) & 0x1F,
                                slots[static_cast<std::size_t>(slotL)],
                                ip->line);
        storeToSlot(slotL, (cc >> 8) & 0xF, r2, ip->line);
        VM_JUMP(ip->a);
      }
      VM_CASE(kCountedAccumLoop) {
        const std::uint32_t aa = static_cast<std::uint32_t>(ip->a);
        const std::int32_t bb = ip->b;
        const std::uint32_t cc = static_cast<std::uint32_t>(ip->c);
        const std::int32_t s1 = bb & 0xFF;
        const std::int32_t s2 = (bb >> 8) & 0xFF;
        // The kLoadConstCmpJump part (its steps covered by ip->n at VM_TOP).
        charge(energy::Op::kBranch);
        charge(energy::Op::kLocalAccess);
        const Value iv = slots[static_cast<std::size_t>(s2)];
        charge(energy::Op::kConstLoad);
        const std::int64_t yc = program_->intPool[aa & 0xFFFF];
        bool cond;
        if (iv.kind == ValKind::kInt) {
          Value rc;
          fastIntBinary(static_cast<jlang::BinOp>((cc >> 10) & 0x1F), iv,
                        Value::ofInt(yc), builtins_, *machine_, &rc);
          cond = rc.asBool();
        } else {
          cond = jvm::applyBinary(static_cast<jlang::BinOp>((cc >> 10) & 0x1F),
                                  iv, Value::ofInt(yc), heap_, builtins_,
                                  *machine_, ip->line)
                     .asBool();
        }
        if (!cond) VM_NEXT();  // the implicit exit: fall through the loop
        if (((cc >> 15) & 1) != 0) charge(energy::Op::kLoopIter);
        // The kAccumConstJump part: account its steps before executing
        // it, exactly as its own dispatch would have.
        steps_ += cc & 0x3FF;
        if (steps_ > maxStepsHoisted) throwStepLimit();
        charge(energy::Op::kLocalAccess, 2);
        const Value a = slots[static_cast<std::size_t>(s1)];
        const Value b = slots[static_cast<std::size_t>(s2)];
        charge(energy::Op::kConstLoad);
        const Value k = Value::ofInt(program_->intPool[aa >> 16]);
        const Value t = binary(static_cast<jlang::BinOp>((bb >> 16) & 0x1F),
                               b, k, ip->line);
        Value r = binary(static_cast<jlang::BinOp>((bb >> 21) & 0x1F), a, t,
                         ip->line);
        const std::uint32_t castK1 = (cc >> 20) & 0xF;
        if (castK1 != 15) {
          r = coerceInline(r, static_cast<ValKind>(castK1), builtins_,
                           ip->line);
        }
        storeToSlot(s1, static_cast<std::int32_t>((cc >> 16) & 0xF), r,
                    ip->line);
        charge(energy::Op::kLocalAccess);
        const Value r2 = incDec((bb >> 26) & 0x1F,
                                slots[static_cast<std::size_t>(s2)], ip->line);
        storeToSlot(s2, static_cast<std::int32_t>((cc >> 24) & 0xF), r2,
                    ip->line);
        VM_DISPATCH();  // the implicit backedge: re-dispatch this very op
      }
    } catch (const Thrown& thrown) {
      // Exception table search, in declaration order. `ip` still addresses
      // the throwing instruction (handlers never advance it before a
      // potential throw), so the fused pc maps into the remapped ranges
      // exactly as every interior pc of its run would have.
      steps_ -= throwTailSteps(*ip);
      const auto pc = static_cast<std::size_t>(ip - codeBase);
      const std::string& thrownClass =
          heap_.get(thrown.exception.asRef()).className;
      const ExceptionEntry* match = nullptr;
      for (const auto& h : chunk.handlers) {
        if (pc < static_cast<std::size_t>(h.start) ||
            pc >= static_cast<std::size_t>(h.end)) {
          continue;
        }
        if (h.classNameIdx < 0) {  // catch-all (finally)
          match = &h;
          break;
        }
        const std::string& handlerClass =
            names[static_cast<std::size_t>(h.classNameIdx)];
        if (handlerClass == thrownClass || handlerClass == "Exception" ||
            (handlerClass == "RuntimeException" &&
             jlang::looksLikeExceptionClass(thrownClass))) {
          match = &h;
          break;
        }
      }
      if (match == nullptr) throw;
      if (match->classNameIdx >= 0) charge(energy::Op::kCatch);
      sp = stackBase;
      if (match->slot >= 0) {
        slots[static_cast<std::size_t>(match->slot)] = thrown.exception;
      } else {
        *sp++ = thrown.exception;
      }
      ip = codeBase + match->handler;
    }
  }

#undef VM_TOP
#undef VM_CASE
#undef VM_DISPATCH
#undef VM_NEXT
#undef VM_JUMP
}

jvm::Value BytecodeVm::runMain(std::string_view mainClass) {
  // Main-class selection and its errors as jvm::Interpreter::runMain.
  std::vector<const jlang::ClassDecl*> mains;
  for (const jlang::ResolvedClass& rc : resolution_->classes) {
    const jlang::MethodDecl* m = rc.decl->findMethod("main");
    if (m != nullptr && m->isStatic) mains.push_back(rc.decl);
  }
  const jlang::ClassDecl* target = nullptr;
  if (mainClass.empty()) {
    if (mains.empty()) throw VmError("no class declares static void main");
    if (mains.size() > 1) {
      std::string names;
      for (const auto* c : mains) names += concat(" ", c->name);
      throw VmError("multiple main classes; pick one of:" + names);
    }
    target = mains.front();
  } else {
    for (const auto* c : mains) {
      if (c->name == mainClass) target = c;
    }
    if (target == nullptr) {
      throw VmError("no main method in class " + std::string(mainClass));
    }
  }
  const CompiledClass& cls = *program_->findClass(target->name);
  ensureClassInit(cls.name);
  const std::uint64_t steps0 = steps_;
  const std::uint64_t heap0 = heap_.allocCount();
  const Value args = Value::ofRef(heap_.allocArray(0, ValKind::kRef));
  const Value out = invokeSpan(cls, cls.methods.at("main"), &args, 1);
  jvm::flushVmCounters(steps_ - steps0, heap_.allocCount() - heap0);
  return out;
}

jvm::Value BytecodeVm::callStatic(std::string_view className,
                                  std::string_view methodName,
                                  std::vector<Value> args) {
  const CompiledClass* cls = program_->findClass(std::string(className));
  JEPO_REQUIRE(cls != nullptr, "unknown class " + std::string(className));
  const auto it = cls->methods.find(std::string(methodName));
  JEPO_REQUIRE(it != cls->methods.end(),
               "unknown method " + std::string(methodName));
  JEPO_REQUIRE(it->second.isStatic, "method is not static");
  jvm::Gc::ScopedVector rootArgs(gc_, args);  // live across <clinit>
  ensureClassInit(cls->name);
  const std::uint64_t steps0 = steps_;
  const std::uint64_t heap0 = heap_.allocCount();
  const Value out = invokeSpan(*cls, it->second, args.data(), args.size());
  jvm::flushVmCounters(steps_ - steps0, heap_.allocCount() - heap0);
  return out;
}

void BytecodeVm::scanGcRoots(jvm::Gc::RootWalker& w) {
  for (Value& v : statics_) w.visit(v);
  // Interned literals are roots: re-executing a literal load must keep
  // returning the same Ref (the walker skips unfilled kNullRef entries).
  for (Ref& r : literalByName_) w.visit(r);
  // Every active frame's locals and live operand-stack prefix. `top` was
  // recorded at the frame's most recent dispatch safepoint; during a
  // nested call it additionally covers the argument span the callee is
  // consuming — still precise values, remapped in place by compaction.
  for (std::size_t i = 0; i < frameDepth_ && i < framePool_.size(); ++i) {
    Frame& f = *framePool_[i];
    for (std::size_t s = 0; s < f.liveSlots; ++s) w.visit(f.slots[s]);
    for (std::size_t s = 0; s < f.top; ++s) w.visit(f.stack[s]);
  }
}

}  // namespace jepo::jbc
