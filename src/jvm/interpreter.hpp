// Tree-walking interpreter for MiniJava with energy accounting.
//
// Every evaluated node charges the SimMachine's meter with the Ops of
// DESIGN.md's taxonomy — this is how "running the refactored WEKA and
// re-measuring with RAPL" is reproduced: the VM literally executes both
// versions and the energy difference is read back through the simulated
// MSRs. A row-cache on 2-D array access makes column-major traversal
// expensive *emergently* rather than by pattern-matching the source.
//
// The interpreter consumes the resolution substrate (jlang/resolve.hpp):
// frames are flat slot arrays, statics live in one program-wide vector,
// object fields are layout offsets, and call/field sites dispatch through
// monomorphic inline caches. The charge sequence, printed output and
// error strings are bit-identical to the pre-resolution engine — only
// host time changes (tests/differential_test.cpp holds the goldens).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "energy/machine.hpp"
#include "jlang/ast.hpp"
#include "jlang/resolve.hpp"
#include "jvm/builtins.hpp"
#include "jvm/gc.hpp"
#include "jvm/heap.hpp"
#include "jvm/value.hpp"

namespace jepo::jvm {

/// A Java exception in flight (propagated as a C++ exception).
struct Thrown {
  Value exception;  // ref to a heap object whose className names the type
};

/// Identity of an executing method as the hooks see it: the program-wide
/// method id plus a view of its qualified name in a stable table (the
/// resolution's id -> name table, or the bytecode chunk's name). Comparing
/// two refs is two integer/pointer compares; the name is only ever *read*,
/// never rebuilt, on the hot path.
struct MethodRef {
  std::uint32_t id = jlang::kNoName;
  std::string_view qualifiedName;

  std::string_view name() const { return qualifiedName; }
  bool operator==(const MethodRef& o) const noexcept {
    return id == o.id && qualifiedName.data() == o.qualifiedName.data();
  }
};

class TierGate;

/// Method entry/exit callbacks — the seam where the Instrumenter injects
/// the RAPL-reading profiler (the analog of JEPO's Javassist bytecode).
class MethodHooks {
 public:
  virtual ~MethodHooks() = default;
  virtual void onEnter(const MethodRef& method) = 0;
  virtual void onExit(const MethodRef& method) = 0;

  /// Sampling gate for tiered instrumentation (jvm/tier.hpp), or nullptr
  /// for full instrumentation. Engines hoist this once at setHooks time
  /// and branch on the pointer per call — never a virtual call on the
  /// unsampled path. nullptr keeps the seed-exact full-instrumentation
  /// dispatch.
  virtual TierGate* tierGate() noexcept { return nullptr; }
};

/// Adds one engine run's step and heap-allocation deltas to the global obs
/// counters (vm.steps, vm.heap.objects). Both engines call it once per
/// completed entry-point call, so it is not gated on obs::enabled() — bench
/// --json reports always see the totals.
void flushVmCounters(std::uint64_t stepsDelta, std::size_t heapDelta);

class Interpreter {
 public:
  Interpreter(const jlang::Program& program, energy::SimMachine& machine);
  /// The interpreter keeps a pointer to the program; a temporary would
  /// dangle before the first run.
  Interpreter(jlang::Program&&, energy::SimMachine&) = delete;

  /// Install (or clear, with nullptr) method hooks. Not owned. The hooks'
  /// tier gate is hoisted here so per-call tier checks are one pointer
  /// test, not a virtual call.
  void setHooks(MethodHooks* hooks) {
    hooks_ = hooks;
    tier_ = hooks != nullptr ? hooks->tierGate() : nullptr;
  }

  /// Abort with VmError once this many statements/expressions have executed
  /// (runaway-loop guard for tests). 0 disables the limit.
  void setMaxSteps(std::uint64_t maxSteps) { maxSteps_ = maxSteps; }

  /// Run `static void main(String[] args)`. If mainClass is empty the
  /// program must contain exactly one main class (JEPO prompts the user
  /// otherwise; the API surfaces that as an error listing the candidates).
  Value runMain(std::string_view mainClass = {});

  /// Call a static method directly (test/bench entry point).
  Value callStatic(std::string_view className, std::string_view methodName,
                   std::vector<Value> args);

  /// Everything println'd so far.
  const std::string& output() const noexcept { return out_; }

  Heap& heap() noexcept { return heap_; }
  energy::SimMachine& machine() noexcept { return *machine_; }

  /// Heap-object limit that arms the mark-compact collector (0 = never
  /// collect, the seed behaviour). Defaults to env JEPO_HEAP_LIMIT.
  void setHeapLimit(std::size_t objects) { gc_.setLimit(objects); }
  Gc& gc() noexcept { return gc_; }

  /// Allocate a VM string (for building argument lists in tests).
  Value makeString(std::string s) {
    return Value::ofRef(heap_.allocString(std::move(s)));
  }

  /// Human-readable rendering used by println and by tests.
  std::string display(const Value& v) const { return builtins_.display(v); }

 private:
  struct Frame {
    const jlang::ClassDecl* cls = nullptr;
    Value thisValue;  // null for static frames
    // Flat slot array: params at 0..n-1, then every declared local in
    // resolution order (MethodDecl::numSlots total).
    std::vector<Value> locals;
  };

  /// Monomorphic inline cache at one instance-call site.
  struct CallCache {
    std::int32_t classId = -1;
    const jlang::ClassDecl* cls = nullptr;
    const jlang::MethodDecl* method = nullptr;
  };

  /// Monomorphic inline cache at one instance-field site.
  struct FieldCache {
    const jlang::ClassLayout* layout = nullptr;
    std::int32_t offset = -1;
  };

  enum class Flow { kNormal, kBreak, kContinue, kReturn };

  // Statement execution.
  Flow execStmt(const jlang::Stmt& s);
  Flow execBlock(const jlang::Stmt& s);

  // Expression evaluation.
  Value eval(const jlang::Expr& e);
  Value evalBinary(const jlang::Expr& e);
  Value evalUnary(const jlang::Expr& e);
  Value evalAssign(const jlang::Expr& e);
  Value evalTernary(const jlang::Expr& e);
  Value evalCall(const jlang::Expr& e);
  Value evalNew(const jlang::Expr& e);
  Value evalNewArray(const jlang::Expr& e);
  Value evalCast(const jlang::Expr& e);
  Value evalVarRef(const jlang::Expr& e);
  Value evalFieldAccess(const jlang::Expr& e);
  Value evalArrayIndex(const jlang::Expr& e);

  // Lvalue stores (shared by assignment and ++/--).
  void storeTo(const jlang::Expr& target, Value v);

  // Arithmetic with Java promotion rules + energy charging.
  Value arith(jlang::BinOp op, Value a, Value b, int line);

  // Method machinery.
  Value invoke(const jlang::ClassDecl& cls, const jlang::MethodDecl& m,
               Value thisValue, std::vector<Value> args);
  Value construct(std::string_view className, std::vector<Value> args,
                  int line);
  Value constructResolved(const jlang::ResolvedClass& rc,
                          std::vector<Value> args);

  // Class initialization: by resolved id (hot) or by name (entry points,
  // unresolved fallbacks — a no-op for names that resolve to no class).
  void ensureClassInit(std::string_view className);
  void ensureClassInitById(std::int32_t classId);

  /// Seed-order static lookup: initialize the class, then resolve the
  /// field to its global slot. nullptr when the class has no such static.
  Value* findStaticByName(std::string_view className,
                          std::string_view field);
  /// Global-slot static access after classId-init (slot < 0: the resolver
  /// proved the field missing — init still ran, as it would have).
  Value* staticAt(std::int32_t classId, std::int32_t slot);

  std::vector<Value> evalArgs(const jlang::Expr& call);

  // Exceptions raised by the VM itself (NPE, /0, bounds).
  [[noreturn]] void throwJava(const std::string& className,
                              const std::string& message);

  // Array row-cache (column-traversal penalty; see DESIGN.md §5.1).
  void chargeRowLoad(Ref array, std::int64_t index, bool loadedRowIsArray);

  // Value coercions.
  Value coerceToKind(Value v, ValKind k, int line);
  static ValKind kindOfType(const jlang::TypeRef& t);

  void step();
  void charge(energy::Op op, std::uint64_t n = 1) {
    machine_->charge(op, n);
  }

  // Precise GC roots: frames (this + locals), the in-flight return value,
  // static slots and the lazy literal pool. Temporaries live across
  // safepoints register through Gc scoped guards at their use sites.
  void scanGcRoots(Gc::RootWalker& w);

  const jlang::Program* program_;
  std::shared_ptr<const jlang::Resolution> resolution_;
  energy::SimMachine* machine_;
  Heap heap_;
  std::string out_;  // declared before builtins_, which holds a reference
  BuiltinLibrary builtins_;
  MethodHooks* hooks_ = nullptr;
  TierGate* tier_ = nullptr;  // hoisted from hooks_->tierGate()

  std::deque<Frame> frames_;
  Value returnValue_;

  // Flat execution state, all indexed by resolver-assigned ids. Engine-
  // owned (not stored on the shared Resolution) so concurrent interpreters
  // over one Program never share mutable state.
  std::vector<Value> statics_;              // global static slots
  std::vector<char> classInitDone_;         // by classId
  std::vector<Ref> literalPool_;            // by strId (lazy, kNullRef)
  std::vector<std::vector<Value>> objectTemplates_;  // default fields
  std::vector<CallCache> callCaches_;       // by Expr::cacheSlot
  std::vector<FieldCache> fieldCaches_;     // by Expr::cacheSlot

  std::uint64_t steps_ = 0;
  std::uint64_t maxSteps_ = 0;

  // Row cache for the 2-D locality model.
  Ref lastRowArray_ = 0xFFFFFFFF;
  std::int64_t lastRowIndex_ = -1;

  // Declared after every root container it scans; collects only at the
  // execStmt safepoint.
  Gc gc_;

  static constexpr Ref kNullRef = 0xFFFFFFFF;
  static constexpr std::size_t kMaxFrames = 512;
};

}  // namespace jepo::jvm
