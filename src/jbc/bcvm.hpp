// The bytecode stack machine — the engine core::Profiler runs. Shares the
// Heap/Value/BuiltinLibrary/ops substrate with the tree interpreter,
// honours the same MethodHooks interface (so the Instrumenter plugs into
// either engine), and is charge-identical to it: the compiler emits the
// tree's charge and step sequence per AST node, and the VM replays the
// tree's invocation protocol (hooks, parameter binding, kReturn) and its
// error strings. The tree interpreter stays as the test oracle.
//
// The inner loop is direct-threaded (computed goto, so GCC or Clang is
// required) and executes the compiler's superinstructions (code.hpp). A
// CompiledProgram is immutable: concurrent VMs may share one.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "energy/machine.hpp"
#include "jbc/code.hpp"
#include "jlang/resolve.hpp"
#include "jvm/builtins.hpp"
#include "jvm/gc.hpp"
#include "jvm/heap.hpp"
#include "jvm/interpreter.hpp"  // MethodHooks, Thrown
#include "support/cancel.hpp"

namespace jepo::jbc {

class BytecodeVm {
 public:
  BytecodeVm(const CompiledProgram& program, energy::SimMachine& machine);
  BytecodeVm(CompiledProgram&&, energy::SimMachine&) = delete;

  /// Install (or clear, with nullptr) method hooks. Not owned. The tier
  /// gate is hoisted here so per-call tier checks branch on a pointer,
  /// never through a virtual call (see jvm/tier.hpp).
  void setHooks(jvm::MethodHooks* hooks) {
    hooks_ = hooks;
    tier_ = hooks != nullptr ? hooks->tierGate() : nullptr;
  }
  void setMaxSteps(std::uint64_t maxSteps) {
    maxSteps_ = maxSteps;
    maxStepsEff_ = maxSteps == 0 ? ~std::uint64_t{0} : maxSteps;
  }

  /// Install (or clear, with nullptr) a cooperative cancel token, polled at
  /// the VM_TOP dispatch prologue — the engine's existing per-dispatch
  /// safepoint, which fused superinstructions (including kCountedAccumLoop's
  /// implicit backedge) re-enter every iteration, so the fast path cannot
  /// starve cancellation. A fired token throws CancelledError out of run().
  /// Host-time-only: never-fired tokens leave observables bit-identical.
  void setCancelToken(const CancelToken* token) { cancel_ = token; }

  /// Run `static void main` (the unique one, or the named class's).
  jvm::Value runMain(std::string_view mainClass = {});

  jvm::Value callStatic(std::string_view className,
                        std::string_view methodName,
                        std::vector<jvm::Value> args);

  const std::string& output() const noexcept { return out_; }
  jvm::Heap& heap() noexcept { return heap_; }

  /// Heap-object limit that arms the mark-compact collector (0 = never
  /// collect, the seed behaviour). Defaults to env JEPO_HEAP_LIMIT.
  void setHeapLimit(std::size_t objects) { gc_.setLimit(objects); }
  jvm::Gc& gc() noexcept { return gc_; }

 private:
  /// Monomorphic inline cache at one kCallVirtualCached site.
  struct CallCacheEntry {
    std::int32_t classId = -1;
    const CompiledClass* cls = nullptr;
    const Chunk* chunk = nullptr;
  };
  /// Monomorphic inline cache at one kGet/PutFieldCached site.
  struct FieldCacheEntry {
    const jlang::ClassLayout* layout = nullptr;
    std::int32_t offset = -1;
  };

  /// One pooled frame (locals + operand stack), indexed by call depth.
  /// Frames are heap-allocated so their addresses stay stable while the
  /// pool grows; the vectors are sized once per chunk shape and then
  /// reused allocation-free. `top` is the stack height recorded at the
  /// owning run()'s most recent dispatch — collections happen only at that
  /// safepoint, so [0, top) is exactly the live-operand root span (during
  /// a nested call it is stale-high by the argument span, which holds
  /// copies of callee-live values — still precise marking).
  struct Frame {
    std::vector<jvm::Value> slots;
    std::vector<jvm::Value> stack;
    std::size_t liveSlots = 0;
    std::size_t top = 0;
  };

  // Arguments arrive as spans (the caller's operand stack, rooted through
  // the caller frame, or a local vector on the cold paths).
  jvm::Value invokeSpan(const CompiledClass& cls, const Chunk& chunk,
                        const jvm::Value* args, std::size_t argc);
  jvm::Value invokeRecvSpan(const CompiledClass& cls, const Chunk& chunk,
                            const jvm::Value& recv, const jvm::Value* rest,
                            std::size_t nRest);
  /// Shared tail of every invoke flavour: frame bookkeeping, hooks,
  /// parameter binding, run, and the kReturn charge — in
  /// jvm::Interpreter::invoke's order.
  jvm::Value finishInvoke(const CompiledClass& cls, const Chunk& chunk,
                          Frame& frame);
  /// Run a <clinit>/<initfields> chunk the way the tree evaluates field
  /// initializers: in a frame of its own, without hooks, parameter or
  /// kReturn charges. `self` binds slot 0 of <initfields>.
  void runInitializer(const CompiledClass& cls, const Chunk& chunk,
                      const jvm::Value* self);
  Frame& acquireFrame(const Chunk& chunk);
  jvm::Value run(const CompiledClass& cls, const Chunk& chunk, Frame& frame);

  /// Trivial-callee inlining: a resolved call whose target body is a single
  /// fused instruction ([kLoadLoadBinaryReturn] or [kThisFieldAccumReturn],
  /// no exception table) executes without frame setup. Used only when hooks
  /// are off or a sampling gate declines the entry, and every argument kind
  /// already matches the parameter kind, so charges, step accounting,
  /// safepoint placement and throw behaviour replicate the framed call
  /// exactly. Returns false (doing nothing) when the call must take the
  /// framed path.
  bool inlineSpanCall(const Chunk& chunk, const jvm::Value* args,
                      std::size_t argc, jvm::Value* out);
  bool inlineRecvCall(const Chunk& chunk, const jvm::Value& recv,
                      const jvm::Value* rest, std::size_t nRest,
                      jvm::Value* out);

  // Class initialization: by resolved id (hot) or by name (entry points
  // and dynamic fallbacks — a no-op for names naming no program class).
  void ensureClassInit(const std::string& className);
  void ensureClassInitById(std::int32_t classId);
  /// Flat static lookup after class init; nullptr when unknown.
  jvm::Value* findStaticByName(const std::string& className,
                               const std::string& fieldName);
  jvm::Value construct(const std::string& className,
                       std::vector<jvm::Value> args, int line);
  /// Resolved construction: builtin probe already ruled out.
  jvm::Value constructByIdSpan(std::int32_t classId, const jvm::Value* args,
                               std::size_t argc);
  jvm::Value allocArray(const std::vector<std::int64_t>& dims,
                        std::size_t level, jvm::ValKind leafKind);

  void chargeRowLoad(jvm::Ref array, std::int64_t index, bool rowIsArray);
  void charge(energy::Op op, std::uint64_t n = 1) { machine_->charge(op, n); }
  [[noreturn]] void throwStepLimit() const;
  [[noreturn]] void throwCancelled() const;
  [[noreturn]] void throwJava(const std::string& cls,
                              const std::string& msg) {
    builtins_.throwJava(cls, msg);
  }

  const CompiledProgram* program_;
  std::shared_ptr<const jlang::Resolution> resolution_;
  energy::SimMachine* machine_;
  jvm::Heap heap_;
  std::string out_;
  jvm::BuiltinLibrary builtins_;
  jvm::MethodHooks* hooks_ = nullptr;
  jvm::TierGate* tier_ = nullptr;  // hoisted from hooks_->tierGate()

  // Flat execution state, indexed by resolver-assigned ids. All VM-owned:
  // concurrent VMs over one CompiledProgram share no mutable state.
  std::vector<jvm::Value> statics_;          // global static slots
  std::vector<char> classInitDone_;          // by classId
  std::vector<jvm::Ref> literalByName_;      // by names index (lazy)
  std::vector<const CompiledClass*> classById_;        // by classId
  std::vector<std::vector<const Chunk*>> methodChunks_;  // by (classId, ordinal)
  // Per-class static defaults as (global slot, kind), declaration order.
  std::vector<std::vector<std::pair<std::int32_t, jvm::ValKind>>>
      staticDefaults_;
  std::vector<std::vector<jvm::Value>> objectTemplates_;  // default fields
  std::vector<CallCacheEntry> callCaches_;   // by Instr::c cache slot
  std::vector<FieldCacheEntry> fieldCaches_; // by Instr::b cache slot

  /// By chunkId: which trivial-callee shape the chunk is (kNotTrivial when
  /// the body is anything more than one fused instruction).
  enum : std::uint8_t {
    kNotTrivial = 0,
    kTrivLoadLoadBinaryReturn,
    kTrivThisFieldAccumReturn,
  };
  std::vector<std::uint8_t> trivialKind_;

  std::vector<std::unique_ptr<Frame>> framePool_;  // by call depth

  std::uint64_t steps_ = 0;
  std::uint64_t maxSteps_ = 0;
  std::uint64_t maxStepsEff_ = ~std::uint64_t{0};
  const CancelToken* cancel_ = nullptr;
  std::size_t frameDepth_ = 0;

  jvm::Ref lastRowArray_ = 0xFFFFFFFF;
  std::int64_t lastRowIndex_ = -1;

  // Precise roots: statics, interned literals, and every active frame's
  // slots[0, liveSlots) + stack[0, top). Collects only at the
  // dispatch-loop safepoint, where top is freshly recorded.
  void scanGcRoots(jvm::Gc::RootWalker& w);
  jvm::Gc gc_;

  static constexpr jvm::Ref kNullRef = 0xFFFFFFFF;
  static constexpr std::size_t kMaxFrames = 512;
};

}  // namespace jepo::jbc
