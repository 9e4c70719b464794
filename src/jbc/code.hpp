// Bytecode representation — the "Javassist level" of the reproduction.
//
// JEPO's profiler injects measurement instructions into compiled method
// bodies. The jbc module makes that level real: a compiler lowers MiniJava
// methods into stack-machine chunks (with exception tables, as on the real
// JVM), and a bytecode VM executes them on the same Heap/Value/Builtin
// substrate as the tree interpreter. The compiler emits, per AST node, the
// tree interpreter's exact charge and step sequence, so the two engines are
// charge-identical: same stdout, op counts, method records and joules (the
// tree interpreter is the oracle; tests/fuzz_diff_test.cpp and
// tests/differential_test.cpp hold them together).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "jlang/ast.hpp"
#include "support/strings.hpp"
#include "jvm/value.hpp"

namespace jepo::jbc {

enum class Op : std::uint8_t {
  // Constants. a indexes the matching pool; b is a flags word.
  kConstInt,     // a -> intPool
  kConstLong,    // a -> intPool
  kConstFloat,   // a -> numPool; b=1: plain-decimal spelling
  kConstDouble,  // a -> numPool; b=1: plain-decimal spelling
  kConstStr,     // a -> names (interned at runtime)
  kConstChar,    // a = code point
  kConstBool,    // a = 0/1
  kConstNull,
  kPushDefault,  // a = ValKind: an uninitialized declaration's default
                 // value (uncharged, like the tree's)

  // Locals. a = slot; b = the slot's declared ValKind (-1: none), which an
  // assignment store coerces numeric values to.
  kLoad,
  kStore,
  kStoreDecl,  // declaration store: always coerces to b = declared kind
  kLoadThis,   // b=1: static context, pushes null
  kLoadTemp,   // compiler temporaries: no charge
  kStoreTemp,

  // Fields and statics.
  kGetStatic,  // a -> names ("Class.field"): builtin statics first

  // Arrays.
  kArrayGet,  // arr idx -> value
  kArraySet,  // value arr idx ->
  kNewArray,  // a = dim count (dims on stack), b = leaf ValKind

  // Objects.
  kNewObject,  // a -> names (class), b = argc; c = classId+1 when the
               // resolution pass bound the class (0: dynamic lookup)

  // Operators.
  kBinary,  // a = jlang::BinOp (no &&/||)
  kIncDec,  // a = BinOp kAdd/kSub: top = top +/- 1, narrowed to top's kind
  kNeg,
  kNot,
  kBitNot,
  kCast,  // a = ValKind; b=1: implicit (uncharged) coercion
  kBox,   // a -> names (wrapper class)

  // Control flow. a = target pc. The conditional jumps charge nothing (the
  // statement's kBranch/kTernary is a kCharge ahead of its condition);
  // b=1 keeps the tested value on the stack when the jump is taken (the
  // short-circuit result of && / ||).
  kJump,
  kJumpIfFalse,
  kJumpIfTrue,
  kCaseJump,  // switch label: charge kIntAlu, jump to a when the selector
              // in temp slot c equals intPool[b]
  kCharge,    // charge energy::Op a once
  kStep,      // no-op: carries Instr::n tree steps to a jump target

  // Calls. argc values on stack (receiver below them for virtual).
  kCallStatic,  // builtin classes only: a -> names (class), b -> names
                // (method), c = argc
  kInitClass,   // a = classId: run its static initializers if not yet run
  kPrint,       // a = newline flag, b = has-argument flag

  kReturnValue,
  kReturnVoid,
  kPop,
  kDup,
  kThrow,
  kRethrow,     // rethrow the exception stashed in slot a (uncharged)
  kThrowError,  // raise VmError(names[a]): a runtime error the tree
                // interpreter raises when it reaches the same node

  // Slot-resolved forms, emitted from the resolution pass's bindings
  // (jlang/resolve.hpp).
  kGetStaticSlot,       // a = global static slot (-1: resolved-missing),
                        // b = classId (-1: none), c -> names ("Class.field"
                        // error text)
  kPutStaticSlot,       // same operands; value ->
  kGetThisFieldSlot,    // a = field offset in this's layout
  kPutThisFieldSlot,    // a = field offset; value ->
  kGetFieldCached,      // a -> names (field), b = field-cache slot
  kPutFieldCached,      // a -> names (field), b = field-cache slot;
                        // value obj ->
  kCallStaticResolved,  // a = classId, b = method ordinal, c = argc
  kCallSelfResolved,    // a = method ordinal, b = argc, c = prepend-this flag
  kCallVirtualCached,   // a -> names (method), b = argc, c = call-cache slot

  // Superinstructions, produced only by the post-resolution peephole pass
  // (compiler.cpp, fuseChunk). Each one executes the exact charge()/error
  // sequence of the original instruction run it replaces and carries the
  // sum of that run's step counts in Instr::n. The pass never fuses across
  // a jump target or an exception-table boundary, and jump/handler pcs are
  // remapped after deletion. Operands are packed into a, b and c as listed
  // below (the matchers in compiler.cpp pack, the bcvm.cpp handlers
  // unpack); a site that does not fit the packing is simply left unfused.
  // A superinstruction is kept only while a benchmark workload or a gated
  // bench row dispatches it (DESIGN §6.3).
  kLoadLoad,             // [kLoad kLoad]  a = slot1, b = slot2
  kStorePop,             // [kDup kStore kPop]  a = slot, b = store-kind enc
  kPutThisFieldSlotPop,  // [kDup kPutThisFieldSlot kPop]  a = offset
  kConstBinary,          // [kConstInt kBinary]  a = intPool, b = BinOp
  kLoadConstBinary,      // [kLoad kConstInt kBinary]  a = intPool,
                         //   b = slot | BinOp<<20
  kThisFieldConstBinary, // [kGetThisFieldSlot kConstInt kBinary]
                         //   a = intPool, b = offset | BinOp<<20
  kThisFieldBinary,      // [kGetThisFieldSlot kBinary]  a = offset, b = BinOp
  kBinCastStorePop,      // [kBinary kCast(implicit) kDup kStore kPop]
                         //   a = slot, b = BinOp | castK<<8 | storeK<<16
  kLoadLoadBinaryReturn, // [kLoad kLoad kBinary kReturnValue]  a = slot1,
                         //   b = slot2 | BinOp<<20
  kLoadConstCmpJump,     // [kCharge(kBranch) kLoad kConstInt kBinary(cmp)
                         //   kJumpIfFalse (kCharge(kLoopIter))]  a = target,
                         //   c = intPool, b = slot | cmp<<20 | tick<<26
  kLoadLoadConstBinary,  // [kLoad kLoad kConstInt kBinary]  a = intPool,
                         //   b = slot1 | slot2<<10 | BinOp<<20; pushes
                         //   slots[slot1] then (slots[slot2] <op> const)
  kIncDecJump,           // [kLoad kDup kIncDec kStore kPop kJump], one slot
                         //   — the counted-loop latch `i++;` and its
                         //   backedge.  a = slot, b = BinOp | storeK<<8,
                         //   c = target
  kAccumConstStmt,       // [kLoad kLoad kConstInt kBinary kBinary (kCast
                         //   impl) kDup kStore kPop] — the accumulate
                         //   statement `s1 = s1 <op2> (s2 <op1> const)`.
                         //   a = intPool, b = s1 | s2<<10 | op1<<20 |
                         //   op2<<25, c = storeK | castK<<4 (enc 15: none)
  kThisFieldAccumReturn, // [kGetThisFieldSlot kGetThisFieldSlot kBinary
                         //   (kCast impl) kDup kPutThisFieldSlot kPop
                         //   kGetThisFieldSlot kReturnValue] — the whole
                         //   `f1 = f1 <op> f2; return f1;` body.
                         //   a = off1 | off2<<12, b = BinOp | castK<<8
                         //   (castK enc 15: none), c = the steps of the
                         //   `return f1;` run (its throw tail, below)
  kLoadLoadCallSelf,     // [kLoad kLoad kCallSelfResolved] — a and c keep
                         //   the call's operands (ordinal, prepend-this);
                         //   b = argc | slot1<<10 | slot2<<20
  kLoadLoadCallVirt,     // [kLoad kLoad kCallVirtualCached] — a and c keep
                         //   the call's operands (names, cache slot);
                         //   b = argc | slot1<<10 | slot2<<20

  // Loop-tail pairs, produced by the second peephole pass (matchPair) over
  // already-fused code: a loop-body tail statement merged with the
  // kIncDecJump latch that follows it, so a steady-state counted-loop
  // iteration dispatches once for the whole tail. Instr::n carries the
  // combined step count. Packed fields are decoded as unsigned.
  //
  // Throw tails: a fused instruction accounts all its steps at dispatch,
  // but a Java exception from its binary operator leaves the constituents
  // after it unexecuted, steps the tree interpreter never counts. The
  // instructions whose binary has stepped constituents after it carry that
  // count (the latch's steps for the pairs) in their operands, and the VM
  // un-accounts it when such an exception leaves the instruction.
  kAccumConstJump,       // [kAccumConstStmt][kIncDecJump], latch slot == s2.
                         //   a = pool1, c = target | storeK1<<16 |
                         //   castK1<<20 | storeKL<<24 | latchSteps<<28,
                         //   b = s1 | s2<<8 | bop1<<16 | bop2<<21 |
                         //   bopL<<26
  kStorePopIncDecJump,   // [kStorePop][kIncDecJump].  a = target,
                         //   b = slotS | slotL<<10 | bopL<<20,
                         //   c = storeKS | storeKL<<4
  kBinCastStoreIncDecJump, // [kBinCastStorePop][kIncDecJump].
                         //   a = target, b = slotS | slotL<<8 |
                         //   bopS<<16 | bopL<<21, c = storeKS | castKS<<4 |
                         //   storeKL<<8 | latchSteps<<12

  kCountedAccumLoop,     // Whole counted accumulate loop, produced by the
                         //   third peephole pass (matchLoop):
                         //   [kLoadConstCmpJump][kAccumConstJump] where the
                         //   cmp tests the latch slot, its false-exit is
                         //   the pc after the pair, and the latch jumps
                         //   back to the cmp. Both targets are implicit
                         //   (fall-through / self), so one dispatch runs a
                         //   whole iteration. Instr::n covers only the cmp
                         //   run; the handler accounts the body run's steps
                         //   on the taken path, preserving exact totals.
                         //   a = limitPool | pool1<<16, b as
                         //   kAccumConstJump, c = bodySteps | cmpOp<<10 |
                         //   tick<<15 | storeK1<<16 | castK1<<20 |
                         //   storeKL<<24 | latchSteps<<28
};

struct Instr {
  Op op;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
  std::int32_t line = 0;
  /// Tree-interpreter steps (statement executions plus expression
  /// evaluations) this instruction accounts for when dispatched. The
  /// compiler puts each AST node's step on the first instruction its code
  /// executes, so step totals, and where a step limit stops a run, match
  /// the tree interpreter. Superinstructions carry the sum of their run.
  std::uint32_t n = 0;
};

/// JVM-style exception table entry: pcs in [start, end) covered; on a match
/// the operand stack is cleared, the exception ref stored to `slot`, and
/// control transfers to `handler`.
struct ExceptionEntry {
  std::int32_t start = 0;
  std::int32_t end = 0;
  std::int32_t handler = 0;
  std::int32_t classNameIdx = -1;  // -1 = catch-all (finally path)
  std::int32_t slot = -1;          // -1 = leave the exception on the stack
};

struct Chunk {
  std::string qualifiedName;  // "Class.method" for the hook interface
  /// Interned program-wide method id (Resolution::methodNames index) —
  /// what MethodHooks receive, so the instrumenter's balance check is an
  /// integer compare instead of a string compare.
  std::uint32_t methodId = jlang::kNoName;
  std::vector<Instr> code;
  std::vector<ExceptionEntry> handlers;
  int numSlots = 0;
  bool isStatic = true;
  /// Parameter kinds, `this` first in instance chunks (coercion at call
  /// time).
  std::vector<jvm::ValKind> paramKinds;
  /// Dense program-wide chunk index (< CompiledProgram::chunkCount); the VM
  /// keys per-chunk tables on it.
  std::uint32_t chunkId = 0;
  /// Worst-case operand-stack depth, computed by dataflow over the
  /// pre-fusion code (a fused instruction never needs more stack than the
  /// run it replaced). Lets the VM pre-size pooled frames exactly.
  int maxStack = 0;
};

struct CompiledField {
  std::string name;
  jvm::ValKind kind = jvm::ValKind::kInt;
  bool isStatic = false;
};

struct CompiledClass {
  std::string name;
  std::int32_t classId = -1;  // index into Resolution::classes
  std::vector<CompiledField> fields;
  StringMap<Chunk> methods;  // includes ctor (== name)
  Chunk clinit;      // static field initializers (may be empty)
  Chunk initFields;  // instance field initializers (may be empty)
  bool hasMain = false;
};

struct CompiledProgram {
  std::vector<std::string> names;   // shared string/name pool
  std::vector<std::int64_t> intPool;
  std::vector<double> numPool;
  StringMap<CompiledClass> classes;
  /// Number of chunks across all classes; Chunk::chunkId is dense below it.
  std::uint32_t chunkCount = 0;
  /// The resolution substrate of the source Program (set by compile()).
  /// The slot/classId/cacheSlot operands above index its tables. Holds
  /// pointers into the source AST, so the Program must outlive execution —
  /// the same lifetime contract the tree interpreter has always had.
  std::shared_ptr<const jlang::Resolution> resolution;

  const CompiledClass* findClass(std::string_view name) const {
    const auto it = classes.find(name);
    return it == classes.end() ? nullptr : &it->second;
  }
};

/// Human-readable disassembly (for tests and debugging).
std::string disassemble(const Chunk& chunk, const CompiledProgram& program);

}  // namespace jepo::jbc
