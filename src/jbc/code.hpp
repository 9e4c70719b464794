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
#include <string_view>
#include <vector>

#include "jlang/ast.hpp"
#include "support/strings.hpp"
#include "jvm/value.hpp"

namespace jepo::jbc {

// The opcodes. src/jbc/ops.inc is the one list that names and orders them.
enum class Op : std::uint8_t {
#define JBC_OP(name) name,
#include "jbc/ops.inc"
};

/// Each Op's name without its `k`, in Op order (what disassemble() prints).
inline constexpr std::string_view kOpNames[] = {
#define JBC_OP(name) std::string_view(#name).substr(1),
#include "jbc/ops.inc"
};
inline constexpr std::size_t kOpCount = std::size(kOpNames);
constexpr std::string_view opName(Op op) {
  return kOpNames[static_cast<std::size_t>(op)];
}
/// Superinstructions run from here to the end of ops.inc.
inline constexpr Op kFirstSuperinstruction = Op::kLoadLoad;

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
