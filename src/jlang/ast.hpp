// MiniJava abstract syntax tree.
//
// One node hierarchy is shared by the parser, the canonical printer, the
// tree-walking VM, the suggestion rules, the optimizer's rewrites and the
// code-metrics calculator. Dispatch is a switch over the kind tag (cheap in
// the VM's hot loop, no virtual calls).
//
// Ownership (DESIGN.md §6): every node, child list and name of a Program
// lives in the Program's Arena, and every string is a std::string_view into
// the Program's source copy or its arena. ExprPtr/StmtPtr are plain
// non-owning pointers, nodes are trivially destructible, and no pointer or
// view into an AST may outlive its Program. Code that builds nodes for a
// Program allocates them from that Program's arena().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "jlang/arena.hpp"
#include "support/error.hpp"

namespace jepo::jlang {

struct Resolution;  // jlang/resolve.hpp
struct ClassDecl;
struct MethodDecl;
struct Program;

/// Unassigned method id sentinel.
inline constexpr std::uint32_t kNoName = 0xFFFFFFFFu;

// ---------------------------------------------------------------------------
// Resolution annotations
//
// resolve() (jlang/resolve.hpp) runs once per Program, after parsing, and
// stamps every name-bearing node with pre-computed binding information so
// the execution engines never resolve a string on the hot path. The fields
// are `mutable`: benches and tests hold `const Program`s, and lazy
// resolution at engine construction is a logically-const cache fill (it is
// guarded by a mutex inside ensureResolved()). The default state of every
// annotation means "unresolved — take the dynamic/seed path", which
// preserves error-at-execution semantics for dead code with bad names.

/// How a kVarRef (or the static half of a kFieldAccess) binds.
enum class NameRef : std::uint8_t {
  kUnresolved,     // dynamic path: reproduces the seed lookup + error
  kThis,           // the `this` reference (null in static frames)
  kLocal,          // frame slot `slot`
  kThisField,      // field of `this` at offset `slot`
  kStaticSlot,     // static: classId + global slot (slot -1: init + error)
  kBuiltinStatic,  // Integer.MAX_VALUE etc.; classId/slot as fallback
  kInstanceField,  // obj.f on an evaluated receiver, inline-cached
};

/// How a kCall / kNew dispatches.
enum class CallKind : std::uint8_t {
  kUnresolved,     // dynamic path (seed behavior, including its errors)
  kPrint,          // System.out.println/print; slot==1 → newline
  kBuiltinStatic,  // Math.sqrt etc. — name-dispatched inside BuiltinLibrary
  kStaticMethod,   // resolved Class.m(): targetClass/targetMethod/classId
  kStaticMissing,  // Class exists, method doesn't → VmError at execution
  kSelfMethod,     // unqualified m(): resolved in the enclosing class
  kSelfMissing,    // unqualified m() not found → VmError at execution
  kInstanceCached, // virtual call through a monomorphic inline cache
  kConstruct,      // new UserClass(...): targetClass/classId pre-resolved
};

// ---------------------------------------------------------------------------
// Types

enum class Prim : std::uint8_t {
  kByte, kShort, kInt, kLong, kFloat, kDouble, kChar, kBoolean,
  kVoid,
  kClass,  // className holds the name (String, StringBuilder, user classes,
           // wrapper classes Integer/Long/...)
};

struct TypeRef {
  Prim prim = Prim::kInt;
  int arrayDims = 0;           // 0 scalar, 1 T[], 2 T[][]
  std::string_view className;  // meaningful iff prim == kClass

  bool isNumeric() const noexcept {
    return arrayDims == 0 &&
           (prim == Prim::kByte || prim == Prim::kShort || prim == Prim::kInt ||
            prim == Prim::kLong || prim == Prim::kFloat ||
            prim == Prim::kDouble || prim == Prim::kChar);
  }
  bool isClass(std::string_view name) const {
    return arrayDims == 0 && prim == Prim::kClass && className == name;
  }
  bool operator==(const TypeRef&) const = default;

  static TypeRef scalar(Prim p) { return TypeRef{p, 0, {}}; }
  static TypeRef ofClass(std::string_view name, int dims = 0) {
    return TypeRef{Prim::kClass, dims, name};
  }
};

std::string typeName(const TypeRef& t);
/// Append typeName's text to `out`.
void appendTypeName(std::string& out, const TypeRef& t);

// ---------------------------------------------------------------------------
// Expressions

enum class ExprKind : std::uint8_t {
  kIntLit, kLongLit, kFloatLit, kDoubleLit, kCharLit, kStringLit, kBoolLit,
  kNullLit,
  kVarRef,       // name (local, field of this, or class name)
  kFieldAccess,  // obj.name  (also Class.staticField, array.length)
  kArrayIndex,   // arr[i]
  kBinary, kUnary, kAssign, kTernary,
  kCall,         // recv.name(args) or name(args)
  kNew,          // new Foo(args)
  kNewArray,     // new T[n] / new T[n][m]
  kCast,         // (T) expr
};

enum class BinOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,
  kLt, kGt, kLe, kGe, kEq, kNe,
  kAndAnd, kOrOr,
  kBitAnd, kBitOr, kBitXor, kShl, kShr,
};

enum class UnOp : std::uint8_t {
  kNeg, kNot, kBitNot, kPreInc, kPreDec, kPostInc, kPostDec,
};

enum class AssignOp : std::uint8_t { kSet, kAdd, kSub, kMul, kDiv, kMod };

struct Expr;
using ExprPtr = Expr*;  // arena-owned (see the file comment)

struct Expr {
  ExprKind kind;
  // Operator payloads (next to the tag, where they pack).
  BinOp binOp = BinOp::kAdd;
  UnOp unOp = UnOp::kNeg;
  AssignOp assignOp = AssignOp::kSet;
  bool scientific = false;  // float literal spelled with an exponent
  int line = 0;
  int col = 0;
  /// Longest path to a leaf, counting this node (1 for a leaf). The parser
  /// keeps it under its nesting budget, which bounds every recursive walk
  /// over the tree.
  int height = 1;

  // Literal payloads.
  std::int64_t intValue = 0;    // int/long/char/bool literals
  double floatValue = 0.0;      // float/double literals
  std::string_view strValue;    // string literal / identifier / member name

  // Children. Meaning depends on kind:
  //  kFieldAccess: a = object
  //  kArrayIndex:  a = array, b = index
  //  kBinary:      a, b
  //  kUnary:       a
  //  kAssign:      a = target lvalue, b = value
  //  kTernary:     a = cond, b = then, c = else
  //  kCall:        a = receiver (may be null), args
  //  kNew:         args; strValue = class name
  //  kNewArray:    args = dimension exprs; type = element type
  //  kCast:        a; type = target type
  ExprPtr a = nullptr, b = nullptr, c = nullptr;
  List<ExprPtr> args;
  TypeRef type;  // kNewArray element type / kCast target type

  // Resolution annotations (see top of file). Clones reset to defaults —
  // a rewritten clone re-resolves at the next engine construction.
  mutable NameRef nameRef = NameRef::kUnresolved;
  mutable CallKind callKind = CallKind::kUnresolved;
  mutable std::int32_t slot = -1;       // local slot / field offset /
                                        // static global slot / print-newline
  mutable std::int32_t classId = -1;    // owning class (statics, calls, new)
  mutable std::int32_t cacheSlot = -1;  // engine inline-cache index
  mutable std::int32_t strId = -1;      // string-literal pool id
  mutable const MethodDecl* targetMethod = nullptr;  // static/self call
  mutable const ClassDecl* targetClass = nullptr;    // call / new target

  explicit Expr(ExprKind k) : kind(k) {}
};

static_assert(std::is_trivially_destructible_v<Expr>,
              "Expr lives in a Program's arena, which runs no destructors");

/// Deep copy into `into`'s arena (nodes and strings).
ExprPtr cloneExpr(const Expr& e, Program& into);

// ---------------------------------------------------------------------------
// Statements

enum class StmtKind : std::uint8_t {
  kBlock, kVarDecl, kExprStmt, kIf, kWhile, kFor, kReturn, kThrow, kTry,
  kSwitch, kBreak, kContinue,
};

struct Stmt;
using StmtPtr = Stmt*;  // arena-owned (see the file comment)

struct CatchClause {
  std::string_view exceptionClass;
  std::string_view varName;
  StmtPtr body = nullptr;  // block
  mutable std::int32_t slot = -1;  // frame slot for varName (resolve())
};

struct SwitchCase {
  bool isDefault = false;
  std::int64_t value = 0;  // case label (int/char)
  List<StmtPtr> body;
};

struct Stmt {
  StmtKind kind;
  int line = 0;
  int col = 0;

  List<StmtPtr> body;  // kBlock statements / kFor init stmts

  // kVarDecl
  TypeRef declType;
  std::string_view declName;
  ExprPtr init = nullptr;  // may be null

  // kExprStmt / kReturn (may be null) / kThrow
  ExprPtr expr = nullptr;

  // kIf: cond, thenStmt, elseStmt(optional)
  // kWhile: cond, thenStmt=body
  // kFor: body(init decls) cond, update(exprs), thenStmt=loop body
  ExprPtr cond = nullptr;
  StmtPtr thenStmt = nullptr;
  StmtPtr elseStmt = nullptr;
  List<ExprPtr> update;

  // kTry
  StmtPtr tryBlock = nullptr;
  List<CatchClause> catches;
  StmtPtr finallyBlock = nullptr;  // may be null

  // kSwitch
  List<SwitchCase> cases;

  // kVarDecl frame slot, assigned by resolve().
  mutable std::int32_t declSlot = -1;

  explicit Stmt(StmtKind k) : kind(k) {}
};

static_assert(std::is_trivially_destructible_v<Stmt>,
              "Stmt lives in a Program's arena, which runs no destructors");

/// Deep copy into `into`'s arena (nodes and strings).
StmtPtr cloneStmt(const Stmt& s, Program& into);

// ---------------------------------------------------------------------------
// Child enumeration
//
// The one generic list of a node's child slots, in a fixed order: an
// Expr's a, b, c, args; a Stmt's init, expr, cond, update, then its
// statements (body, then, else, try, catch bodies, finally, case bodies).
// Walkers that treat every child alike build on forEachChild; walkers to
// which each kind means something different (clone, printer, resolver,
// compiler, interpreter) switch on the kind themselves. The const forms
// pass `const Expr&` / `const Stmt&`; the mutable forms pass each
// expression slot as an `ExprPtr&`, so a rewrite can replace it, and each
// child statement as a `Stmt&`.

namespace detail {

template <class E, class OnExprSlot>
void forEachExprSlot(E& e, OnExprSlot&& onExpr) {
  if (e.a) onExpr(e.a);
  if (e.b) onExpr(e.b);
  if (e.c) onExpr(e.c);
  for (auto& arg : e.args) onExpr(arg);
}

template <class S, class OnStmtSlot, class OnExprSlot>
void forEachStmtSlot(S& s, OnStmtSlot&& onStmt, OnExprSlot&& onExpr) {
  if (s.init) onExpr(s.init);
  if (s.expr) onExpr(s.expr);
  if (s.cond) onExpr(s.cond);
  for (auto& u : s.update) onExpr(u);
  for (auto& st : s.body) onStmt(st);
  if (s.thenStmt) onStmt(s.thenStmt);
  if (s.elseStmt) onStmt(s.elseStmt);
  if (s.tryBlock) onStmt(s.tryBlock);
  for (auto& c : s.catches) onStmt(c.body);
  if (s.finallyBlock) onStmt(s.finallyBlock);
  for (auto& c : s.cases) {
    for (auto& st : c.body) onStmt(st);
  }
}

}  // namespace detail

template <class OnExpr>
void forEachChild(const Expr& e, OnExpr&& onExpr) {
  detail::forEachExprSlot(e, [&](const Expr* c) { onExpr(*c); });
}

template <class OnExpr>
void forEachChild(Expr& e, OnExpr&& onExpr) {
  detail::forEachExprSlot(e, onExpr);
}

template <class OnStmt, class OnExpr>
void forEachChild(const Stmt& s, OnStmt&& onStmt, OnExpr&& onExpr) {
  detail::forEachStmtSlot(
      s, [&](const Stmt* c) { onStmt(*c); },
      [&](const Expr* c) { onExpr(*c); });
}

template <class OnStmt, class OnExpr>
void forEachChild(Stmt& s, OnStmt&& onStmt, OnExpr&& onExpr) {
  detail::forEachStmtSlot(s, [&](Stmt* c) { onStmt(*c); }, onExpr);
}

// ---------------------------------------------------------------------------
// Declarations

struct Param {
  TypeRef type;
  std::string_view name;
};

struct FieldDecl {
  TypeRef type;
  std::string_view name;
  bool isStatic = false;
  ExprPtr init = nullptr;  // may be null
  int line = 0;
  /// resolve(): instance-field offset in the class layout, or the global
  /// flat-statics slot for static fields.
  mutable std::int32_t slot = -1;
};

struct MethodDecl {
  std::string_view name;
  bool isStatic = false;
  TypeRef returnType = TypeRef::scalar(Prim::kVoid);
  List<Param> params;  // in the Program's arena
  StmtPtr body = nullptr;  // block; null only for the implicit default ctor
  int line = 0;
  /// resolve(): program-wide method id (indexes Resolution::methodNames)
  /// and the flat frame size (params + every declared local/catch var).
  mutable std::uint32_t methodId = kNoName;
  mutable std::int32_t numSlots = 0;
};

struct ClassDecl {
  std::string_view name;
  std::vector<FieldDecl> fields;
  std::vector<MethodDecl> methods;
  int line = 0;
  mutable std::int32_t classId = -1;  // resolve(): index into Resolution

  const MethodDecl* findMethod(std::string_view methodName) const;
};

/// One parsed .mjava file.
struct CompilationUnit {
  std::string fileName;
  /// The text the unit was parsed from, in the Program's arena (empty for
  /// a unit built by cloneUnit).
  std::string_view source;
  /// The length of that text; a clone keeps its original's. It sizes what
  /// is built from the unit: a clone's arena, the printed text.
  std::size_t sourceBytes = 0;
  std::string packageName;            // "" for the default package
  std::vector<std::string> imports;   // fully-qualified imported class names
  std::vector<ClassDecl> classes;
};

/// Arena bytes a Program reserves per source byte before it parses (or
/// clones) a unit: the source copy plus the AST of a typical MiniJava file
/// (about 18 bytes per source byte) fit in one block.
inline constexpr std::size_t kArenaBytesPerSourceByte = 20;

/// A set of compilation units forming one analyzable/runnable project,
/// and the arena that owns their nodes and source text. The arena is held
/// through a pointer, so moving a Program keeps every node where it is.
struct Program {
 private:
  // Declared first: destroyed last. Mutable because ensureResolved(), a
  // logically-const cache fill, writes the Resolution's tables here too.
  mutable std::unique_ptr<Arena> arena_;
  friend std::shared_ptr<const Resolution> ensureResolved(const Program&);

 public:
  std::vector<CompilationUnit> units;

  /// Cached resolution substrate (layouts, slot maps, method names, in
  /// this Program's arena) filled lazily by ensureResolved() at engine
  /// construction. A Program built from cloneUnit() copies starts without
  /// it: a rewritten clone must re-resolve.
  mutable std::shared_ptr<const Resolution> resolution;

  /// The arena this Program's nodes and strings come from (opened on first
  /// use).
  Arena& arena() {
    if (!arena_) arena_ = std::make_unique<Arena>();
    return *arena_;
  }

  const ClassDecl* findClass(std::string_view name) const;
  /// Classes that declare `static void main`.
  std::vector<const ClassDecl*> mainClasses() const;
};

/// Deep copy into `into`'s arena (rewriters clone before mutating); the
/// caller appends the result to `into.units`.
CompilationUnit cloneUnit(const CompilationUnit& unit, Program& into);

}  // namespace jepo::jlang
