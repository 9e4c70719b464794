// The one-time resolution pass: symbol interning, class field layouts,
// per-method local slot maps, flat static slots and inline-cache slot
// assignment.
//
// resolve() walks the AST once, right after parsing, and stamps every
// name-bearing node with its binding (see the annotation fields in
// jlang/ast.hpp). The execution engines (tree interpreter and bytecode VM)
// then run without resolving a single string on the hot path: locals are
// frame-slot indices, object fields are offsets into a flat value vector,
// statics are indices into one program-wide array, call sites dispatch
// through monomorphic inline caches backed by the per-class method tables
// built here, and MethodHooks carry interned u32 method ids with a
// pre-built id -> qualified-name table.
//
// The pass is purely a host-speed optimization: it never changes what a
// program computes, prints, or charges to the energy meter. Unresolvable
// names are annotated kUnresolved and keep their original
// error-at-execution semantics (dead code with bad names still only fails
// if executed).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "jlang/ast.hpp"
#include "support/strings.hpp"

namespace jepo::jlang {

// ---------------------------------------------------------------------------
// Builtin-class predicates. These live in jlang (not jvm) so the resolver
// can classify names without depending on the VM; jvm::BuiltinLibrary
// delegates here, keeping one source of truth.

bool isBuiltinClassName(std::string_view name);
bool isWrapperClassName(std::string_view name);
bool looksLikeExceptionClass(std::string_view name);

// ---------------------------------------------------------------------------

/// Program-wide identifier interning: one u32 per distinct spelling.
class SymbolTable {
 public:
  std::uint32_t intern(std::string_view s);
  const std::string& name(std::uint32_t id) const { return names_[id]; }
  std::size_t size() const noexcept { return names_.size(); }

 private:
  std::vector<std::string> names_;
  StringMap<std::uint32_t> ids_;
};

/// Flat instance-field layout of a class: field i of an object lives at
/// offset i of HeapObject::fields. classId < 0 marks a foreign layout
/// (builtin exception objects), whose fields resolve by name only.
struct ClassLayout {
  std::int32_t classId = -1;
  std::string className;
  std::vector<std::string> fieldNames;      // offset order (decl order)
  std::vector<std::uint32_t> fieldNameIds;  // kNoName for foreign layouts
  std::vector<TypeRef> fieldTypes;

  int indexOfName(std::string_view fieldName) const {
    for (std::size_t i = 0; i < fieldNames.size(); ++i) {
      if (fieldNames[i] == fieldName) return static_cast<int>(i);
    }
    return -1;
  }
};

/// One entry of a per-class method table, in declaration order (lookups
/// return the first match, mirroring ClassDecl::findMethod).
struct ResolvedMethod {
  const MethodDecl* decl = nullptr;
  std::uint32_t nameId = kNoName;
  std::uint32_t methodId = kNoName;
};

struct ResolvedClass {
  const ClassDecl* decl = nullptr;
  ClassLayout layout;  // instance fields

  // Static fields, parallel arrays in declaration order. slots index the
  // program-wide flat statics array (Resolution::staticCount entries).
  std::vector<std::string> staticNames;
  std::vector<TypeRef> staticTypes;
  std::vector<std::int32_t> staticSlots;

  std::vector<ResolvedMethod> methods;
  const MethodDecl* ctor = nullptr;  // first method named like the class
  // Synthetic method ids for the bytecode engine's <clinit>/<initfields>
  // chunks (the tree engine inlines this work, so it never reports them).
  std::uint32_t clinitId = kNoName;
  std::uint32_t initFieldsId = kNoName;

  /// Index into staticNames/staticSlots, or -1.
  int staticIndexOf(std::string_view fieldName) const {
    for (std::size_t i = 0; i < staticNames.size(); ++i) {
      if (staticNames[i] == fieldName) return static_cast<int>(i);
    }
    return -1;
  }

  const ResolvedMethod* findMethod(std::string_view methodName) const {
    for (const auto& m : methods) {
      if (m.decl->name == methodName) return &m;
    }
    return nullptr;
  }

  /// Ordinal of a method table entry (for bytecode operands), or -1.
  int methodOrdinal(const MethodDecl* decl) const {
    for (std::size_t i = 0; i < methods.size(); ++i) {
      if (methods[i].decl == decl) return static_cast<int>(i);
    }
    return -1;
  }
};

/// The shared resolution substrate both engines consume.
struct Resolution {
  SymbolTable symbols;
  std::vector<ResolvedClass> classes;  // indexed by classId
  // First class wins for duplicate names, mirroring Program::findClass.
  StringMap<std::int32_t> classIdByName;
  std::vector<std::string> methodNames;     // methodId -> "Class.method"
  std::vector<std::string> stringLiterals;  // strId -> content (deduped)
  std::int32_t staticCount = 0;     // flat statics array size
  std::int32_t numCallCaches = 0;   // inline call-cache sites
  std::int32_t numFieldCaches = 0;  // inline field-cache sites

  std::int32_t classIdOf(std::string_view name) const {
    const auto it = classIdByName.find(name);
    return it == classIdByName.end() ? -1 : it->second;
  }
};

/// Resolve `program` once (idempotent, thread-safe, mutex-guarded):
/// interns identifiers, computes layouts and slot maps, annotates the AST
/// in place and caches the result on the Program. Engines call this at
/// construction; a Program rebuilt from cloneUnit() copies has no cache,
/// so rewritten clones re-resolve.
std::shared_ptr<const Resolution> ensureResolved(const Program& program);

/// The shared foreign layout of builtin exception-style objects: a single
/// "message" field at offset 0.
const ClassLayout& builtinExceptionLayout();

}  // namespace jepo::jlang
