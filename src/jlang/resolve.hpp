// The one-time resolution pass: class field layouts, per-method local slot
// maps, flat static slots and inline-cache slot assignment.
//
// resolve() walks the AST once, right after parsing, and stamps every
// name-bearing node with its binding (see the annotation fields in
// jlang/ast.hpp). The execution engines (tree interpreter and bytecode VM)
// then run without resolving a single string on the hot path: locals are
// frame-slot indices, object fields are offsets into a flat value vector,
// statics are indices into one program-wide array, call sites dispatch
// through monomorphic inline caches backed by the per-class method tables
// built here, and MethodHooks carry program-wide u32 method ids with a
// pre-built id -> qualified-name table.
//
// The pass is purely a host-speed optimization: it never changes what a
// program computes, prints, or charges to the energy meter. Unresolvable
// names are annotated kUnresolved and keep their original
// error-at-execution semantics (dead code with bad names still only fails
// if executed).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "jlang/ast.hpp"

namespace jepo::jlang {

// ---------------------------------------------------------------------------
// Builtin-class predicates. These live in jlang (not jvm) so the resolver
// can classify names without depending on the VM; jvm::BuiltinLibrary
// delegates here, keeping one source of truth.

bool isBuiltinClassName(std::string_view name);
bool isWrapperClassName(std::string_view name);
bool looksLikeExceptionClass(std::string_view name);

// ---------------------------------------------------------------------------
// The tables below are views: every name and array lives in the resolved
// Program's arena (written there by ensureResolved(), sized once from the
// AST's declaration counts) or, for builtinExceptionLayout(), in static
// storage. A Resolution must not outlive its Program — the rule the
// engines' pointers into the AST already follow (CompiledProgram).

/// Flat instance-field layout of a class: field i of an object lives at
/// offset i of HeapObject::fields. classId < 0 marks a foreign layout
/// (builtin exception objects), whose fields resolve by name only.
struct ClassLayout {
  std::int32_t classId = -1;
  std::string_view className;
  std::span<const std::string_view> fieldNames;  // offset order (decl order)
  std::span<const TypeRef> fieldTypes;

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
  std::uint32_t methodId = kNoName;
};

struct ResolvedClass {
  const ClassDecl* decl = nullptr;
  ClassLayout layout;  // instance fields

  // Static fields, parallel arrays in declaration order. slots index the
  // program-wide flat statics array (Resolution::staticCount entries).
  std::span<const std::string_view> staticNames;
  std::span<const std::int32_t> staticSlots;

  std::span<const ResolvedMethod> methods;
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

/// A class name and the id of the first class declared with it.
struct ClassName {
  std::string_view name;
  std::int32_t classId = -1;
};

/// The shared resolution substrate both engines consume.
struct Resolution {
  std::span<const ResolvedClass> classes;  // indexed by classId
  // Sorted by name, one entry per name: the first class declared with a
  // name wins, mirroring Program::findClass.
  std::span<const ClassName> classIdByName;
  std::span<const std::string_view> methodNames;  // methodId -> "Class.method"
  std::vector<std::string_view> stringLiterals;   // strId -> content (deduped)
  std::int32_t staticCount = 0;     // flat statics array size
  std::int32_t numCallCaches = 0;   // inline call-cache sites
  std::int32_t numFieldCaches = 0;  // inline field-cache sites

  std::int32_t classIdOf(std::string_view name) const {
    const auto it = std::lower_bound(
        classIdByName.begin(), classIdByName.end(), name,
        [](const ClassName& c, std::string_view n) { return c.name < n; });
    return it != classIdByName.end() && it->name == name ? it->classId : -1;
  }
};

/// Resolve `program` once (idempotent, thread-safe, mutex-guarded):
/// computes layouts and slot maps in the Program's arena, annotates the AST
/// in place and caches the result on the Program. Engines call this at
/// construction; a Program rebuilt from cloneUnit() copies has no cache,
/// so rewritten clones re-resolve.
std::shared_ptr<const Resolution> ensureResolved(const Program& program);

/// The shared foreign layout of builtin exception-style objects: a single
/// "message" field at offset 0.
const ClassLayout& builtinExceptionLayout();

}  // namespace jepo::jlang
