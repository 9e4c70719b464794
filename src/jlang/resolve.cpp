// Resolution pass implementation. The walker mirrors the interpreter's
// dynamic lookup rules exactly — scope-by-scope local visibility (a name
// becomes visible only after its declaration statement), instance fields
// of `this` shadowed by locals, statics of the enclosing class last — so
// that annotating a binding never changes which storage a name would have
// reached at run time.
#include "jlang/resolve.hpp"

#include <mutex>
#include <utility>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace jepo::jlang {

// ---------------------------------------------------------------------------
// Builtin-class predicates (moved here from jvm::BuiltinLibrary so the
// resolver and both engines share one list).

bool isBuiltinClassName(std::string_view name) {
  return name == "Math" || name == "System" || name == "Integer" ||
         name == "Long" || name == "Double" || name == "Float" ||
         name == "Short" || name == "Byte" || name == "Character" ||
         name == "Boolean" || name == "String" || name == "StringBuilder";
}

bool isWrapperClassName(std::string_view name) {
  return name == "Integer" || name == "Long" || name == "Double" ||
         name == "Float" || name == "Short" || name == "Byte" ||
         name == "Character" || name == "Boolean";
}

bool looksLikeExceptionClass(std::string_view name) {
  return endsWith(name, "Exception") || endsWith(name, "Error");
}

// ---------------------------------------------------------------------------

std::uint32_t SymbolTable::intern(std::string_view s) {
  const auto it = ids_.find(s);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(s);
  ids_.emplace(names_.back(), id);
  return id;
}

const ClassLayout& builtinExceptionLayout() {
  static const ClassLayout layout = [] {
    ClassLayout l;
    l.classId = -1;
    l.fieldNames = {"message"};
    l.fieldNameIds = {kNoName};
    l.fieldTypes = {TypeRef::ofClass("String")};
    return l;
  }();
  return layout;
}

namespace {

/// Per-method resolution context: a scope stack mapping names to flat
/// frame slots. Slots are assigned monotonically and never reused, so a
/// method's frame size is simply the final counter value.
class MethodScope {
 public:
  void push() { scopes_.emplace_back(); }
  void pop() { scopes_.pop_back(); }

  /// Mirrors Interpreter::declareLocal + findLocal: within one scope the
  /// FIRST declaration of a name wins on lookup (the interpreter scans
  /// scope entries front to back), so a duplicate declaration gets a slot
  /// for its own initializer store but does not rebind the name.
  std::int32_t declare(std::string_view name) {
    const std::int32_t slot = nextSlot_++;
    scopes_.back().emplace_back(name, slot);
    return slot;
  }

  /// Innermost scope outward, first match within a scope.
  std::int32_t find(std::string_view name) const {
    for (auto scopeIt = scopes_.rbegin(); scopeIt != scopes_.rend();
         ++scopeIt) {
      for (const auto& [n, slot] : *scopeIt) {
        if (n == name) return slot;
      }
    }
    return -1;
  }

  std::int32_t numSlots() const noexcept { return nextSlot_; }

 private:
  std::vector<std::vector<std::pair<std::string_view, std::int32_t>>> scopes_;
  std::int32_t nextSlot_ = 0;
};

class Resolver {
 public:
  explicit Resolver(const Program& program) : program_(program) {}

  std::shared_ptr<const Resolution> run() {
    auto res = std::make_shared<Resolution>();
    res_ = res.get();
    declareClasses();
    for (auto& rc : res_->classes) resolveClassBodies(rc);
    return res;
  }

 private:
  // ------------------------------------------------------------ pass one
  void declareClasses() {
    for (const auto& unit : program_.units) {
      for (const auto& cls : unit.classes) {
        const auto classId = static_cast<std::int32_t>(res_->classes.size());
        cls.classId = classId;
        res_->classIdByName.emplace(cls.name, classId);  // first class wins
        res_->symbols.intern(cls.name);

        ResolvedClass rc;
        rc.decl = &cls;
        rc.layout.classId = classId;
        rc.layout.className = cls.name;
        for (const auto& f : cls.fields) {
          const std::uint32_t nameId = res_->symbols.intern(f.name);
          if (f.isStatic) {
            f.slot = res_->staticCount++;
            rc.staticNames.emplace_back(f.name);
            rc.staticTypes.push_back(f.type);
            rc.staticSlots.push_back(f.slot);
          } else {
            f.slot = static_cast<std::int32_t>(rc.layout.fieldNames.size());
            rc.layout.fieldNames.emplace_back(f.name);
            rc.layout.fieldNameIds.push_back(nameId);
            rc.layout.fieldTypes.push_back(f.type);
          }
        }
        for (const auto& m : cls.methods) {
          m.methodId = static_cast<std::uint32_t>(res_->methodNames.size());
          res_->methodNames.push_back(concat(cls.name, ".", m.name));
          rc.methods.push_back(
              ResolvedMethod{&m, res_->symbols.intern(m.name), m.methodId});
        }
        rc.ctor = cls.findMethod(cls.name);
        rc.clinitId = static_cast<std::uint32_t>(res_->methodNames.size());
        res_->methodNames.push_back(concat(cls.name, ".<clinit>"));
        rc.initFieldsId = static_cast<std::uint32_t>(res_->methodNames.size());
        res_->methodNames.push_back(concat(cls.name, ".<initfields>"));
        res_->classes.push_back(std::move(rc));
      }
    }
  }

  // ------------------------------------------------------------ pass two
  void resolveClassBodies(ResolvedClass& rc) {
    cls_ = &rc;
    // Field initializers run in frames without locals: statics in a static
    // frame (ensureClassInit), instance inits in an instance frame
    // (construct). Scope stack stays empty either way.
    for (const auto& f : rc.decl->fields) {
      if (!f.init) continue;
      MethodScope scope;
      scope.push();
      scope_ = &scope;
      isStatic_ = f.isStatic;
      resolveExpr(*f.init);
      scope.pop();
    }
    for (const auto& m : rc.decl->methods) {
      if (!m.body) continue;  // implicit default ctor
      MethodScope scope;
      scope.push();  // method-level scope holding the parameters
      scope_ = &scope;
      isStatic_ = m.isStatic;
      for (const auto& p : m.params) scope.declare(p.name);
      resolveBlockInPlace(*m.body);
      scope.pop();
      m.numSlots = scope.numSlots();
    }
    scope_ = nullptr;
  }

  /// True when `name` is a class name as the interpreter's isClassName
  /// sees it (builtin or program class).
  bool isClassName(std::string_view name) const {
    return isBuiltinClassName(name) || res_->classIdOf(name) >= 0;
  }

  // ---------------------------------------------------------- statements

  /// Resolve a block's statements inside a fresh scope (execBlock).
  void resolveBlock(const Stmt& s) {
    scope_->push();
    resolveBlockInPlace(s);
    scope_->pop();
  }

  void resolveBlockInPlace(const Stmt& s) {
    JEPO_ASSERT(s.kind == StmtKind::kBlock);
    for (const auto& st : s.body) resolveStmt(*st);
  }

  void resolveStmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kBlock:
        resolveBlock(s);
        return;
      case StmtKind::kVarDecl:
        // The initializer is evaluated before the name becomes visible
        // (`int x = x + 1` reads the outer x or fails).
        if (s.init) resolveExpr(*s.init);
        s.declSlot = scope_->declare(s.declName);
        return;
      case StmtKind::kExprStmt:
        resolveExpr(*s.expr);
        return;
      case StmtKind::kIf:
        resolveExpr(*s.cond);
        resolveStmt(*s.thenStmt);
        if (s.elseStmt) resolveStmt(*s.elseStmt);
        return;
      case StmtKind::kWhile:
        resolveExpr(*s.cond);
        resolveStmt(*s.thenStmt);
        return;
      case StmtKind::kFor: {
        scope_->push();  // for-init scope
        for (const auto& init : s.body) resolveStmt(*init);
        if (s.cond) resolveExpr(*s.cond);
        resolveStmt(*s.thenStmt);
        for (const auto& u : s.update) resolveExpr(*u);
        scope_->pop();
        return;
      }
      case StmtKind::kReturn:
        if (s.expr) resolveExpr(*s.expr);
        return;
      case StmtKind::kThrow:
        resolveExpr(*s.expr);
        return;
      case StmtKind::kTry: {
        resolveStmt(*s.tryBlock);
        for (const auto& clause : s.catches) {
          scope_->push();  // catch-variable scope wrapping the body block
          clause.slot = scope_->declare(clause.varName);
          resolveStmt(*clause.body);
          scope_->pop();
        }
        if (s.finallyBlock) resolveStmt(*s.finallyBlock);
        return;
      }
      case StmtKind::kSwitch:
        // Case bodies execute in the enclosing scope (no implicit block).
        resolveExpr(*s.cond);
        for (const auto& c : s.cases) {
          for (const auto& st : c.body) resolveStmt(*st);
        }
        return;
      case StmtKind::kBreak:
      case StmtKind::kContinue:
        return;
    }
    throw Error("unhandled statement kind in resolver");
  }

  // ---------------------------------------------------------- expressions

  void resolveExpr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit:
      case ExprKind::kLongLit:
      case ExprKind::kFloatLit:
      case ExprKind::kDoubleLit:
      case ExprKind::kCharLit:
      case ExprKind::kBoolLit:
      case ExprKind::kNullLit:
        return;
      case ExprKind::kStringLit: {
        const auto it = literalIds_.find(e.strValue);
        if (it != literalIds_.end()) {
          e.strId = it->second;
        } else {
          e.strId = static_cast<std::int32_t>(res_->stringLiterals.size());
          res_->stringLiterals.emplace_back(e.strValue);
          literalIds_.emplace(e.strValue, e.strId);
        }
        return;
      }
      case ExprKind::kVarRef:
        resolveVarRef(e);
        return;
      case ExprKind::kFieldAccess:
        resolveFieldAccess(e);
        return;
      case ExprKind::kArrayIndex:
        resolveExpr(*e.a);
        resolveExpr(*e.b);
        return;
      case ExprKind::kBinary:
        resolveExpr(*e.a);
        resolveExpr(*e.b);
        return;
      case ExprKind::kUnary:
        resolveExpr(*e.a);
        return;
      case ExprKind::kAssign:
        // The target node's own annotation drives storeTo; compound
        // assignment reads through the same node.
        resolveExpr(*e.a);
        resolveExpr(*e.b);
        return;
      case ExprKind::kTernary:
        resolveExpr(*e.a);
        resolveExpr(*e.b);
        resolveExpr(*e.c);
        return;
      case ExprKind::kCall:
        resolveCall(e);
        return;
      case ExprKind::kNew:
        resolveNew(e);
        return;
      case ExprKind::kNewArray:
        for (const auto& d : e.args) resolveExpr(*d);
        return;
      case ExprKind::kCast:
        resolveExpr(*e.a);
        return;
    }
    throw Error("unhandled expression kind in resolver");
  }

  void resolveVarRef(const Expr& e) {
    e.nameId = res_->symbols.intern(e.strValue);
    if (e.strValue == "this") {
      e.nameRef = NameRef::kThis;
      return;
    }
    const std::int32_t local = scope_ ? scope_->find(e.strValue) : -1;
    if (local >= 0) {
      e.nameRef = NameRef::kLocal;
      e.slot = local;
      return;
    }
    // Instance field of `this` (only reachable when a `this` exists).
    if (!isStatic_) {
      const int offset = cls_->layout.indexOfName(e.strValue);
      if (offset >= 0) {
        e.nameRef = NameRef::kThisField;
        e.slot = offset;
        return;
      }
    }
    const int st = cls_->staticIndexOf(e.strValue);
    if (st >= 0) {
      e.nameRef = NameRef::kStaticSlot;
      e.classId = cls_->layout.classId;
      e.slot = cls_->staticSlots[static_cast<std::size_t>(st)];
      return;
    }
    e.nameRef = NameRef::kUnresolved;  // error at execution, as before
  }

  /// The `Class.member` shape test the interpreter applies: a VarRef
  /// receiver naming no local but naming a class.
  bool isClassNameReceiver(const Expr& receiver) const {
    return receiver.kind == ExprKind::kVarRef &&
           (scope_ == nullptr || scope_->find(receiver.strValue) < 0) &&
           isClassName(receiver.strValue);
  }

  void annotateStatic(const Expr& e, std::string_view className) {
    const std::int32_t classId = res_->classIdOf(className);
    e.classId = classId;
    if (classId >= 0) {
      const ResolvedClass& owner =
          res_->classes[static_cast<std::size_t>(classId)];
      const int st = owner.staticIndexOf(e.strValue);
      e.slot = st >= 0 ? owner.staticSlots[static_cast<std::size_t>(st)] : -1;
    } else {
      e.slot = -1;
    }
    // Builtin names keep the builtins-first read order (Integer.MAX_VALUE
    // wins over a same-named program static, as at run time).
    e.nameRef = isBuiltinClassName(className) ? NameRef::kBuiltinStatic
                                              : NameRef::kStaticSlot;
  }

  void resolveFieldAccess(const Expr& e) {
    e.nameId = res_->symbols.intern(e.strValue);
    if (isClassNameReceiver(*e.a)) {
      annotateStatic(e, e.a->strValue);
      return;  // the receiver VarRef is never evaluated
    }
    e.nameRef = NameRef::kInstanceField;
    e.cacheSlot = res_->numFieldCaches++;
    resolveExpr(*e.a);
  }

  void resolveCall(const Expr& e) {
    e.nameId = res_->symbols.intern(e.strValue);
    // System.out.println / print, matched on receiver shape.
    if (e.a && e.a->kind == ExprKind::kFieldAccess && e.a->strValue == "out" &&
        e.a->a && e.a->a->kind == ExprKind::kVarRef &&
        e.a->a->strValue == "System" &&
        (e.strValue == "println" || e.strValue == "print")) {
      e.callKind = CallKind::kPrint;
      e.slot = e.strValue == "println" ? 1 : 0;
      for (const auto& a : e.args) resolveExpr(*a);
      return;  // receiver shape never evaluated
    }

    // Static call: ClassName.method(...).
    if (e.a && isClassNameReceiver(*e.a)) {
      const std::string_view className = e.a->strValue;
      for (const auto& a : e.args) resolveExpr(*a);
      if (isBuiltinClassName(className)) {
        e.callKind = CallKind::kBuiltinStatic;
        return;
      }
      const std::int32_t classId = res_->classIdOf(className);
      JEPO_ASSERT(classId >= 0);
      const ResolvedClass& owner =
          res_->classes[static_cast<std::size_t>(classId)];
      const ResolvedMethod* m = owner.findMethod(e.strValue);
      e.classId = classId;
      e.targetClass = owner.decl;
      if (m == nullptr) {
        e.callKind = CallKind::kStaticMissing;
        return;
      }
      e.callKind = CallKind::kStaticMethod;
      e.targetMethod = m->decl;
      return;
    }

    // Unqualified call: method of the enclosing class.
    if (!e.a) {
      for (const auto& a : e.args) resolveExpr(*a);
      const ResolvedMethod* m = cls_->findMethod(e.strValue);
      e.targetClass = cls_->decl;
      e.classId = cls_->layout.classId;
      if (m == nullptr) {
        e.callKind = CallKind::kSelfMissing;
        return;
      }
      e.callKind = CallKind::kSelfMethod;
      e.targetMethod = m->decl;
      return;
    }

    // Instance call through an inline cache.
    e.callKind = CallKind::kInstanceCached;
    e.cacheSlot = res_->numCallCaches++;
    resolveExpr(*e.a);
    for (const auto& a : e.args) resolveExpr(*a);
  }

  void resolveNew(const Expr& e) {
    for (const auto& a : e.args) resolveExpr(*a);
    const std::int32_t classId = res_->classIdOf(e.strValue);
    // Builtin names (String, StringBuilder, wrappers) keep the dynamic
    // path — BuiltinLibrary::construct wins over same-named user classes,
    // exactly as at run time.
    if (classId >= 0 && !isBuiltinClassName(e.strValue)) {
      e.callKind = CallKind::kConstruct;
      e.classId = classId;
      e.targetClass = res_->classes[static_cast<std::size_t>(classId)].decl;
      return;
    }
    e.callKind = CallKind::kUnresolved;
  }

  const Program& program_;
  Resolution* res_ = nullptr;
  ResolvedClass* cls_ = nullptr;
  MethodScope* scope_ = nullptr;
  bool isStatic_ = true;
  // Keys view the program's literals, which outlive the resolver.
  std::unordered_map<std::string_view, std::int32_t> literalIds_;
};

std::mutex& resolutionMutex() {
  static std::mutex m;
  return m;
}

}  // namespace

std::shared_ptr<const Resolution> ensureResolved(const Program& program) {
  std::lock_guard<std::mutex> lock(resolutionMutex());
  if (program.resolution) return program.resolution;
  program.resolution = Resolver(program).run();
  return program.resolution;
}

}  // namespace jepo::jlang
