// Resolution pass implementation. The walker mirrors the interpreter's
// dynamic lookup rules exactly — scope-by-scope local visibility (a name
// becomes visible only after its declaration statement), instance fields
// of `this` shadowed by locals, statics of the enclosing class last — so
// that annotating a binding never changes which storage a name would have
// reached at run time.
#include "jlang/resolve.hpp"

#include <algorithm>
#include <functional>
#include <mutex>

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

const ClassLayout& builtinExceptionLayout() {
  static constexpr std::string_view kNames[] = {"message"};
  static const TypeRef kTypes[] = {TypeRef::ofClass("String")};
  static const ClassLayout layout{-1, {}, kNames, kTypes};
  return layout;
}

namespace {

/// Per-method resolution context: one flat stack of (name, slot) entries
/// with a mark where each open scope begins. Slots are assigned
/// monotonically and never reused, so a method's frame size is simply the
/// final counter value. One MethodScope serves every method of a resolve.
class MethodScope {
 public:
  MethodScope() {
    entries_.reserve(64);
    marks_.reserve(16);
  }

  /// Start a method (or a field initializer) with one empty scope.
  void begin() {
    entries_.clear();
    marks_.clear();
    nextSlot_ = 0;
    push();
  }
  void push() { marks_.push_back(entries_.size()); }
  void pop() {
    entries_.resize(marks_.back());
    marks_.pop_back();
  }

  /// Mirrors Interpreter::declareLocal + findLocal: within one scope the
  /// FIRST declaration of a name wins on lookup (the interpreter scans
  /// scope entries front to back), so a duplicate declaration gets a slot
  /// for its own initializer store but does not rebind the name.
  std::int32_t declare(std::string_view name) {
    const std::int32_t slot = nextSlot_++;
    entries_.push_back({name, slot});
    return slot;
  }

  /// Innermost scope outward, first match within a scope.
  std::int32_t find(std::string_view name) const {
    std::size_t end = entries_.size();
    for (auto mark = marks_.rbegin(); mark != marks_.rend(); ++mark) {
      for (std::size_t i = *mark; i < end; ++i) {
        if (entries_[i].name == name) return entries_[i].slot;
      }
      end = *mark;
    }
    return -1;
  }

  std::int32_t numSlots() const noexcept { return nextSlot_; }

 private:
  struct Entry {
    std::string_view name;
    std::int32_t slot;
  };
  std::vector<Entry> entries_;
  std::vector<std::size_t> marks_;  // entries_ index where each scope starts
  std::int32_t nextSlot_ = 0;
};

class Resolver {
 public:
  Resolver(const Program& program, Arena& arena)
      : program_(program), arena_(arena) {}

  std::shared_ptr<const Resolution> run() {
    auto res = std::make_shared<Resolution>();
    res_ = res.get();
    declareClasses();
    for (auto& rc : classes_) resolveClassBodies(rc);
    return res;
  }

 private:
  // ------------------------------------------------------------ pass one
  void declareClasses() {
    // Count the declarations so every table is carved from the arena once.
    std::size_t numClasses = 0, numInstance = 0, numStatic = 0;
    std::size_t numMethods = 0;
    for (const auto& unit : program_.units) {
      for (const auto& cls : unit.classes) {
        ++numClasses;
        for (const auto& f : cls.fields) {
          ++(f.isStatic ? numStatic : numInstance);
        }
        numMethods += cls.methods.size();
      }
    }
    classes_ = arena_.array<ResolvedClass>(numClasses);
    const auto classNames = arena_.array<ClassName>(numClasses);
    const auto fieldNames = arena_.array<std::string_view>(numInstance);
    const auto fieldTypes = arena_.array<TypeRef>(numInstance);
    const auto staticNames = arena_.array<std::string_view>(numStatic);
    const auto staticSlots = arena_.array<std::int32_t>(numStatic);
    const auto methods = arena_.array<ResolvedMethod>(numMethods);
    const auto methodNames =
        arena_.array<std::string_view>(numMethods + 2 * numClasses);

    std::size_t classId = 0, instance = 0, method = 0, methodId = 0;
    for (const auto& unit : program_.units) {
      for (const auto& cls : unit.classes) {
        cls.classId = static_cast<std::int32_t>(classId);
        classNames[classId] = {cls.name, cls.classId};
        ResolvedClass& rc = classes_[classId++];
        rc.decl = &cls;
        rc.layout.classId = cls.classId;
        rc.layout.className = cls.name;
        const std::size_t firstInstance = instance;
        const auto firstStatic = static_cast<std::size_t>(res_->staticCount);
        for (const auto& f : cls.fields) {
          if (f.isStatic) {
            f.slot = res_->staticCount++;
            staticNames[static_cast<std::size_t>(f.slot)] = f.name;
            staticSlots[static_cast<std::size_t>(f.slot)] = f.slot;
          } else {
            f.slot = static_cast<std::int32_t>(instance - firstInstance);
            fieldNames[instance] = f.name;
            fieldTypes[instance++] = f.type;
          }
        }
        rc.layout.fieldNames = fieldNames.subspan(firstInstance,
                                                  instance - firstInstance);
        rc.layout.fieldTypes = fieldTypes.subspan(firstInstance,
                                                  instance - firstInstance);
        rc.staticNames = staticNames.subspan(
            firstStatic, static_cast<std::size_t>(res_->staticCount) -
                             firstStatic);
        rc.staticSlots = staticSlots.subspan(firstStatic,
                                             rc.staticNames.size());
        rc.methods = methods.subspan(method, cls.methods.size());
        for (const auto& m : cls.methods) {
          m.methodId = static_cast<std::uint32_t>(methodId);
          methodNames[methodId++] = qualify(cls.name, m.name);
          methods[method++] = ResolvedMethod{&m, m.methodId};
        }
        rc.ctor = cls.findMethod(cls.name);
        rc.clinitId = static_cast<std::uint32_t>(methodId);
        methodNames[methodId++] = qualify(cls.name, "<clinit>");
        rc.initFieldsId = static_cast<std::uint32_t>(methodId);
        methodNames[methodId++] = qualify(cls.name, "<initfields>");
      }
    }
    // The first class declared with a name heads its run.
    std::sort(classNames.begin(), classNames.end(),
              [](const ClassName& x, const ClassName& y) {
                return x.name != y.name ? x.name < y.name
                                        : x.classId < y.classId;
              });
    const auto unique =
        std::unique(classNames.begin(), classNames.end(),
                    [](const ClassName& x, const ClassName& y) {
                      return x.name == y.name;
                    });
    res_->classes = classes_;
    res_->classIdByName = classNames.first(
        static_cast<std::size_t>(unique - classNames.begin()));
    res_->methodNames = methodNames;
  }

  /// "cls.member", in the arena.
  std::string_view qualify(std::string_view cls, std::string_view member) {
    const std::size_t size = cls.size() + 1 + member.size();
    char* out = static_cast<char*>(arena_.allocate(size, 1));
    *std::copy(cls.begin(), cls.end(), out) = '.';
    std::copy(member.begin(), member.end(), out + cls.size() + 1);
    return {out, size};
  }

  // ------------------------------------------------------------ pass two
  void resolveClassBodies(ResolvedClass& rc) {
    cls_ = &rc;
    // Field initializers run in frames without locals: statics in a static
    // frame (ensureClassInit), instance inits in an instance frame
    // (construct). The scope stays empty either way.
    for (const auto& f : rc.decl->fields) {
      if (!f.init) continue;
      scope_.begin();
      isStatic_ = f.isStatic;
      resolveExpr(*f.init);
    }
    for (const auto& m : rc.decl->methods) {
      if (!m.body) continue;  // implicit default ctor
      scope_.begin();  // the method-level scope holds the parameters
      isStatic_ = m.isStatic;
      for (const auto& p : m.params) scope_.declare(p.name);
      resolveBlockInPlace(*m.body);
      m.numSlots = scope_.numSlots();
    }
  }

  /// True when `name` is a class name as the interpreter's isClassName
  /// sees it (builtin or program class).
  bool isClassName(std::string_view name) const {
    return isBuiltinClassName(name) || res_->classIdOf(name) >= 0;
  }

  // ---------------------------------------------------------- statements

  /// Resolve a block's statements inside a fresh scope (execBlock).
  void resolveBlock(const Stmt& s) {
    scope_.push();
    resolveBlockInPlace(s);
    scope_.pop();
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
        s.declSlot = scope_.declare(s.declName);
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
        scope_.push();  // for-init scope
        for (const auto& init : s.body) resolveStmt(*init);
        if (s.cond) resolveExpr(*s.cond);
        resolveStmt(*s.thenStmt);
        for (const auto& u : s.update) resolveExpr(*u);
        scope_.pop();
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
          scope_.push();  // catch-variable scope wrapping the body block
          clause.slot = scope_.declare(clause.varName);
          resolveStmt(*clause.body);
          scope_.pop();
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
      case ExprKind::kStringLit:
        e.strId = literalId(e.strValue);
        return;
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
    if (e.strValue == "this") {
      e.nameRef = NameRef::kThis;
      return;
    }
    const std::int32_t local = scope_.find(e.strValue);
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
           scope_.find(receiver.strValue) < 0 &&
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
    if (isClassNameReceiver(*e.a)) {
      annotateStatic(e, e.a->strValue);
      return;  // the receiver VarRef is never evaluated
    }
    e.nameRef = NameRef::kInstanceField;
    e.cacheSlot = res_->numFieldCaches++;
    resolveExpr(*e.a);
  }

  void resolveCall(const Expr& e) {
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

  /// The pool id of a string literal's content: ids follow first
  /// occurrence, and equal contents share one.
  std::int32_t literalId(std::string_view text) {
    std::vector<std::string_view>& pool = res_->stringLiterals;
    if (2 * (pool.size() + 1) > literalSlots_.size()) {
      // Keep the table at most half full: double it and re-place the ids.
      literalSlots_.assign(std::max<std::size_t>(64, 2 * literalSlots_.size()),
                           -1);
      for (std::size_t id = 0; id < pool.size(); ++id) {
        *literalSlot(pool[id]) = static_cast<std::int32_t>(id);
      }
    }
    std::int32_t* slot = literalSlot(text);
    if (*slot < 0) {
      *slot = static_cast<std::int32_t>(pool.size());
      pool.push_back(text);
    }
    return *slot;
  }

  /// The slot of literalSlots_ holding `text`'s id, or the empty slot
  /// where it belongs (linear probing).
  std::int32_t* literalSlot(std::string_view text) {
    const std::size_t mask = literalSlots_.size() - 1;
    for (std::size_t i = std::hash<std::string_view>{}(text) & mask;;
         i = (i + 1) & mask) {
      std::int32_t& slot = literalSlots_[i];
      if (slot < 0 ||
          res_->stringLiterals[static_cast<std::size_t>(slot)] == text) {
        return &slot;
      }
    }
  }

  const Program& program_;
  Arena& arena_;
  Resolution* res_ = nullptr;
  std::span<ResolvedClass> classes_;  // res_->classes, writable
  ResolvedClass* cls_ = nullptr;
  MethodScope scope_;
  bool isStatic_ = true;
  // Open-addressing index of res_->stringLiterals: a power-of-two number
  // of slots holding a literal id or -1.
  std::vector<std::int32_t> literalSlots_;
};

std::mutex& resolutionMutex() {
  static std::mutex m;
  return m;
}

}  // namespace

std::shared_ptr<const Resolution> ensureResolved(const Program& program) {
  std::lock_guard<std::mutex> lock(resolutionMutex());
  if (program.resolution) return program.resolution;
  // The tables go to the Program's arena: like the annotations on its
  // nodes, a logically-const fill of a Program that nothing else writes.
  if (!program.arena_) program.arena_ = std::make_unique<Arena>();
  program.resolution = Resolver(program, *program.arena_).run();
  return program.resolution;
}

}  // namespace jepo::jlang
