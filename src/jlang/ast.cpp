#include "jlang/ast.hpp"

namespace jepo::jlang {

std::string typeName(const TypeRef& t) {
  std::string out;
  appendTypeName(out, t);
  return out;
}

void appendTypeName(std::string& out, const TypeRef& t) {
  switch (t.prim) {
    case Prim::kByte: out += "byte"; break;
    case Prim::kShort: out += "short"; break;
    case Prim::kInt: out += "int"; break;
    case Prim::kLong: out += "long"; break;
    case Prim::kFloat: out += "float"; break;
    case Prim::kDouble: out += "double"; break;
    case Prim::kChar: out += "char"; break;
    case Prim::kBoolean: out += "boolean"; break;
    case Prim::kVoid: out += "void"; break;
    case Prim::kClass: out += t.className; break;
  }
  for (int i = 0; i < t.arrayDims; ++i) out += "[]";
}

namespace {

TypeRef cloneType(const TypeRef& t, Arena& arena) {
  return TypeRef{t.prim, t.arrayDims, arena.copy(t.className)};
}

}  // namespace

ExprPtr cloneExpr(const Expr& e, Program& into) {
  Arena& arena = into.arena();
  Expr* out = arena.make<Expr>(e.kind);
  out->line = e.line;
  out->col = e.col;
  out->height = e.height;
  out->intValue = e.intValue;
  out->floatValue = e.floatValue;
  out->strValue = arena.copy(e.strValue);
  out->scientific = e.scientific;
  out->binOp = e.binOp;
  out->unOp = e.unOp;
  out->assignOp = e.assignOp;
  out->type = cloneType(e.type, arena);
  if (e.a) out->a = cloneExpr(*e.a, into);
  if (e.b) out->b = cloneExpr(*e.b, into);
  if (e.c) out->c = cloneExpr(*e.c, into);
  out->args = arena.list(e.args);
  for (ExprPtr& arg : out->args) arg = cloneExpr(*arg, into);
  return out;
}

namespace {

List<StmtPtr> cloneStmts(List<StmtPtr> stmts, Program& into) {
  List<StmtPtr> out = into.arena().list(stmts);
  for (StmtPtr& st : out) st = cloneStmt(*st, into);
  return out;
}

}  // namespace

StmtPtr cloneStmt(const Stmt& s, Program& into) {
  Arena& arena = into.arena();
  Stmt* out = arena.make<Stmt>(s.kind);
  out->line = s.line;
  out->col = s.col;
  out->declType = cloneType(s.declType, arena);
  out->declName = arena.copy(s.declName);
  if (s.init) out->init = cloneExpr(*s.init, into);
  if (s.expr) out->expr = cloneExpr(*s.expr, into);
  if (s.cond) out->cond = cloneExpr(*s.cond, into);
  if (s.thenStmt) out->thenStmt = cloneStmt(*s.thenStmt, into);
  if (s.elseStmt) out->elseStmt = cloneStmt(*s.elseStmt, into);
  out->body = cloneStmts(s.body, into);
  out->update = arena.list(s.update);
  for (ExprPtr& u : out->update) u = cloneExpr(*u, into);
  if (s.tryBlock) out->tryBlock = cloneStmt(*s.tryBlock, into);
  out->catches = arena.list(s.catches);
  for (CatchClause& c : out->catches) {
    c.exceptionClass = arena.copy(c.exceptionClass);
    c.varName = arena.copy(c.varName);
    c.body = cloneStmt(*c.body, into);
    c.slot = -1;
  }
  if (s.finallyBlock) out->finallyBlock = cloneStmt(*s.finallyBlock, into);
  out->cases = arena.list(s.cases);
  for (SwitchCase& c : out->cases) c.body = cloneStmts(c.body, into);
  return out;
}

const MethodDecl* ClassDecl::findMethod(std::string_view methodName) const {
  for (const auto& m : methods) {
    if (m.name == methodName) return &m;
  }
  return nullptr;
}

const ClassDecl* Program::findClass(std::string_view name) const {
  for (const auto& unit : units) {
    for (const auto& cls : unit.classes) {
      if (cls.name == name) return &cls;
    }
  }
  return nullptr;
}

CompilationUnit cloneUnit(const CompilationUnit& unit, Program& into) {
  Arena& arena = into.arena();
  CompilationUnit out;
  out.fileName = unit.fileName;
  out.sourceBytes = unit.sourceBytes;
  out.packageName = unit.packageName;
  out.imports = unit.imports;
  out.classes.reserve(unit.classes.size());
  for (const auto& cls : unit.classes) {
    ClassDecl c;
    c.name = arena.copy(cls.name);
    c.line = cls.line;
    c.fields.reserve(cls.fields.size());
    for (const auto& f : cls.fields) {
      FieldDecl nf;
      nf.type = cloneType(f.type, arena);
      nf.name = arena.copy(f.name);
      nf.isStatic = f.isStatic;
      nf.line = f.line;
      if (f.init) nf.init = cloneExpr(*f.init, into);
      c.fields.push_back(nf);
    }
    c.methods.reserve(cls.methods.size());
    for (const auto& m : cls.methods) {
      MethodDecl nm;
      nm.name = arena.copy(m.name);
      nm.isStatic = m.isStatic;
      nm.returnType = cloneType(m.returnType, arena);
      nm.params = arena.list(m.params);
      for (auto& p : nm.params) {
        p = {cloneType(p.type, arena), arena.copy(p.name)};
      }
      nm.line = m.line;
      if (m.body) nm.body = cloneStmt(*m.body, into);
      c.methods.push_back(std::move(nm));
    }
    out.classes.push_back(std::move(c));
  }
  return out;
}

std::vector<const ClassDecl*> Program::mainClasses() const {
  std::vector<const ClassDecl*> out;
  for (const auto& unit : units) {
    for (const auto& cls : unit.classes) {
      const MethodDecl* m = cls.findMethod("main");
      if (m != nullptr && m->isStatic) out.push_back(&cls);
    }
  }
  return out;
}

}  // namespace jepo::jlang
