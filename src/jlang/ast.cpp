#include "jlang/ast.hpp"

namespace jepo::jlang {

std::string typeName(const TypeRef& t) {
  std::string base;
  switch (t.prim) {
    case Prim::kByte: base = "byte"; break;
    case Prim::kShort: base = "short"; break;
    case Prim::kInt: base = "int"; break;
    case Prim::kLong: base = "long"; break;
    case Prim::kFloat: base = "float"; break;
    case Prim::kDouble: base = "double"; break;
    case Prim::kChar: base = "char"; break;
    case Prim::kBoolean: base = "boolean"; break;
    case Prim::kVoid: base = "void"; break;
    case Prim::kClass: base = t.className; break;
  }
  for (int i = 0; i < t.arrayDims; ++i) base += "[]";
  return base;
}

ExprPtr cloneExpr(const Expr& e) {
  auto out = std::make_unique<Expr>(e.kind);
  out->line = e.line;
  out->col = e.col;
  out->height = e.height;
  out->intValue = e.intValue;
  out->floatValue = e.floatValue;
  out->strValue = e.strValue;
  out->scientific = e.scientific;
  out->binOp = e.binOp;
  out->unOp = e.unOp;
  out->assignOp = e.assignOp;
  out->type = e.type;
  if (e.a) out->a = cloneExpr(*e.a);
  if (e.b) out->b = cloneExpr(*e.b);
  if (e.c) out->c = cloneExpr(*e.c);
  out->args.reserve(e.args.size());
  for (const auto& arg : e.args) out->args.push_back(cloneExpr(*arg));
  return out;
}

StmtPtr cloneStmt(const Stmt& s) {
  auto out = std::make_unique<Stmt>(s.kind);
  out->line = s.line;
  out->col = s.col;
  out->declType = s.declType;
  out->declName = s.declName;
  if (s.init) out->init = cloneExpr(*s.init);
  if (s.expr) out->expr = cloneExpr(*s.expr);
  if (s.cond) out->cond = cloneExpr(*s.cond);
  if (s.thenStmt) out->thenStmt = cloneStmt(*s.thenStmt);
  if (s.elseStmt) out->elseStmt = cloneStmt(*s.elseStmt);
  out->body.reserve(s.body.size());
  for (const auto& st : s.body) out->body.push_back(cloneStmt(*st));
  out->update.reserve(s.update.size());
  for (const auto& u : s.update) out->update.push_back(cloneExpr(*u));
  if (s.tryBlock) out->tryBlock = cloneStmt(*s.tryBlock);
  for (const auto& c : s.catches) {
    CatchClause cc;
    cc.exceptionClass = c.exceptionClass;
    cc.varName = c.varName;
    cc.body = cloneStmt(*c.body);
    out->catches.push_back(std::move(cc));
  }
  if (s.finallyBlock) out->finallyBlock = cloneStmt(*s.finallyBlock);
  for (const auto& c : s.cases) {
    SwitchCase sc;
    sc.isDefault = c.isDefault;
    sc.value = c.value;
    sc.body.reserve(c.body.size());
    for (const auto& st : c.body) sc.body.push_back(cloneStmt(*st));
    out->cases.push_back(std::move(sc));
  }
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

CompilationUnit cloneUnit(const CompilationUnit& unit) {
  CompilationUnit out;
  out.fileName = unit.fileName;
  out.packageName = unit.packageName;
  out.imports = unit.imports;
  for (const auto& cls : unit.classes) {
    ClassDecl c;
    c.name = cls.name;
    c.line = cls.line;
    for (const auto& f : cls.fields) {
      FieldDecl nf;
      nf.type = f.type;
      nf.name = f.name;
      nf.isStatic = f.isStatic;
      nf.line = f.line;
      if (f.init) nf.init = cloneExpr(*f.init);
      c.fields.push_back(std::move(nf));
    }
    for (const auto& m : cls.methods) {
      MethodDecl nm;
      nm.name = m.name;
      nm.isStatic = m.isStatic;
      nm.returnType = m.returnType;
      nm.params = m.params;
      nm.line = m.line;
      if (m.body) nm.body = cloneStmt(*m.body);
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
