// Canonical MiniJava source printer.
//
// print(parse(print(ast))) == print(ast) is a tested property; the optimizer
// uses the printer to emit refactored files, and the metrics module counts
// LOC over canonical output so counts are formatting-independent. Every
// form appends to one buffer as it walks the tree, so printing a unit
// allocates that buffer and nothing per node.
#pragma once

#include <string>

#include "jlang/ast.hpp"

namespace jepo::jlang {

std::string printExpr(const Expr& e);
std::string printStmt(const Stmt& s, int indent = 0);
std::string printClass(const ClassDecl& cls, int indent = 0);
std::string printUnit(const CompilationUnit& unit);
/// Append printUnit's text to `out`, reserving room from the unit's
/// source size first.
void printUnitTo(std::string& out, const CompilationUnit& unit);

}  // namespace jepo::jlang
