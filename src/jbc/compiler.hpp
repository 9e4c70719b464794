// MiniJava AST -> bytecode compiler.
//
// Lowers every method (plus synthesized <clinit>/<init-fields> chunks for
// field initializers) into stack-machine code with JVM-style exception
// tables. finally blocks are compiled by inlining (the pre-JSR-deprecation
// javac strategy): a copy on the normal path, a copy on each catch exit, a
// catch-all handler over the try block that runs the copy and rethrows, and
// copies on every return/break/continue that crosses the finally. The
// exception ranges follow the tree interpreter: they exclude the inlined
// copies, and an exception escaping a catch body skips the finally.
#pragma once

#include "jbc/code.hpp"

namespace jepo::jbc {

struct CompileOptions {
  /// Run the post-resolution peephole pass that fuses hot instruction runs
  /// into superinstructions (code.hpp). Off is the seed-shaped code path,
  /// kept for A/B benchmarking and for tests that pin unfused layouts.
  bool fuseSuperinstructions = true;
};

/// Compile a whole program. Never rejects a program the tree interpreter
/// runs: names and calls it cannot resolve compile to the runtime error the
/// tree interpreter raises when it reaches them.
CompiledProgram compile(const jlang::Program& program);
CompiledProgram compile(const jlang::Program& program,
                        const CompileOptions& options);

}  // namespace jepo::jbc
