// Quickstart: the whole JEPO-C pipeline on ten lines of MiniJava —
// analyze, auto-refactor, run both versions on the simulated machine, and
// read the energy back through the RAPL MSRs.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "energy/machine.hpp"
#include "jepo/engine.hpp"
#include "jepo/optimizer.hpp"
#include "jlang/parser.hpp"
#include "jlang/printer.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"

int main() {
  using namespace jepo;

  const std::string source = R"(
    class Main {
      static void main(String[] args) {
        long total = 0L;
        String log = "";
        for (int i = 0; i < 2000; i++) {
          total = total + i % 16;
          log = log + ".";
        }
        System.out.println(total + "/" + log.length());
      }
    }
  )";

  // 1. Parse and ask JEPO for suggestions (the Fig. 2 dynamic view).
  const jlang::Program program =
      jlang::Parser::parseProgram("Quickstart.mjava", source);
  core::SuggestionEngine engine;
  std::puts("Suggestions:");
  for (const auto& s : engine.analyzeProgram(program)) {
    std::printf("  line %2d: %s\n", s.line, s.message().c_str());
  }

  // 2. Apply the suggestions automatically.
  const core::OptimizeResult optimized = core::Optimizer().optimize(program);
  std::printf("\nApplied %zu changes. Refactored source:\n%s\n",
              optimized.changes.size(),
              jlang::printUnit(optimized.program.units[0]).c_str());

  // 3. Run both versions and compare energy (simulated Intel RAPL).
  auto measure = [](const jlang::Program& prog) {
    const jbc::CompiledProgram compiled = jbc::compile(prog);
    energy::SimMachine machine;
    jbc::BytecodeVm vm(compiled, machine);
    vm.runMain();
    return std::pair{vm.output(), machine.sample()};
  };
  const auto [outBefore, before] = measure(program);
  const auto [outAfter, after] = measure(optimized.program);

  std::printf("Output before: %s", outBefore.c_str());
  std::printf("Output after:  %s", outAfter.c_str());
  std::printf("Package energy: %.6f J -> %.6f J  (%.1f%% saved)\n",
              before.packageJoules, after.packageJoules,
              (1.0 - after.packageJoules / before.packageJoules) * 100.0);
  std::printf("Execution time: %.3f ms -> %.3f ms\n", before.seconds * 1e3,
              after.seconds * 1e3);
  return 0;
}
