// Figure 5 reproduction: the JEPO optimizer view — class, line and
// suggestion for every hit across the project — plus the automated
// refactoring JEPO's suggestions imply, verified by running the program
// before and after.
#include "bench_common.hpp"
#include "demo_project.hpp"

#include "energy/machine.hpp"
#include "jepo/engine.hpp"
#include "jepo/optimizer.hpp"
#include "jepo/views.hpp"
#include "jlang/parser.hpp"
#include "jlang/printer.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"

namespace {

struct RunResult {
  std::string output;
  double packageJoules;
};

RunResult run(const jepo::jlang::Program& prog) {
  const jepo::jbc::CompiledProgram compiled = jepo::jbc::compile(prog);
  jepo::energy::SimMachine machine;
  jepo::jbc::BytecodeVm vm(compiled, machine);
  vm.setMaxSteps(50'000'000);
  vm.runMain();
  return {vm.output(), machine.sample().packageJoules};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jepo;
  bench::Flags flags(argc, argv);
  bench::BenchReport report("bench_fig5_optimizer", flags);
  bench::printHeader("Fig. 5 — JEPO optimizer view");

  const jlang::Program program = jlang::Parser::parseProgram(
      "EdgePipeline.mjava", bench::kDemoProjectSource);
  core::SuggestionEngine engine;
  std::fputs(
      core::renderOptimizerView(engine.analyzeProgram(program)).c_str(),
      stdout);

  bench::printHeader("Applying the suggestions (JEPO optimizer, auto mode)");
  const core::OptimizeResult optimized =
      core::Optimizer().optimize(program);
  TextTable changes({"Class", "Line", "Change"},
                    {Align::kLeft, Align::kRight, Align::kLeft});
  for (const auto& c : optimized.changes) {
    changes.addRow({c.className, std::to_string(c.line), c.description});
    report.addRow({{"class", c.className},
                   {"line", c.line},
                   {"change", c.description}});
  }
  std::fputs(changes.render().c_str(), stdout);

  const RunResult before = run(program);
  const RunResult after = run(optimized.program);
  const std::string trimmed(jepo::trim(after.output));
  std::printf("\nBehaviour check: output %s (\"%s\")\n",
              before.output == after.output ? "unchanged" : "CHANGED",
              trimmed.c_str());
  std::printf("Package energy: %.6f J -> %.6f J (%.2f%% improvement)\n",
              before.packageJoules, after.packageJoules,
              (1.0 - after.packageJoules / before.packageJoules) * 100.0);
  report.config("beforeJoules", before.packageJoules);
  report.config("afterJoules", after.packageJoules);
  report.config("outputUnchanged", before.output == after.output);
  return report.finish();
}
