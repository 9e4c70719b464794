// Ablation: per-rule contribution. Runs the Fig.-5 demo pipeline through
// the optimizer with each Table I rule disabled in turn and reports how
// much of the total energy win that rule carries, plus the change-count
// contribution on the RandomForest corpus.
#include "bench_common.hpp"
#include "demo_project.hpp"

#include "corpus/corpus.hpp"
#include "energy/machine.hpp"
#include "jepo/optimizer.hpp"
#include "jlang/parser.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"

namespace {

double runPackageJoules(const jepo::jlang::Program& prog) {
  const jepo::jbc::CompiledProgram compiled = jepo::jbc::compile(prog);
  jepo::energy::SimMachine machine;
  jepo::jbc::BytecodeVm vm(compiled, machine);
  vm.setMaxSteps(50'000'000);
  vm.runMain();
  return machine.sample().packageJoules;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jepo;
  bench::Flags flags(argc, argv);
  bench::BenchReport report("bench_ablation_rules", flags);
  bench::printHeader(
      "Ablation — rule contribution (demo pipeline energy win + corpus "
      "change counts with each rule disabled)");

  const jlang::Program demo = jlang::Parser::parseProgram(
      "EdgePipeline.mjava", bench::kDemoProjectSource);
  const double baseJ = runPackageJoules(demo);

  // Full optimization first.
  const core::OptimizeResult full = core::Optimizer().optimize(demo);
  const double fullJ = runPackageJoules(full.program);
  const double fullWin = (1.0 - fullJ / baseJ) * 100.0;

  int corpusSeeded = 0;
  const jlang::Program corpusProg = corpus::generateScaledCorpus(
      ml::ClassifierKind::kRandomForest, 0.10, 42, &corpusSeeded);
  const auto fullCorpus = core::Optimizer().optimize(corpusProg);

  TextTable table({"Disabled rule", "Demo win (%)", "Win lost (pp)",
                   "Corpus changes", "Changes lost"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight});
  table.addRow({"(none - full optimizer)", fixed(fullWin, 2), "-",
                std::to_string(fullCorpus.changes.size()), "-"});

  for (int r = 0; r < core::kRuleCount; ++r) {
    core::OptimizerOptions opts;
    opts.enabled[r] = false;
    core::Optimizer ablated(opts);

    const core::OptimizeResult demoResult = ablated.optimize(demo);
    const double winJ = runPackageJoules(demoResult.program);
    const double win = (1.0 - winJ / baseJ) * 100.0;

    const auto corpusResult = ablated.optimize(corpusProg);
    table.addRow(
        {std::string(core::ruleComponent(static_cast<core::RuleId>(r))),
         fixed(win, 2), fixed(fullWin - win, 2),
         std::to_string(corpusResult.changes.size()),
         std::to_string(fullCorpus.changes.size() -
                        corpusResult.changes.size())});
    report.addRow(
        {{"disabledRule",
          core::ruleComponent(static_cast<core::RuleId>(r))},
         {"demoWinPct", win},
         {"winLostPp", fullWin - win},
         {"corpusChanges", corpusResult.changes.size()},
         {"changesLost",
          fullCorpus.changes.size() - corpusResult.changes.size()}});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts(
      "\n'Win lost' isolates each rule's share of the demo pipeline's total\n"
      "energy improvement; rules the demo does not exercise contribute 0.");
  report.config("fullWinPct", fullWin);
  report.config("fullCorpusChanges", fullCorpus.changes.size());
  return report.finish();
}
