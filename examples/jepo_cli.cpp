// jepo_cli — the Eclipse plugin's three buttons as a command-line tool.
//
//   jepo_cli suggest  <file.mjava>   # Fig. 2/5: the suggestion view
//   jepo_cli profile  <file.mjava> [MainClass] [--heap-limit=N]
//                     [--seed=N] [--fault-plan=SPEC] [--max-steps=N]
//                     [--tier=full|sampled:N] [--intervals]
//                     [--predict]
//   jepo_cli optimize <file.mjava>   # auto-refactor, print new source
//
// --intervals appends per-method 95% bootstrap confidence intervals over
// the per-execution package joules (seeded from --seed, so the same
// invocation reprints the same intervals); --predict fits the per-method
// energy predictor on the profiled records and prints predicted vs actual
// joules with the fitted weights.
//
// --seed/--fault-plan/--max-steps/--tier mirror a jepod job's fields: the
// same (source, MainClass, seed, heap limit, fault plan, max steps, tier)
// here and through the daemon produce bit-identical joules/stdout/method
// records — including the truncated records of a run aborted by the step
// budget, which is how a daemon-side abort is replayed locally, and the
// sampled records of a --tier=sampled:N run, which replay from the seed.
//
// Reads MiniJava source from the given file (or stdin when the file is -).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include <map>

#include "fault/fault.hpp"
#include "jepo/engine.hpp"
#include "jepo/optimizer.hpp"
#include "jepo/profiler.hpp"
#include "jepo/views.hpp"
#include "jlang/parser.hpp"
#include "jlang/printer.hpp"
#include "predict/predictor.hpp"
#include "stats/bootstrap.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace {

std::string readAll(const std::string& path) {
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    return ss.str();
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: jepo_cli suggest|profile|optimize <file.mjava> "
               "[MainClass] [--heap-limit=N] [--seed=N] "
               "[--fault-plan=SPEC] [--max-steps=N] "
               "[--tier=full|sampled:N] [--intervals] [--predict]\n");
  return 2;
}

/// Per-method 95% bootstrap intervals over the per-execution package
/// joules. Methods run once degrade to a point estimate — the same
/// never-abort policy as the experiment layer.
void printIntervals(const jepo::core::Profiler& profiler,
                    std::uint64_t seed) {
  using namespace jepo;
  std::map<std::string, std::vector<double>> byMethod;
  for (const auto& rec : profiler.records()) {
    if (!rec.truncated) byMethod[rec.method].push_back(rec.packageJoules);
  }
  stats::BootstrapConfig cfg;
  TextTable table({"Method", "Execs", "Package J/exec [95% CI]"},
                  {Align::kLeft, Align::kRight, Align::kRight});
  std::uint64_t ordinal = 0;
  for (const auto& [method, joules] : byMethod) {
    cfg.seed = deriveSeed(seed, 0xC1u, ordinal++);
    const std::vector<int> qualities(joules.size(), stats::kQualityOk);
    const stats::IntervalResult r =
        stats::qualityInterval(joules, qualities, cfg);
    std::string cell = fixed(r.interval.mean * 1e3, 4) + "e-3";
    if (!r.pointEstimate) {
      cell += " [" + fixed(r.interval.lo * 1e3, 4) + ", " +
              fixed(r.interval.hi * 1e3, 4) + "]";
    } else {
      cell += " (point)";
    }
    table.addRow({method, std::to_string(joules.size()), cell});
  }
  std::printf("\nPer-method bootstrap intervals (seed=%llu):\n",
              static_cast<unsigned long long>(seed));
  std::fputs(table.render().c_str(), stdout);
}

/// Fit the per-method predictor on this run's records and print predicted
/// vs actual package joules (in-sample — the held-out evaluation lives in
/// bench_predictor).
void printPrediction(const jepo::jlang::Program& program,
                     const jepo::core::Profiler& profiler) {
  using namespace jepo;
  std::vector<predict::DynamicRecord> records;
  for (const auto& t : profiler.totals()) {
    records.push_back({t.method, t.seconds, t.packageJoules});
  }
  const std::vector<predict::Sample> samples = predict::joinSamples(
      predict::extractFeatures(program), records, /*useDynamic=*/true);
  if (samples.size() < 2) {
    std::puts("\npredictor: fewer than two profiled methods — skipped");
    return;
  }
  const predict::LinearModel model =
      predict::LinearModel::fit(samples, /*ridge=*/1e-9);
  TextTable table({"Method", "Actual J", "Predicted J"},
                  {Align::kLeft, Align::kRight, Align::kRight});
  for (const auto& s : samples) {
    table.addRow({s.method, fixed(s.packageJoules * 1e3, 4) + "e-3",
                  fixed(model.predict(s.features) * 1e3, 4) + "e-3"});
  }
  std::puts("\nPer-method energy predictor (in-sample fit):");
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "weights: intercept=%.3e seconds=%.3e bytecodeLen=%.3e "
      "callCount=%.3e loopDepth=%.3e\n",
      model.weights()[0], model.weights()[1], model.weights()[2],
      model.weights()[3], model.weights()[4]);
}

bool parseFlagU64(const std::string& arg, std::size_t prefixLen,
                  unsigned long long* out) {
  char* end = nullptr;
  *out = std::strtoull(arg.c_str() + prefixLen, &end, 10);
  return end != nullptr && end != arg.c_str() + prefixLen && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jepo;
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const std::string path = argv[2];
  const std::string source = readAll(path);

  try {
    const jlang::Program program =
        jlang::Parser::parseProgram(path, source);

    if (command == "suggest") {
      core::SuggestionEngine engine;
      std::fputs(
          core::renderOptimizerView(engine.analyzeProgram(program)).c_str(),
          stdout);
      return 0;
    }
    if (command == "profile") {
      std::string mainClass;
      unsigned long long maxSteps = 500'000'000;  // jepod's kDefaultMaxSteps
      unsigned long long seed = 0;
      bool intervals = false;
      bool predictFlag = false;
      core::Profiler profiler;
      for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        unsigned long long n = 0;
        if (arg == "--intervals") {
          intervals = true;
        } else if (arg == "--predict") {
          predictFlag = true;
        } else if (arg.rfind("--heap-limit=", 0) == 0) {
          if (!parseFlagU64(arg, 13, &n)) return usage();
          profiler.setHeapLimit(static_cast<std::size_t>(n));
        } else if (arg.rfind("--seed=", 0) == 0) {
          if (!parseFlagU64(arg, 7, &n)) return usage();
          seed = n;
          profiler.setSeed(n);
        } else if (arg.rfind("--fault-plan=", 0) == 0) {
          profiler.setFaultSpec(fault::parseFaultPlan(arg.substr(13)));
        } else if (arg.rfind("--tier=", 0) == 0) {
          profiler.setTier(jvm::parseTierSpec(arg.substr(7)));
        } else if (arg.rfind("--max-steps=", 0) == 0) {
          if (!parseFlagU64(arg, 12, &maxSteps)) return usage();
        } else if (mainClass.empty()) {
          mainClass = arg;
        } else {
          return usage();
        }
      }
      try {
        profiler.profile(program, mainClass, maxSteps);
      } catch (const VmError& e) {
        // Aborted run (step limit, runtime error): print the records
        // captured up to the abort — methods still on the stack appear as
        // truncated records — so a daemon job killed by its step budget
        // can be replayed here with the same --max-steps.
        std::fputs(core::renderProfilerView(profiler.records()).c_str(),
                   stdout);
        std::printf("\nprogram output:\n%s",
                    profiler.programOutput().c_str());
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
      }
      std::fputs(core::renderProfilerView(profiler.records()).c_str(),
                 stdout);
      std::printf("\nprogram output:\n%s", profiler.programOutput().c_str());
      if (intervals) printIntervals(profiler, seed);
      if (predictFlag) printPrediction(program, profiler);
      return 0;
    }
    if (command == "optimize") {
      const core::OptimizeResult result = core::Optimizer().optimize(program);
      std::fprintf(stderr, "applied %zu changes:\n", result.changes.size());
      for (const auto& c : result.changes) {
        std::fprintf(stderr, "  %s:%d %s\n", c.className.c_str(), c.line,
                     c.description.c_str());
      }
      for (const auto& unit : result.program.units) {
        std::fputs(jlang::printUnit(unit).c_str(), stdout);
      }
      return 0;
    }
    return usage();
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
