// perf_stat — the `perf stat` analog for MiniJava programs: run a .mjava
// file on the simulated machine N times with the measurement-noise model
// and the paper's Tukey re-measurement protocol, then print a perf-style
// summary of energy and time.
//
//   perf_stat <file.mjava> [--runs=10] [--exact] [--main=ClassName]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "jlang/parser.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "perf/perf.hpp"
#include "stats/protocol.hpp"
#include "support/strings.hpp"

int main(int argc, char** argv) {
  using namespace jepo;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perf_stat <file.mjava> [--runs=N] [--exact] "
                 "[--main=Class]\n");
    return 2;
  }
  const std::string path = argv[1];
  int runs = 10;
  bool exact = false;
  std::string mainClass;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--runs=", 7) == 0) runs = std::atoi(argv[i] + 7);
    if (std::strcmp(argv[i], "--exact") == 0) exact = true;
    if (std::strncmp(argv[i], "--main=", 7) == 0) mainClass = argv[i] + 7;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream ss;
  ss << in.rdbuf();

  try {
    const jlang::Program program =
        jlang::Parser::parseProgram(path, ss.str());
    const jbc::CompiledProgram compiled = jbc::compile(program);
    perf::PerfRunner runner =
        exact ? perf::PerfRunner::exact() : perf::PerfRunner();

    std::string output;
    auto measureOnce = [&] {
      return runner
          .stat([&](energy::SimMachine& machine) {
            jbc::BytecodeVm vm(compiled, machine);
            vm.setMaxSteps(2'000'000'000);
            vm.runMain(mainClass);
            output = vm.output();
          })
          .asRow();
    };
    const stats::ProtocolResult result =
        stats::measureWithTukeyLoop(runs, measureOnce);

    std::printf(" Performance counter stats for '%s' (%d runs%s):\n\n",
                path.c_str(), runs,
                exact ? ", exact" : ", Tukey-scrubbed");
    std::printf("   %14.6f Joules  power/energy-pkg/\n", result.means[0]);
    std::printf("   %14.6f Joules  power/energy-cores/\n", result.means[1]);
    std::printf("\n   %14.6f seconds time elapsed (simulated)\n\n",
                result.means[2]);
    if (result.remeasured > 0) {
      std::printf("   (%d run(s) re-measured as Tukey outliers)\n\n",
                  result.remeasured);
    }
    std::printf("program output:\n%s", output.c_str());
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
