// Table I reproduction: for each Java component row, run a paired MiniJava
// micro-program (inefficient idiom vs suggested idiom) on the VM through
// the perf runner and report the measured package-energy penalty next to
// the paper's published penalty. Outputs must agree between the pair — the
// suggestion must not change behaviour, only energy.
#include "bench_common.hpp"

#include "jlang/parser.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "perf/perf.hpp"

namespace {

using namespace jepo;

struct Pair {
  const char* component;
  const char* paperClaim;  // the Table I penalty, as published
  const char* inefficient;
  const char* efficient;
};

std::string wrap(const std::string& body) {
  return "class Main { static void main(String[] args) {\n" + body +
         "\n} }";
}

// The micro-programs keep everything identical except the one idiom under
// test, and print a checksum so behavioural equivalence is verified.
const Pair kPairs[] = {
    {"Primitive data types", "int recommended",
     "long acc = 0L;\n"
     "for (int i = 0; i < 60000; i++) acc = acc + i;\n"
     "System.out.println(acc);",
     "int acc = 0;\n"
     "for (int i = 0; i < 60000; i++) acc = acc + i;\n"
     "System.out.println(acc);"},
    {"Scientific notation", "scientific is cheaper",
     "double acc = 0.0;\n"
     "for (int i = 0; i < 60000; i++) acc = acc + 10000.0;\n"
     "System.out.println(acc);",
     "double acc = 0.0;\n"
     "for (int i = 0; i < 60000; i++) acc = acc + 1e4;\n"
     "System.out.println(acc);"},
    {"Wrapper classes", "Integer recommended",
     "long acc = 0L;\n"
     "for (int i = 0; i < 20000; i++) { Long boxed = Long.valueOf(i);"
     " acc = acc + boxed.longValue(); }\n"
     "System.out.println(acc);",
     "long acc = 0L;\n"
     "for (int i = 0; i < 20000; i++) { Integer boxed = Integer.valueOf(i);"
     " acc = acc + boxed.intValue(); }\n"
     "System.out.println(acc);"},
    {"Static keyword", "up to 17,700%", "", ""},  // filled below (two classes)
    {"Arithmetic operators", "up to 1,620%",
     "int acc = 0;\n"
     "for (int i = 0; i < 30000; i++)"
     " acc += i % 8 + i % 16 + i % 32 + i % 64;\n"
     "System.out.println(acc);",
     "int acc = 0;\n"
     "for (int i = 0; i < 30000; i++)"
     " acc += (i & 7) + (i & 15) + (i & 31) + (i & 63);\n"
     "System.out.println(acc);"},
    {"Ternary operator", "up to 37%",
     "int acc = 0;\n"
     "for (int i = 0; i < 60000; i++) acc += i > 30000 ? 2 : 1;\n"
     "System.out.println(acc);",
     "int acc = 0;\n"
     "for (int i = 0; i < 60000; i++) { if (i > 30000) acc += 2;"
     " else acc += 1; }\n"
     "System.out.println(acc);"},
    // For &&, the operand that usually DECIDES (here: usually false) must
    // come first so the expensive one is rarely evaluated.
    {"Short circuit operator", "common case first",
     "int acc = 0;\n"
     "for (int i = 0; i < 60000; i++) {"
     " if (i * i % 97 + 3 * i % 89 > 50 && i < 100) acc++; }\n"
     "System.out.println(acc);",
     "int acc = 0;\n"
     "for (int i = 0; i < 60000; i++) {"
     " if (i < 100 && i * i % 97 + 3 * i % 89 > 50) acc++; }\n"
     "System.out.println(acc);"},
    {"String concatenation operator", "StringBuilder is much cheaper",
     "String s = \"\";\n"
     "for (int i = 0; i < 3000; i++) s = s + \"x\";\n"
     "System.out.println(s.length());",
     "StringBuilder sb = new StringBuilder();\n"
     "for (int i = 0; i < 3000; i++) sb.append(\"x\");\n"
     "System.out.println(sb.toString().length());"},
    {"String comparison", "up to 33%",
     "String a = \"energyEfficiency\"; String b = \"energyEfficiencx\";\n"
     "int acc = 0;\n"
     "for (int i = 0; i < 20000; i++) { if (a.compareTo(b) == 0) acc++; }\n"
     "System.out.println(acc);",
     "String a = \"energyEfficiency\"; String b = \"energyEfficiencx\";\n"
     "int acc = 0;\n"
     "for (int i = 0; i < 20000; i++) { if (a.equals(b)) acc++; }\n"
     "System.out.println(acc);"},
    {"Arrays copy", "System.arraycopy() recommended",
     "int[] src = new int[2000]; int[] dst = new int[2000];\n"
     "for (int r = 0; r < 50; r++) {"
     " for (int i = 0; i < 2000; i++) dst[i] = src[i]; }\n"
     "System.out.println(dst[1999]);",
     "int[] src = new int[2000]; int[] dst = new int[2000];\n"
     "for (int r = 0; r < 50; r++) {"
     " System.arraycopy(src, 0, dst, 0, 2000); }\n"
     "System.out.println(dst[1999]);"},
    {"Array traversal", "up to 793%",
     "int[][] m = new int[250][250];\n"
     "int acc = 0;\n"
     "for (int j = 0; j < 250; j++)"
     " for (int i = 0; i < 250; i++) acc += m[i][j];\n"
     "System.out.println(acc);",
     "int[][] m = new int[250][250];\n"
     "int acc = 0;\n"
     "for (int i = 0; i < 250; i++)"
     " for (int j = 0; j < 250; j++) acc += m[i][j];\n"
     "System.out.println(acc);"},
};

const char* kStaticProgram = R"(
class Main {
  static int acc = 0;
  static void main(String[] args) {
    for (int i = 0; i < 20000; i++) acc += i;
    System.out.println(acc);
  }
}
)";
const char* kLocalProgram = R"(
class Main {
  static void main(String[] args) {
    int acc = 0;
    for (int i = 0; i < 20000; i++) acc += i;
    System.out.println(acc);
  }
}
)";

struct RunOutcome {
  double packageJoules = 0.0;
  std::string output;
};

RunOutcome runProgram(const std::string& source) {
  const jlang::Program prog =
      jlang::Parser::parseProgram("bench.mjava", source);
  const jbc::CompiledProgram compiled = jbc::compile(prog);
  RunOutcome out;
  perf::PerfRunner runner = perf::PerfRunner::exact();
  const perf::PerfStat stat = runner.stat([&](energy::SimMachine& machine) {
    jbc::BytecodeVm vm(compiled, machine);
    vm.setMaxSteps(500'000'000);
    vm.runMain();
    out.output = vm.output();
  });
  out.packageJoules = stat.packageJoules;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  jepo::bench::Flags flags(argc, argv);
  jepo::bench::BenchReport report("bench_table1_suggestions", flags);
  jepo::bench::printHeader(
      "Table I — Java components & suggestions: measured energy penalty of "
      "the inefficient idiom vs the suggested one");

  jepo::TextTable table(
      {"Java Component", "Paper claim", "Measured penalty", "Outputs match"},
      {jepo::Align::kLeft, jepo::Align::kLeft, jepo::Align::kRight,
       jepo::Align::kLeft});

  for (const Pair& p : kPairs) {
    std::string ineffSrc;
    std::string effSrc;
    if (std::string(p.component) == "Static keyword") {
      ineffSrc = kStaticProgram;
      effSrc = kLocalProgram;
    } else {
      ineffSrc = wrap(p.inefficient);
      effSrc = wrap(p.efficient);
    }
    const RunOutcome slow = runProgram(ineffSrc);
    const RunOutcome fast = runProgram(effSrc);
    const double penalty =
        (slow.packageJoules / fast.packageJoules - 1.0) * 100.0;
    table.addRow({p.component, p.paperClaim,
                  "+" + jepo::fixed(penalty, 1) + "%",
                  slow.output == fast.output ? "yes" : "NO"});
    report.addRow({{"component", p.component},
                   {"penaltyPct", penalty},
                   {"inefficientJoules", slow.packageJoules},
                   {"efficientJoules", fast.packageJoules},
                   {"outputsMatch", slow.output == fast.output}});
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts(
      "\nNote: measured penalties are whole-program ratios on the simulated\n"
      "machine (loop/print overhead included), so they sit below the\n"
      "paper's isolated-operation upper bounds; the ordering is the claim\n"
      "under test: static >> modulus >> column traversal >> ternary ~= "
      "compareTo.");
  return report.finish();
}
