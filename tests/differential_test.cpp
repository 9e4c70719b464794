// Differential engine suite: every example program plus the demo WEKA
// project runs through the tree interpreter AND the bytecode VM, and the
// observable results of both are compared against one golden line per
// program, captured from the seed tree interpreter:
//
//   - printed output,
//   - simulated package / PP0 (core) / DRAM joules and seconds, bit for bit,
//   - the instrumented per-method record stream (names, seconds, energy
//     columns, quality tags), hashed.
//
// The tree interpreter is the oracle; the bytecode VM (the engine
// core::Profiler runs) is charge-identical to it, so both engines must
// reproduce the same line. Engine-internal changes (resolution, fusion,
// caching) may only change host time, never a joule or a byte of output.
//
// Regenerating goldens (only legitimate when intentionally changing the
// cost model or the engines' charging behavior):
//   JEPO_CAPTURE_GOLDENS=1 ./differential_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/demo_project.hpp"
#include "energy/machine.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "jlang/parser.hpp"
#include "jvm/gc.hpp"
#include "jvm/instrumenter.hpp"
#include "jvm/interpreter.hpp"

namespace {

using namespace jepo;

#ifndef JEPO_REPO_DIR
#error "differential_test needs -DJEPO_REPO_DIR=\"...\""
#endif

const char* const kGoldenPath =
    JEPO_REPO_DIR "/tests/goldens/differential.golden";

// ----------------------------------------------------------------- hashing

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvSeed = 0xcbf29ce484222325ULL;

std::uint64_t hashString(std::uint64_t h, const std::string& s) {
  h = fnv1a(h, s.data(), s.size());
  const char zero = '\0';
  return fnv1a(h, &zero, 1);
}

std::uint64_t doubleBits(double d) {
  std::uint64_t u = 0;
  static_assert(sizeof u == sizeof d);
  std::memcpy(&u, &d, sizeof u);
  return u;
}

std::string hex64(std::uint64_t u) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(u));
  return buf;
}

// ------------------------------------------------------------ engine runs

struct EngineResult {
  std::string out;
  std::uint64_t pkgBits = 0;
  std::uint64_t coreBits = 0;
  std::uint64_t dramBits = 0;
  std::uint64_t secondsBits = 0;
  std::size_t recordCount = 0;
  std::uint64_t recordHash = kFnvSeed;
  std::uint64_t collections = 0;  // not part of the golden: host-side only
};

// Everything the goldens pin must survive running under a heap limit.
void expectSameObservables(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.out, b.out);
  EXPECT_EQ(a.pkgBits, b.pkgBits);
  EXPECT_EQ(a.coreBits, b.coreBits);
  EXPECT_EQ(a.dramBits, b.dramBits);
  EXPECT_EQ(a.secondsBits, b.secondsBits);
  EXPECT_EQ(a.recordCount, b.recordCount);
  EXPECT_EQ(a.recordHash, b.recordHash);
}

std::uint64_t hashRecords(const std::vector<jvm::MethodRecord>& records) {
  std::uint64_t h = kFnvSeed;
  for (const auto& r : records) {
    h = hashString(h, r.method);
    const std::uint64_t bits[4] = {
        doubleBits(r.seconds), doubleBits(r.packageJoules),
        doubleBits(r.coreJoules), doubleBits(r.dramJoules)};
    h = fnv1a(h, bits, sizeof bits);
    const std::uint32_t tags[3] = {
        r.truncated ? 1u : 0u, static_cast<std::uint32_t>(r.quality),
        static_cast<std::uint32_t>(r.readRetries)};
    h = fnv1a(h, tags, sizeof tags);
  }
  return h;
}

EngineResult finish(energy::SimMachine& machine, const std::string& out,
                    const jvm::Instrumenter& inst) {
  const energy::MachineSample s = machine.sample();
  EngineResult r;
  r.out = out;
  r.pkgBits = doubleBits(s.packageJoules);
  r.coreBits = doubleBits(s.coreJoules);
  r.dramBits = doubleBits(s.dramJoules);
  r.secondsBits = doubleBits(s.seconds);
  r.recordCount = inst.records().size();
  r.recordHash = hashRecords(inst.records());
  return r;
}

EngineResult runTree(const std::string& name, const std::string& src,
                     std::size_t heapLimit = 0) {
  const jlang::Program prog = jlang::Parser::parseProgram(name, src);
  energy::SimMachine machine;
  jvm::Interpreter interp(prog, machine);
  interp.setHeapLimit(heapLimit);
  jvm::Instrumenter inst(machine);
  interp.setHooks(&inst);
  interp.setMaxSteps(50'000'000);
  interp.runMain();
  EngineResult r = finish(machine, interp.output(), inst);
  r.collections = interp.gc().collections();
  return r;
}

EngineResult runBcvm(const std::string& name, const std::string& src,
                     std::size_t heapLimit = 0) {
  const jlang::Program prog = jlang::Parser::parseProgram(name, src);
  const jbc::CompiledProgram compiled = jbc::compile(prog);
  energy::SimMachine machine;
  jbc::BytecodeVm vm(compiled, machine);
  vm.setHeapLimit(heapLimit);
  jvm::Instrumenter inst(machine);
  vm.setHooks(&inst);
  vm.setMaxSteps(50'000'000);
  vm.runMain();
  EngineResult r = finish(machine, vm.output(), inst);
  r.collections = vm.gc().collections();
  return r;
}

// ---------------------------------------------------------- golden format
//
// One line per program, both engines' observables:
//   <program> tree out=<fnv>/<len> pkg=<bits> core=<bits> dram=<bits>
//     sec=<bits> records=<count>/<fnv>
// (`tree` names the oracle the line was captured from.)

std::string goldenLine(const std::string& program, const std::string& engine,
                       const EngineResult& r) {
  std::ostringstream os;
  os << program << ' ' << engine << " out=" << hex64(hashString(kFnvSeed, r.out))
     << '/' << r.out.size() << " pkg=" << hex64(r.pkgBits)
     << " core=" << hex64(r.coreBits) << " dram=" << hex64(r.dramBits)
     << " sec=" << hex64(r.secondsBits) << " records=" << r.recordCount << '/'
     << hex64(r.recordHash);
  return os.str();
}

std::string keyOf(const std::string& line) {
  return line.substr(0, line.find(' '));  // "<program>"
}

bool captureMode() {
  const char* v = std::getenv("JEPO_CAPTURE_GOLDENS");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

// ------------------------------------------------------------- test corpus

std::string readFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Feature-coverage snippets: each exercises a distinct slice of the
// resolver's annotation space (locals/shadowing, statics + init order,
// instance fields + ctors, virtual + unqualified + builtin-static calls,
// strings/builders, exceptions, switch/ternary/casts, arrays, boxing).
const std::map<std::string, std::string>& snippetPrograms() {
  static const std::map<std::string, std::string> programs = {
      {"locals_scopes", R"(
class Main {
  static void main(String[] args) {
    int x = 1;
    for (int i = 0; i < 3; i++) {
      int y = i * 2;
      x = x + y;
      if (y > 1) { int z = y - 1; x += z; }
    }
    while (x < 20) { x = x + 3; }
    int i = 100;
    System.out.println(x + i);
  }
}
)"},
      {"statics_init", R"(
class Config {
  static int base = 7;
  static int derived = base * 3;
  static long big = 1000000L;
  static double ratio = 2.5;
  static int bump(int n) { return n + base; }
}
class Main {
  static int counter = 0;
  static void main(String[] args) {
    counter = Config.bump(Config.derived);
    Config.base = Config.base + 1;
    System.out.println(counter);
    System.out.println(Config.base);
    System.out.println(Config.big);
    System.out.println(Config.ratio);
  }
}
)"},
      {"objects_dispatch", R"(
class Accumulator {
  int total;
  int count;
  Accumulator(int seed) { total = seed; count = 0; }
  void add(int v) { total = total + v; count++; }
  int mean() { if (count == 0) { return total; } return total / count; }
  int scaled(int f) { return helper(f) * total; }
  int helper(int f) { return f + 1; }
}
class Main {
  static void main(String[] args) {
    Accumulator a = new Accumulator(10);
    Accumulator b = new Accumulator(0);
    for (int i = 0; i < 8; i++) { a.add(i * 3); b.add(a.mean()); }
    System.out.println(a.scaled(2));
    System.out.println(b.total + "," + b.count);
  }
}
)"},
      {"strings_builders", R"(
class Main {
  static void main(String[] args) {
    String s = "energy";
    StringBuilder sb = new StringBuilder();
    for (int i = 0; i < 4; i++) {
      sb.append(s.substring(0, 3)).append(i);
    }
    String t = sb.toString();
    System.out.println(t);
    System.out.println(t.length());
    System.out.println(s.equals("energy"));
    System.out.println(s.compareTo("energies"));
    System.out.println(s.indexOf("erg"));
    System.out.println(s.charAt(2));
    System.out.println("abc".concat("def").startsWith("abcd"));
    System.out.println(s.hashCode());
  }
}
)"},
      {"exceptions_flow", R"(
class Validator {
  static int check(int v) {
    if (v < 0) { throw new IllegalArgumentException("negative"); }
    if (v > 100) { throw new RuntimeException("too big"); }
    return v * 2;
  }
}
class Main {
  static void main(String[] args) {
    int sum = 0;
    int[] probes = new int[4];
    probes[0] = 5; probes[1] = -3; probes[2] = 200; probes[3] = 50;
    for (int i = 0; i < probes.length; i++) {
      try {
        sum += Validator.check(probes[i]);
      } catch (IllegalArgumentException e) {
        sum += 1;
        System.out.println("iae: " + e.getMessage());
      } catch (RuntimeException e) {
        sum += 2;
      } finally {
        sum += 100;
      }
    }
    try {
      int[] small = new int[2];
      small[5] = 1;
    } catch (Exception e) {
      System.out.println("caught: " + e.getMessage());
    }
    System.out.println(sum);
  }
}
)"},
      {"switch_ternary_cast", R"(
class Main {
  static void main(String[] args) {
    int acc = 0;
    for (int i = 0; i < 6; i++) {
      switch (i % 4) {
        case 0: acc += 1; break;
        case 1: acc += 10;
        case 2: acc += 100; break;
        default: acc += 1000;
      }
    }
    double d = 7.9;
    int truncated = (int) d;
    long widened = (long) truncated;
    float f = (float) d;
    byte b = (byte) 300;
    acc += truncated + (int) widened + (int) f + b;
    String label = acc > 500 ? "high" : "low";
    System.out.println(label + ":" + acc);
  }
}
)"},
      {"arrays_matrix", R"(
class Main {
  static void main(String[] args) {
    int[][] m = new int[4][5];
    for (int r = 0; r < 4; r++) {
      for (int c = 0; c < 5; c++) { m[r][c] = r * 5 + c; }
    }
    int diag = 0;
    for (int i = 0; i < 4; i++) { diag += m[i][i]; }
    int[] flat = new int[20];
    System.arraycopy(m[1], 0, flat, 0, 5);
    System.arraycopy(m[2], 1, flat, 5, 4);
    int s = 0;
    for (int i = 0; i < flat.length; i++) { s += flat[i]; }
    System.out.println(diag + "/" + s + "/" + m.length + "/" + m[0].length);
  }
}
)"},
      {"gc_churn", R"(
class Cell {
  int v;
  Cell next;
  Cell(int x) { v = x; next = null; }
  int depth() { return next == null ? 1 : 1 + next.depth(); }
}
class Main {
  static void main(String[] args) {
    Cell head = null;
    int sum = 0;
    for (int i = 0; i < 400; i++) {
      Cell c = new Cell(i);
      int[] scratch = new int[12];
      scratch[i % 12] = c.v * 2;
      sum += scratch[i % 12];
      if (i % 50 == 0) { c.next = head; head = c; }
      StringBuilder sb = new StringBuilder();
      sb.append(i % 7);
      sum += sb.toString().length();
    }
    System.out.println(sum + "/" + head.v + "/" + head.depth());
  }
}
)"},
      {"boxing_wrappers", R"(
class Main {
  static void main(String[] args) {
    Integer i = Integer.valueOf(41);
    Integer j = 1;
    int sum = i.intValue() + j.intValue();
    Double d = Double.valueOf(2.5);
    Long big = Long.valueOf(123456789L);
    System.out.println(sum);
    System.out.println(d.doubleValue() * 4.0);
    System.out.println(big.longValue() % 1000L);
    System.out.println(Integer.parseInt("321") + Integer.MAX_VALUE % 1000);
    System.out.println(Math.max(Math.abs(-7), Math.min(3, 9)));
    System.out.println(Math.sqrt(144.0) + Math.PI);
    System.out.println(i.equals(41));
  }
}
)"},
  };
  return programs;
}

std::map<std::string, std::string> allPrograms() {
  std::map<std::string, std::string> programs = snippetPrograms();
  programs["edge_pipeline_mjava"] =
      readFileOrDie(JEPO_REPO_DIR "/examples/data/EdgePipeline.mjava");
  programs["demo_weka_project"] = bench::kDemoProjectSource;
  return programs;
}

std::map<std::string, std::string> computeLines() {
  std::map<std::string, std::string> lines;
  for (const auto& [name, src] : allPrograms()) {
    const std::string tree = goldenLine(name, "tree", runTree(name, src));
    // Cross-engine invariant, independent of goldens: the bytecode VM
    // reproduces the oracle's observables exactly.
    EXPECT_EQ(goldenLine(name, "tree", runBcvm(name, src)), tree)
        << "bytecode VM diverged from the tree interpreter on " << name;
    lines[name] = tree;
  }
  return lines;
}

TEST(DifferentialGolden, EnginesMatchSeedGoldens) {
  const std::map<std::string, std::string> lines = computeLines();

  if (captureMode()) {
    std::ofstream out(kGoldenPath, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << "# differential engine goldens — captured from the seed engines.\n"
           "# one line per program; both engines must reproduce it.\n"
           "# format: <program> tree out=<fnv64>/<bytes> pkg=<f64 bits>\n"
           "#         core=<f64 bits> dram=<f64 bits> sec=<f64 bits>\n"
           "#         records=<count>/<fnv64>\n"
           "# regenerate: JEPO_CAPTURE_GOLDENS=1 ./differential_test\n";
    for (const auto& [key, line] : lines) out << line << '\n';
    GTEST_SKIP() << "goldens captured to " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.good())
      << "missing golden file " << kGoldenPath
      << " — run JEPO_CAPTURE_GOLDENS=1 ./differential_test on the seed";
  std::map<std::string, std::string> goldens;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    goldens[keyOf(line)] = line;
  }

  ASSERT_EQ(goldens.size(), lines.size())
      << "golden file lists a different program set — regenerate on seed";
  for (const auto& [key, line] : lines) {
    const auto it = goldens.find(key);
    ASSERT_NE(it, goldens.end()) << "no golden for " << key;
    EXPECT_EQ(it->second, line)
        << "engine observables diverged from seed for " << key;
  }
}

// Every corpus program reruns on both engines with a heap limit small
// enough to force mark-compact collections; all golden-pinned observables
// (stdout bytes, joule/second bits, the full record-stream hash) must be
// bit-identical to the unlimited run. The collector may only spend host
// time — it must never move a simulated joule.
TEST(DifferentialGolden, HeapLimitIsObservablyInvisible) {
  constexpr std::size_t kLimit = 24;
  for (const auto& [name, src] : allPrograms()) {
    SCOPED_TRACE(name);
    const EngineResult tree = runTree(name, src);
    const EngineResult treeGc = runTree(name, src, kLimit);
    expectSameObservables(tree, treeGc);

    const EngineResult bcvm = runBcvm(name, src);
    const EngineResult bcvmGc = runBcvm(name, src, kLimit);
    expectSameObservables(bcvm, bcvmGc);

    EXPECT_EQ(tree.collections, 0u);
    EXPECT_EQ(bcvm.collections, 0u);
    if (name == "demo_weka_project" || name == "gc_churn") {
      EXPECT_GE(treeGc.collections, 3u) << "heap limit never triggered";
      EXPECT_GE(bcvmGc.collections, 3u) << "heap limit never triggered";
    }
  }
}

TEST(DifferentialGolden, HookStreamsStayBalanced) {
  for (const auto& [name, src] : allPrograms()) {
    SCOPED_TRACE(name);
    const jlang::Program prog = jlang::Parser::parseProgram(name, src);
    energy::SimMachine machine;
    jvm::Interpreter interp(prog, machine);
    jvm::Instrumenter inst(machine);
    interp.setHooks(&inst);
    interp.setMaxSteps(50'000'000);
    interp.runMain();
    EXPECT_FALSE(inst.hasOpenFrames());
    EXPECT_GT(inst.records().size(), 0u);
  }
}

}  // namespace
