// Cross-engine differential fuzzer: seeded random MiniJava programs run on
// both the tree interpreter (the oracle) and the bytecode VM (the engine
// core::Profiler runs), which must agree exactly on
//
//   - printed output (byte-for-byte),
//   - the per-op energy-meter counts and the tree-step count,
//   - the instrumented method-record stream: names, seconds and joules
//     bit for bit (equal op counts between consecutive hook events price
//     to identical joules), hence the run's total joules too.
//
// Each program then reruns per engine under a tiny heap limit that forces
// multiple mark-compact collections; the observables must stay bit-identical
// to the unlimited run — GC is host-time only. A last pair of runs repeats
// the engine comparison under the sampled:4 tier, whose gate declines most
// entries: a declined call to a trivial callee is the one the bytecode VM
// runs without a frame, so that path is compared against the tree as well.
//
// Environment knobs:
//   JEPO_FUZZ_RUNS=N   number of generated programs (default 200)
//   JEPO_FUZZ_SEED=N   base seed for the derived stream (default below)
//   JEPO_FUZZ_ONLY=N   replay exactly one derived seed (as printed by a
//                      failure) and dump its source
#include <gtest/gtest.h>

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "energy/machine.hpp"
#include "energy/op.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "jlang/parser.hpp"
#include "jvm/instrumenter.hpp"
#include "jvm/interpreter.hpp"
#include "jvm/tier.hpp"
#include "obs/registry.hpp"
#include "support/rng.hpp"
#include "tests/support/progen.hpp"

namespace {

using namespace jepo;

using testgen::kDefaultBaseSeed;
using testgen::kDefaultRuns;
constexpr std::size_t kFuzzHeapLimit = 48;
constexpr std::uint64_t kMaxSteps = 20'000'000;
constexpr std::uint64_t kTierSeed = 2020;

/// Strict u64 parse for seed knobs: decimal or 0x-prefixed hex, the exact
/// inverse of replayBanner's `JEPO_FUZZ_ONLY=0x%llx`. Rejects what
/// strtoull would quietly accept-or-mangle — leading signs/whitespace
/// (strtoull *negates* "-1" into 2^64-1), trailing junk, and out-of-range
/// values (strtoull saturates to ULLONG_MAX with only errno to show for
/// it) — so a replayed seed either round-trips bit-exactly or fails.
bool parseU64(const char* v, std::uint64_t* out) {
  if (v == nullptr || *v == '\0') return false;
  if (!std::isdigit(static_cast<unsigned char>(v[0]))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v, &end, 0);
  if (end == v || *end != '\0' || errno == ERANGE) return false;
  *out = n;
  return true;
}

std::uint64_t envU64(const char* name, std::uint64_t fallback, bool* set) {
  if (set != nullptr) *set = false;
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  std::uint64_t n = 0;
  if (!parseU64(v, &n)) {
    // A mangled replay seed must fail loudly: silently falling back here
    // would fuzz 200 fresh seeds instead of replaying the one requested.
    ADD_FAILURE() << name << "='" << v
                  << "' is not a valid u64 (decimal or 0x hex)";
    return fallback;
  }
  if (set != nullptr) *set = true;
  return n;
}

struct RunResult {
  std::string out;
  std::uint64_t pkgBits = 0;
  std::uint64_t coreBits = 0;
  std::uint64_t dramBits = 0;
  std::uint64_t secondsBits = 0;
  // Every record in order: method name plus its seconds/joule bits.
  std::vector<std::string> records;
  energy::OpArray<std::uint64_t> counts{};
  std::uint64_t steps = 0;
  std::uint64_t collections = 0;
  std::string error;  // non-empty when the run threw

  bool sameObservables(const RunResult& o) const {
    return error == o.error && out == o.out && pkgBits == o.pkgBits &&
           coreBits == o.coreBits && dramBits == o.dramBits &&
           secondsBits == o.secondsBits && records == o.records &&
           counts == o.counts && steps == o.steps;
  }
};

std::uint64_t stepCounter() {
  return obs::Registry::global().counter("vm.steps").value();
}

std::uint64_t doubleBits(double d) {
  std::uint64_t u = 0;
  static_assert(sizeof u == sizeof d);
  std::memcpy(&u, &d, sizeof u);
  return u;
}

void finish(RunResult& r, energy::SimMachine& machine, const std::string& out,
            jvm::Instrumenter& inst, std::uint64_t steps0) {
  inst.finalizeSampling();
  const energy::MachineSample s = machine.sample();
  r.out = out;
  r.pkgBits = doubleBits(s.packageJoules);
  r.coreBits = doubleBits(s.coreJoules);
  r.dramBits = doubleBits(s.dramJoules);
  r.secondsBits = doubleBits(s.seconds);
  for (const auto& rec : inst.records()) {
    char bits[80];
    std::snprintf(bits, sizeof bits, " %016llx/%016llx/%016llx",
                  static_cast<unsigned long long>(doubleBits(rec.seconds)),
                  static_cast<unsigned long long>(
                      doubleBits(rec.packageJoules)),
                  static_cast<unsigned long long>(
                      doubleBits(rec.samplingRate)));
    r.records.push_back(rec.method + bits);
  }
  r.counts = machine.meter().counts();
  r.steps = stepCounter() - steps0;
}

RunResult runTree(const testgen::GeneratedProgram& p, std::size_t heapLimit,
                  const jvm::TierSpec* tier = nullptr) {
  RunResult r;
  try {
    const jlang::Program prog = jlang::Parser::parseProgram(p.name, p.source);
    energy::SimMachine machine;
    jvm::Interpreter interp(prog, machine);
    interp.setHeapLimit(heapLimit);
    jvm::Instrumenter inst(machine);
    if (tier != nullptr) inst.setTier(*tier, kTierSeed);
    interp.setHooks(&inst);
    interp.setMaxSteps(kMaxSteps);
    const std::uint64_t steps0 = stepCounter();
    interp.runMain();
    finish(r, machine, interp.output(), inst, steps0);
    r.collections = interp.gc().collections();
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

RunResult runBcvm(const testgen::GeneratedProgram& p, std::size_t heapLimit,
                  const jvm::TierSpec* tier = nullptr) {
  RunResult r;
  try {
    const jlang::Program prog = jlang::Parser::parseProgram(p.name, p.source);
    const jbc::CompiledProgram compiled = jbc::compile(prog);
    energy::SimMachine machine;
    jbc::BytecodeVm vm(compiled, machine);
    vm.setHeapLimit(heapLimit);
    jvm::Instrumenter inst(machine);
    if (tier != nullptr) inst.setTier(*tier, kTierSeed);
    vm.setHooks(&inst);
    vm.setMaxSteps(kMaxSteps);
    const std::uint64_t steps0 = stepCounter();
    vm.runMain();
    finish(r, machine, vm.output(), inst, steps0);
    r.collections = vm.gc().collections();
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

std::string describe(const RunResult& r) {
  std::string s;
  if (!r.error.empty()) return "error: " + r.error;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "pkg=%016llx core=%016llx dram=%016llx sec=%016llx out=%zuB",
                static_cast<unsigned long long>(r.pkgBits),
                static_cast<unsigned long long>(r.coreBits),
                static_cast<unsigned long long>(r.dramBits),
                static_cast<unsigned long long>(r.secondsBits),
                r.out.size());
  s = buf;
  s += " steps=" + std::to_string(r.steps) +
       " records=" + std::to_string(r.records.size());
  return s;
}

std::string replayBanner(std::uint64_t seed,
                         const testgen::GeneratedProgram& p) {
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "replay: JEPO_FUZZ_ONLY=0x%llx ./fuzz_diff_test",
                static_cast<unsigned long long>(seed));
  return std::string(buf) + "\n---- generated program " + p.name +
         " ----\n" + p.source + "----\n";
}

// Compares one tree run with one bytecode run of the same program under the
// same hooks (`mode` names them in failures); false on any divergence.
bool enginesAgree(const RunResult& tree, const RunResult& bcvm,
                  const char* mode, std::uint64_t seed,
                  const testgen::GeneratedProgram& p) {
  SCOPED_TRACE(mode);
  // A generator-produced program must execute cleanly on both engines.
  if (!tree.error.empty() || !bcvm.error.empty()) {
    ADD_FAILURE() << "generated program failed to run\n"
                  << "  tree: " << (tree.error.empty() ? "ok" : tree.error)
                  << "\n  bcvm: " << (bcvm.error.empty() ? "ok" : bcvm.error)
                  << "\n" << replayBanner(seed, p);
    return false;
  }

  bool ok = true;
  if (tree.out != bcvm.out) {
    ADD_FAILURE() << "engines disagree on stdout\n"
                  << "  tree: " << tree.out << "  bcvm: " << bcvm.out
                  << replayBanner(seed, p);
    ok = false;
  }
  if (tree.counts != bcvm.counts || tree.steps != bcvm.steps) {
    std::string diff;
    for (std::size_t i = 0; i < energy::kOpCount; ++i) {
      if (tree.counts[i] == bcvm.counts[i]) continue;
      diff += "  " +
              std::string(energy::opName(static_cast<energy::Op>(i))) +
              ": tree " + std::to_string(tree.counts[i]) + " bcvm " +
              std::to_string(bcvm.counts[i]) + "\n";
    }
    ADD_FAILURE() << "engines disagree on op or step counts (steps: tree "
                  << tree.steps << " bcvm " << bcvm.steps << ")\n"
                  << diff << replayBanner(seed, p);
    ok = false;
  }
  if (tree.pkgBits != bcvm.pkgBits || tree.coreBits != bcvm.coreBits ||
      tree.dramBits != bcvm.dramBits ||
      tree.secondsBits != bcvm.secondsBits) {
    ADD_FAILURE() << "engines disagree on simulated energy\n  tree "
                  << describe(tree) << "\n  bcvm " << describe(bcvm) << "\n"
                  << replayBanner(seed, p);
    ok = false;
  }
  if (tree.records != bcvm.records) {
    std::size_t i = 0;
    while (i < tree.records.size() && i < bcvm.records.size() &&
           tree.records[i] == bcvm.records[i]) {
      ++i;
    }
    ADD_FAILURE() << "engines disagree on the method-record stream at "
                  << "record " << i << "\n  tree "
                  << (i < tree.records.size() ? tree.records[i] : "<end>")
                  << "\n  bcvm "
                  << (i < bcvm.records.size() ? bcvm.records[i] : "<end>")
                  << "\n" << replayBanner(seed, p);
    ok = false;
  }
  return ok;
}

// Checks one derived seed; returns false on any divergence so the caller
// can cap the failure spam.
bool checkSeed(std::uint64_t seed) {
  const testgen::GeneratedProgram p = testgen::generateProgram(seed);
  const RunResult tree = runTree(p, 0);
  const RunResult bcvm = runBcvm(p, 0);
  if (!enginesAgree(tree, bcvm, "full instrumentation", seed, p)) {
    return false;
  }
  bool ok = true;

  // GC must be invisible: rerun each engine under a heap limit small enough
  // to force collections and require bit-identical observables.
  const RunResult treeGc = runTree(p, kFuzzHeapLimit);
  const RunResult bcvmGc = runBcvm(p, kFuzzHeapLimit);
  if (!treeGc.sameObservables(tree)) {
    ADD_FAILURE() << "tree engine diverged under heap limit "
                  << kFuzzHeapLimit << "\n  unlimited " << describe(tree)
                  << "\n  limited   " << describe(treeGc) << "\n"
                  << replayBanner(seed, p);
    ok = false;
  }
  if (!bcvmGc.sameObservables(bcvm)) {
    ADD_FAILURE() << "bytecode engine diverged under heap limit "
                  << kFuzzHeapLimit << "\n  unlimited " << describe(bcvm)
                  << "\n  limited   " << describe(bcvmGc) << "\n"
                  << replayBanner(seed, p);
    ok = false;
  }
  // The churn loop every program ends with must actually trigger the
  // collector, or the bit-identity check above proves nothing.
  EXPECT_GT(treeGc.collections, 0u) << replayBanner(seed, p);
  EXPECT_GT(bcvmGc.collections, 0u) << replayBanner(seed, p);

  const jvm::TierSpec sampled = jvm::parseTierSpec("sampled:4");
  return enginesAgree(runTree(p, 0, &sampled), runBcvm(p, 0, &sampled),
                      "sampled:4", seed, p) &&
         ok;
}

TEST(FuzzDiff, ReplaySeedEnvRoundTrips) {
  // A seed printed by replayBanner ("JEPO_FUZZ_ONLY=0x%llx") must come back
  // bit-exact through envU64, including the high bit. Use a scratch variable
  // so a real JEPO_FUZZ_ONLY in the environment can't interfere.
  constexpr const char* kVar = "JEPO_FUZZ_ONLY_ROUNDTRIP_TEST";
  const std::uint64_t seeds[] = {0, 1, kDefaultBaseSeed,
                                 deriveSeed(kDefaultBaseSeed, 7),
                                 0xFFFFFFFFFFFFFFFFULL};
  for (const std::uint64_t seed : seeds) {
    char banner[32];
    std::snprintf(banner, sizeof banner, "0x%llx",
                  static_cast<unsigned long long>(seed));
    ASSERT_EQ(::setenv(kVar, banner, 1), 0);
    bool set = false;
    EXPECT_EQ(envU64(kVar, 42, &set), seed) << banner;
    EXPECT_TRUE(set) << banner;

    // The decimal spelling a user might type by hand round-trips too.
    std::snprintf(banner, sizeof banner, "%llu",
                  static_cast<unsigned long long>(seed));
    ASSERT_EQ(::setenv(kVar, banner, 1), 0);
    set = false;
    EXPECT_EQ(envU64(kVar, 42, &set), seed) << banner;
    EXPECT_TRUE(set) << banner;
  }
  ASSERT_EQ(::unsetenv(kVar), 0);

  // Unset / empty use the fallback without claiming the knob was set.
  bool set = true;
  EXPECT_EQ(envU64(kVar, 42, &set), 42u);
  EXPECT_FALSE(set);
  ASSERT_EQ(::setenv(kVar, "", 1), 0);
  set = true;
  EXPECT_EQ(envU64(kVar, 42, &set), 42u);
  EXPECT_FALSE(set);
  ASSERT_EQ(::unsetenv(kVar), 0);

  // Mangled spellings are rejected outright rather than quietly wrapped,
  // saturated, or truncated into fuzzing some other seed.
  std::uint64_t out = 0;
  EXPECT_FALSE(parseU64(nullptr, &out));
  EXPECT_FALSE(parseU64("", &out));
  EXPECT_FALSE(parseU64("0x", &out));
  EXPECT_FALSE(parseU64("0xfz", &out));
  EXPECT_FALSE(parseU64("123junk", &out));
  EXPECT_FALSE(parseU64("-1", &out));                    // strtoull would wrap
  EXPECT_FALSE(parseU64("+1", &out));
  EXPECT_FALSE(parseU64(" 1", &out));
  EXPECT_FALSE(parseU64("18446744073709551616", &out));  // 2^64 saturates
  EXPECT_FALSE(parseU64("0x10000000000000000", &out));
}

TEST(FuzzDiff, GeneratorIsDeterministic) {
  const testgen::GeneratedProgram a = testgen::generateProgram(1234);
  const testgen::GeneratedProgram b = testgen::generateProgram(1234);
  const testgen::GeneratedProgram c = testgen::generateProgram(1235);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.name, b.name);
  EXPECT_NE(a.source, c.source);
}

// The agreement check above proves a fused handler right only if some
// program compiles to it: every superinstruction must appear in a method,
// <clinit> or <initfields> chunk of the default seeds.
TEST(FuzzDiff, GeneratedProgramsEmitEverySuperinstruction) {
  constexpr auto kFirst =
      static_cast<std::size_t>(jbc::kFirstSuperinstruction);
  std::vector<int> programsWith(jbc::kOpCount, 0);
  for (int i = 0; i < kDefaultRuns; ++i) {
    const testgen::GeneratedProgram p = testgen::generateProgram(
        deriveSeed(kDefaultBaseSeed, static_cast<std::uint64_t>(i)));
    const jlang::Program prog = jlang::Parser::parseProgram(p.name, p.source);
    const jbc::CompiledProgram compiled = jbc::compile(prog);
    std::vector<char> seen(jbc::kOpCount, 0);
    const auto scan = [&](const jbc::Chunk& chunk) {
      for (const jbc::Instr& in : chunk.code) {
        seen[static_cast<std::size_t>(in.op)] = 1;
      }
    };
    for (const auto& [className, cls] : compiled.classes) {
      scan(cls.clinit);
      scan(cls.initFields);
      for (const auto& [methodName, chunk] : cls.methods) scan(chunk);
    }
    for (std::size_t op = kFirst; op < jbc::kOpCount; ++op) {
      programsWith[op] += seen[op];
    }
  }
  for (std::size_t op = kFirst; op < jbc::kOpCount; ++op) {
    EXPECT_GT(programsWith[op], 0) << "no generated program emits "
                                   << jbc::opName(static_cast<jbc::Op>(op));
  }
}

TEST(FuzzDiff, EnginesAgreeOnGeneratedPrograms) {
  bool onlySet = false;
  const std::uint64_t only = envU64("JEPO_FUZZ_ONLY", 0, &onlySet);
  if (onlySet) {
    const testgen::GeneratedProgram p = testgen::generateProgram(only);
    std::fputs(replayBanner(only, p).c_str(), stderr);
    EXPECT_TRUE(checkSeed(only));
    return;
  }

  const std::uint64_t base =
      envU64("JEPO_FUZZ_SEED", kDefaultBaseSeed, nullptr);
  const int runs = static_cast<int>(envU64(
      "JEPO_FUZZ_RUNS", static_cast<std::uint64_t>(kDefaultRuns), nullptr));
  int failures = 0;
  for (int i = 0; i < runs; ++i) {
    const std::uint64_t seed = deriveSeed(base, static_cast<std::uint64_t>(i));
    if (!checkSeed(seed)) ++failures;
    ASSERT_LT(failures, 3) << "stopping after repeated divergence — replay "
                              "individual seeds with JEPO_FUZZ_ONLY";
  }
}

}  // namespace
