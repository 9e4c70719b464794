// Seeded MiniJava program generator for the cross-engine differential
// fuzzer. Every program it emits is valid, terminating, and exception-free
// (division/modulo denominators and array indices are generated in safe
// ranges). The engines are charge-identical, so the grammar excludes
// nothing for their sake: ternaries, short-circuit && / ||, qualified
// field and array stores, compound assignment, ++/--, and field/static
// initializers all appear; see tests/fuzz_diff_test.cpp for the
// invariants.
#pragma once

#include <cstdint>
#include <string>

namespace jepo::testgen {

struct GeneratedProgram {
  std::string name;    // stable per-seed identifier, e.g. "fuzz_1a2b3c"
  std::string source;  // complete program with a Main.main entry point
};

/// Deterministically expand `seed` into a program: same seed, same bytes.
/// Programs contain 1-3 helper classes (int fields, statics, instance and
/// static methods with acyclic call edges), bounded loops, object/array
/// churn, and a final printed checksum so divergence surfaces in stdout
/// as well as in the energy ledger.
GeneratedProgram generateProgram(std::uint64_t seed);

/// The fuzzer's default programs: program i of a default run is
/// generateProgram(deriveSeed(kDefaultBaseSeed, i)) for i < kDefaultRuns.
inline constexpr std::uint64_t kDefaultBaseSeed =
    0x6a65706f2d667aULL;  // "jepo-fz"
inline constexpr int kDefaultRuns = 200;

}  // namespace jepo::testgen
