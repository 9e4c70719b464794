// No-fault-path overhead: what the hardened measurement pipeline costs
// when nothing is failing — the common case for every real experiment.
//
// The hardening added (a) a bounded retry wrapper around every MSR read
// and (b) interval classification (backwards/multiwrap/stale heuristics)
// to every EnergyCounter measurement. With no fault plan attached the
// FaultyMsrDevice decorator is never even constructed, so those two are
// the entire clean-path cost. Both are microbenched per call against their
// unhardened equivalents (readRaw, elapsedJoules) and the deltas are
// scaled by the number of calls one perf measurement makes, bounding the
// overhead as a fraction of the median measurement runtime — the same
// per-site methodology as bench_obs_overhead, because an end-to-end <1%
// effect drowns in run-to-run noise. The bench FAILS (exit 1) if the
// bound reaches 1%.
//
// Flags: --reps=<n> measurement repetitions (default 5)
#include "bench_common.hpp"
#include "demo_project.hpp"

#include <algorithm>
#include <chrono>

#include "energy/machine.hpp"
#include "jlang/parser.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "perf/perf.hpp"
#include "rapl/rapl.hpp"
#include "stats/stats.hpp"

namespace {

using namespace jepo;

/// Nanoseconds per call of `f`, with the result accumulated so the loop
/// cannot be optimized away.
template <typename F>
double nanosPerCall(int iters, F&& f) {
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) sink += f();
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  // Defeat dead-code elimination without volatile traffic in the loop.
  if (sink == 0xDEADBEEFCAFEULL) std::fputs("", stderr);
  return ns / iters;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv, {"reps"});
  bench::BenchReport report("bench_fault_overhead", flags);
  const int reps = static_cast<int>(flags.getInt("reps", 5, /*min=*/1));
  report.config("reps", reps);

  bench::printHeader(
      "Fault-tolerance overhead — clean-path cost of retry wrappers and "
      "interval classification (gate: < 1%)");

  // ---- Per-call deltas, measured on a live simulated package.
  rapl::SimulatedRaplPackage pkg;
  pkg.deposit(rapl::Domain::kPackage, 123.0);
  const rapl::RaplReader reader(pkg.device());
  const rapl::EnergyCounter counter(reader, rapl::Domain::kPackage);
  constexpr int kIters = 2'000'000;

  const double plainReadNs = nanosPerCall(kIters, [&] {
    return static_cast<std::uint64_t>(reader.readRaw(rapl::Domain::kPackage));
  });
  const double retryReadNs = nanosPerCall(kIters, [&] {
    return static_cast<std::uint64_t>(
        reader.readRawRetrying(rapl::Domain::kPackage).value);
  });
  const double plainMeasureNs = nanosPerCall(kIters, [&] {
    return static_cast<std::uint64_t>(counter.elapsedJoules());
  });
  const double hardenedMeasureNs = nanosPerCall(kIters, [&] {
    return static_cast<std::uint64_t>(counter.measure(1.0).joules);
  });
  const double readDeltaNs = std::max(0.0, retryReadNs - plainReadNs);
  const double measureDeltaNs =
      std::max(0.0, hardenedMeasureNs - plainMeasureNs);

  // ---- What one perf measurement runs on the hardened path: the
  // power-unit read, three counter arms, then three classified measures
  // (each containing one retrying end-read, already counted in its delta
  // relative to elapsedJoules' plain read).
  constexpr double kRetryingReadsPerStat = 4.0;  // unit + 3 arms
  constexpr double kMeasuresPerStat = 3.0;       // pkg, core, dram

  // ---- Median runtime of a representative measurement (the demo edge
  // pipeline under PerfRunner::exact, no fault plan attached).
  const jlang::Program prog = jlang::Parser::parseProgram(
      "EdgePipeline.mjava", bench::kDemoProjectSource);
  const jbc::CompiledProgram compiled = jbc::compile(prog);
  const perf::PerfRunner runner = perf::PerfRunner::exact();
  const energy::CostModel model = energy::CostModel::calibrated();
  const auto workload = [&compiled](energy::SimMachine& machine) {
    jbc::BytecodeVm vm(compiled, machine);
    vm.setMaxSteps(500'000'000);
    vm.runMain();
  };
  std::vector<double> statTimes;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)runner.statAt(static_cast<std::uint64_t>(r), workload, model);
    statTimes.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  const double statSec = stats::median(statTimes);

  const double overheadPct =
      100.0 *
      (kRetryingReadsPerStat * readDeltaNs +
       kMeasuresPerStat * measureDeltaNs) *
      1e-9 / statSec;

  std::printf("Plain raw read:                %.2f ns\n", plainReadNs);
  std::printf("Retrying raw read:             %.2f ns  (delta %.2f ns)\n",
              retryReadNs, readDeltaNs);
  std::printf("Unchecked interval read:       %.2f ns\n", plainMeasureNs);
  std::printf("Classified interval read:      %.2f ns  (delta %.2f ns)\n",
              hardenedMeasureNs, measureDeltaNs);
  std::printf("Median measurement runtime:    %.4f s\n", statSec);
  std::printf("Clean-path overhead bound:     %.5f%% of a measurement\n",
              overheadPct);

  report.addRow({{"site", "readRawRetrying"},
                 {"plainNs", plainReadNs},
                 {"hardenedNs", retryReadNs},
                 {"deltaNs", readDeltaNs}});
  report.addRow({{"site", "measure"},
                 {"plainNs", plainMeasureNs},
                 {"hardenedNs", hardenedMeasureNs},
                 {"deltaNs", measureDeltaNs}});
  report.config("medianStatSeconds", statSec);
  report.config("overheadPct", overheadPct);

  const int status = report.finish();
  if (overheadPct >= 1.0) {
    std::fprintf(stderr, "FAIL: clean-path overhead bound %.3f%% >= 1%%\n",
                 overheadPct);
    return 1;
  }
  std::puts("\nPASS: clean-path overhead bound < 1%");
  return status;
}
