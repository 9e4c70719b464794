// Observability overhead: what the obs layer costs the VM hot path.
//
// Two numbers matter. (1) Tracing DISABLED — the default for every
// experiment — where each instrumented site pays one relaxed atomic load
// and a branch. A microbench times that gate in isolation and the cost is
// scaled by the number of gate visits the workload makes, bounding the
// disabled overhead as a fraction of runtime; the bench FAILS (exit 1) if
// that bound reaches 5%. (2) Tracing ENABLED — spans recorded into the
// ring buffers — measured directly as the median slowdown of the same
// workload, reported for information (flight-recorder mode is opt-in).
//
// Flags: --reps=<n> workload repetitions per mode (default 5)
#include "bench_common.hpp"
#include "demo_project.hpp"

#include <chrono>

#include "energy/machine.hpp"
#include "jlang/parser.hpp"
#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "jvm/instrumenter.hpp"
#include "obs/span.hpp"
#include "stats/stats.hpp"

namespace {

using namespace jepo;

double runWorkloadSeconds(const jbc::CompiledProgram& prog) {
  const auto t0 = std::chrono::steady_clock::now();
  energy::SimMachine machine;
  jbc::BytecodeVm vm(prog, machine);
  jvm::Instrumenter inst(machine);
  vm.setHooks(&inst);  // the method enter/exit seam = the span sites
  vm.setMaxSteps(500'000'000);
  vm.runMain();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Nanoseconds per disabled span site: construct + destruct a Span while
/// enabled() is false, i.e. the relaxed load + branch both benches and the
/// interpreter pay per method call when nobody asked for a trace.
double disabledGateNanos() {
  constexpr int kIters = 2'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    obs::Span span("gate");
  }
  const double ns =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - t0)
          .count();
  return ns / kIters;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv, {"reps"});
  bench::BenchReport report("bench_obs_overhead", flags);
  const int reps = static_cast<int>(flags.getInt("reps", 5, /*min=*/1));
  report.config("reps", reps);

  bench::printHeader(
      "Observability overhead — tracing disabled (gate bound) and enabled "
      "(measured)");

  const jlang::Program source = jlang::Parser::parseProgram(
      "EdgePipeline.mjava", bench::kDemoProjectSource);
  const jbc::CompiledProgram prog = jbc::compile(source);

  // Baseline: tracing off (whatever JEPO_TRACE said, this bench drives the
  // toggle itself; finish() still writes a trace if one was requested).
  const bool wasEnabled = obs::enabled();
  obs::setEnabled(false);
  std::vector<double> offTimes;
  for (int r = 0; r < reps; ++r) offTimes.push_back(runWorkloadSeconds(prog));
  const double offSec = stats::median(offTimes);

  // Tracing on: every method call records a span.
  obs::setEnabled(true);
  std::vector<double> onTimes;
  std::uint64_t spansPerRep = 0;
  for (int r = 0; r < reps; ++r) {
    obs::TraceCollector::clear();
    onTimes.push_back(runWorkloadSeconds(prog));
    spansPerRep = obs::TraceCollector::events().size() +
                  obs::TraceCollector::dropped();
  }
  const double onSec = stats::median(onTimes);
  obs::setEnabled(false);

  const double gateNs = disabledGateNanos();
  // Each recorded span = one gate visit on the disabled path; the bound is
  // deliberately measured per-site rather than end-to-end, where a <0.1%
  // effect drowns in run-to-run noise.
  const double disabledPct =
      100.0 * (gateNs * 1e-9 * static_cast<double>(spansPerRep)) / offSec;
  const double enabledPct = 100.0 * (onSec / offSec - 1.0);

  std::printf("Workload: demo edge pipeline, %d reps per mode\n", reps);
  std::printf("Span sites visited per run:    %llu\n",
              static_cast<unsigned long long>(spansPerRep));
  std::printf("Disabled gate cost:            %.2f ns/site\n", gateNs);
  std::printf("Median runtime, tracing off:   %.4f s\n", offSec);
  std::printf("Median runtime, tracing on:    %.4f s  (%+.2f%%)\n", onSec,
              enabledPct);
  std::printf("Disabled-path overhead bound:  %.4f%% of runtime\n",
              disabledPct);

  report.addRow({{"mode", "disabled"},
                 {"medianSeconds", offSec},
                 {"overheadPct", disabledPct}});
  report.addRow({{"mode", "enabled"},
                 {"medianSeconds", onSec},
                 {"overheadPct", enabledPct}});
  report.config("gateNanosPerSite", gateNs);
  report.config("spansPerRep", spansPerRep);

  obs::setEnabled(wasEnabled);
  const int status = report.finish();
  if (disabledPct >= 5.0) {
    std::fprintf(stderr,
                 "FAIL: disabled-path overhead bound %.2f%% >= 5%%\n",
                 disabledPct);
    return 1;
  }
  std::puts("\nPASS: disabled-path overhead bound < 5%");
  return status;
}
