// Shared main for the google-benchmark micro suites. Gives them the same
// command-line contract as the reproduction benches — --json=<path> emits
// the common BenchReport schema, --trace arms the Chrome trace, unknown
// flags are rejected — while passing every --benchmark_* argument through
// to the library untouched.
#pragma once

#include <benchmark/benchmark.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace jepo::bench {

/// One completed gbench run, kept for post-processing (engine-pair ratio
/// rows) after RunSpecifiedBenchmarks returns.
struct CapturedRun {
  std::string name;
  double realSecondsPerIter = 0.0;
};

/// ConsoleReporter that mirrors each per-iteration run into the report as
/// {name, iterations, realSecondsPerIter, cpuSecondsPerIter}.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(BenchReport* report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      const double realPerIter = run.real_accumulated_time / iters;
      report_->addRow(
          {{"name", run.benchmark_name()},
           {"iterations", static_cast<long long>(run.iterations)},
           {"realSecondsPerIter", realPerIter},
           {"cpuSecondsPerIter", run.cpu_accumulated_time / iters}});
      captured_.push_back({run.benchmark_name(), realPerIter});
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<CapturedRun>& captured() const noexcept {
    return captured_;
  }

 private:
  BenchReport* report_;
  std::vector<CapturedRun> captured_;
};

/// Post-RunSpecifiedBenchmarks hook: add derived rows (ratios, pairings)
/// to the report from the captured per-benchmark timings.
using MicroPostProcess =
    std::function<void(BenchReport&, const std::vector<CapturedRun>&)>;

/// The micro suites' main body. --runs is accepted (CI invokes every bench
/// uniformly with --runs=1) but iteration counts stay gbench's decision.
inline int microMain(const std::string& benchName, int argc, char** argv,
                     const MicroPostProcess& postProcess = {}) {
  std::vector<char*> gbenchArgs = {argv[0]};
  std::vector<char*> jepoArgs = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_", 12) == 0) {
      gbenchArgs.push_back(argv[i]);
    } else {
      jepoArgs.push_back(argv[i]);
    }
  }
  Flags flags(static_cast<int>(jepoArgs.size()), jepoArgs.data());
  BenchReport report(benchName, flags);

  int gbenchArgc = static_cast<int>(gbenchArgs.size());
  benchmark::Initialize(&gbenchArgc, gbenchArgs.data());
  if (benchmark::ReportUnrecognizedArguments(gbenchArgc,
                                             gbenchArgs.data())) {
    return 1;
  }
  CapturingReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (postProcess) postProcess(report, reporter.captured());
  return report.finish();
}

}  // namespace jepo::bench
