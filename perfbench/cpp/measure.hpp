// Clocks, order statistics and the result line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock seconds (arbitrary origin).
double wallSeconds() noexcept;
/// CPU seconds of the whole process (every thread).
double processCpuSeconds() noexcept;
/// Peak resident set of the process so far, in MiB.
double peakRssMb() noexcept;

/// Quantile q in [0, 1] by linear interpolation between order statistics
/// (the "inclusive" method). 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's outcome: every metric of the run plus the correctness
/// verdict. `failures` lists the gates that failed (empty = correct).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness gate (printed to stderr at the end).
  void fail(std::string what) { failures.push_back(std::move(what)); }
};

/// Prints every metric as a readable line, then the result object as the
/// last line of stdout:
///   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
void printOutcome(const Outcome& outcome);

}  // namespace perfbench
