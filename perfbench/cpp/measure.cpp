#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>

#include "support/json_writer.hpp"

namespace perfbench {

double wallSeconds() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double processCpuSeconds() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peakRssMb() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void printOutcome(const Outcome& outcome) {
  for (const Metric& m : outcome.metrics) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& f : outcome.failures) {
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
                 f.c_str());
  }
  jepo::JsonWriter w;
  w.beginObject();
  w.kv("correct", outcome.failures.empty());
  w.kv("attempted", static_cast<unsigned long long>(outcome.attempted));
  w.kv("failed", static_cast<unsigned long long>(outcome.failed));
  w.key("metrics");
  w.beginObject();
  for (const Metric& m : outcome.metrics) {
    w.key(m.name);
    w.beginObject();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.endObject();
  }
  w.endObject();
  w.endObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
