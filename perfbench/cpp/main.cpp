// perfbench — the repository benchmark. See perfbench/README.md.
//
// Prints the host/build stamp, every metric by name and unit, and as the
// last stdout line the result object. Exit status: 0 when every
// correctness gate held, 1 when one failed or no job completed, 2 on a
// usage error.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>

#include "cli.hpp"
#include "host.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics of an untraced run (BENCHMARK.json end_to_end).
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"jobs_per_s", "1/s"},
    {"job_p50_ms", "ms"},    {"job_p95_ms", "ms"},
    {"cpu_ms_per_job", "ms"}, {"peak_rss_mb", "MiB"},
};

/// The per-layer metrics of a traced run (BENCHMARK.json per_layer). A
/// layer a workload does not exercise reports 0.
const MetricSpec kPerLayer[] = {
    {"jepod.jobs_replayed", "count"},
    {"jepod.replay_job_us", "us"},
    {"jepod.request_parse_us", "us"},
    {"jepod.cache_lookup_us", "us"},
    {"jepod.cache_insert_us", "us"},
    {"jepod.cache_hit_ratio", "ratio"},
    {"jepod.cache_lookups", "count"},
    {"jepod.cache_evictions", "count"},
    {"jepod.render_us", "us"},
    {"jepod.request_bytes", "bytes"},
    {"jepod.response_bytes", "bytes"},
    {"jepod.wire_us", "us"},
    {"jepod.rejected", "count"},
    {"jlang.parse_us", "us"},
    {"jlang.resolve_us", "us"},
    {"jlang.print_us", "us"},
    {"jepo.profile_us", "us"},
    {"jepo.suggest_us", "us"},
    {"jepo.optimize_us", "us"},
    {"jvm.run_bare_us", "us"},
    {"jvm.instrument_share", "ratio"},
    {"jvm.steps_per_job", "count"},
    {"jvm.records_per_job", "count"},
    {"jvm.gc_collections_per_job", "count"},
    {"experiments.prep_s", "s"},
    {"ml.measure_ms", "ms"},
    {"ml.measures", "count"},
    {"stats.rounds", "count"},
    {"stats.remeasured", "count"},
    {"experiments.idle_share", "ratio"},
    {"experiments.assemble_ms", "ms"},
    {"trace.overhead_share", "ratio"},
};

/// Puts the outcome's metrics in the declared order and units, adding 0
/// for declared per-layer metrics the workload does not exercise. A metric
/// outside the declaration is a benchmark bug.
void conform(bool traced, Outcome* out) {
  std::map<std::string, Metric> got;
  for (const Metric& m : out->metrics) got.emplace(m.name, m);
  std::vector<Metric> ordered;
  const std::span<const MetricSpec> specs =
      traced ? std::span<const MetricSpec>(kPerLayer)
             : std::span<const MetricSpec>(kEndToEnd);
  for (const MetricSpec& spec : specs) {
    const auto it = got.find(spec.name);
    if (it == got.end()) {
      if (!traced) {
        out->fail(std::string("metric ") + spec.name + " not measured");
        continue;
      }
      ordered.push_back({spec.name, 0.0, spec.unit});
      continue;
    }
    if (it->second.unit != spec.unit) {
      out->fail("metric " + it->first + " has unit " + it->second.unit);
    }
    ordered.push_back(it->second);
    got.erase(it);
  }
  for (const auto& [name, m] : got) out->fail("undeclared metric " + name);
  out->metrics = std::move(ordered);
}

}  // namespace

void checkCountRecord(
    const Options& options,
    const std::vector<std::pair<std::string, double>>& counts,
    Outcome* outcome) {
  std::ostringstream text;
  for (const auto& [name, value] : counts) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    text << name << ' ' << buf << '\n';
  }
  std::filesystem::create_directories(options.outDir);
  const std::string path = options.outDir + "/counts-" +
                           std::string(workloadName(options.workload)) +
                           "-seed" + std::to_string(options.seed) + "-" +
                           options.sourceSha.substr(0, 16) + ".txt";
  std::ifstream in(path);
  if (in) {
    std::stringstream previous;
    previous << in.rdbuf();
    if (previous.str() != text.str()) {
      outcome->fail("exact counts differ from an earlier run of this seed (" +
                    path + ")");
    }
    return;
  }
  std::ofstream(path) << text.str();
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  try {
    options = parseOptions(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  const std::string refusal = buildRefusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report numbers: %s\n",
                 refusal.c_str());
    return 1;
  }
  if (!options.captureTable4.empty()) {
    return captureTable4Rows(options.captureTable4);
  }

  std::printf("%s\n", hostStampJson(options).c_str());
  Outcome outcome;
  try {
    outcome = options.workload == Workload::kTable4
                  ? runTable4Workload(options)
                  : runJepodWorkload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (outcome.attempted == 0) {
    std::fprintf(stderr, "perfbench: no job completed\n");
    return 1;
  }
  conform(options.trace, &outcome);
  printOutcome(outcome);
  return outcome.failures.empty() ? 0 : 1;
}
