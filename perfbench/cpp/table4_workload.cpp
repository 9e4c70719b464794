// table4: the paper's Table-IV run (instances=1000, folds=10, runs=5,
// corpusScale=0.10, trees=10) through experiments::ParallelRunner on 2
// threads. It bypasses jepod, jlang at run time and jvm entirely.
//
// Untraced run: set-up is the preparation phase alone (prepClassifier for
// all ten classifiers on the 2-thread pool), repeated kSetupRepeats times;
// then whole Table-IV runs back to back until --seconds have passed, each
// one's rows checked against the pinned rows. A "job" is one Table-IV run.
// Traced run: the same window, then one more Table-IV run replayed phase by
// phase through the public pieces ParallelRunner is made of —
// detail::prepClassifier, detail::makeStyleMeasures, the protocol
// stats::measureManyWithTukeyLoop with the benchmark's own BatchExecutor,
// detail::assembleResult — with a span around each call.
#include <atomic>
#include <cstdio>
#include <fstream>

#include "experiments/parallel_runner.hpp"
#include "experiments/weka_experiment.hpp"
#include "obs/registry.hpp"
#include "support/thread_pool.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace ex = jepo::experiments;

constexpr std::size_t kThreads = 2;
constexpr int kSetupRepeats = 7;
constexpr std::size_t kKinds =
    static_cast<std::size_t>(jepo::ml::kClassifierKindCount);

ex::WekaExperimentConfig table4Config(std::size_t threads) {
  ex::WekaExperimentConfig cfg;
  cfg.instances = 1000;
  cfg.folds = 10;
  cfg.runs = 5;
  cfg.corpusScale = 0.10;
  cfg.forestTrees = 10;
  cfg.parallel.threads = threads;
  return cfg;
}

/// One row, every field the determinism contract covers, exactly.
std::string renderRow(const ex::ClassifierResult& r) {
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "%s changes=%d changesFullScale=%d pkg=%.17g cpu=%.17g time=%.17g "
      "accBase=%.17g accOpt=%.17g accDrop=%.17g basePkgJ=%.17g "
      "optPkgJ=%.17g tukey=%d degenerate=%d quality=%d faultRetries=%d "
      "flagged=%d tier=%s rate=%.17g",
      std::string(jepo::ml::classifierName(r.kind)).c_str(), r.changes,
      r.changesFullScale, r.packageImprovement, r.cpuImprovement,
      r.timeImprovement, r.accuracyBase, r.accuracyOpt, r.accuracyDrop,
      r.basePackageJoules, r.optPackageJoules, r.tukeyRemeasurements,
      r.degenerateBaseline ? 1 : 0, static_cast<int>(r.quality),
      r.faultRetries, r.flagged ? 1 : 0, r.tier.c_str(), r.samplingRate);
  return buf;
}

std::vector<std::string> renderRows(
    const std::vector<ex::ClassifierResult>& rows) {
  std::vector<std::string> out;
  for (const auto& r : rows) out.push_back(renderRow(r));
  return out;
}

/// The pinned rows: non-empty lines not starting with '#'.
std::vector<std::string> loadPinned(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') rows.push_back(line);
  }
  return rows;
}

std::uint64_t counter(const char* name) {
  return jepo::obs::Registry::global().counter(name).value();
}

std::uint64_t invalidMeasurements() {
  return counter("experiment.measurement.invalid") +
         counter("experiment.measurement.error");
}

std::uint64_t remeasuredIn(const std::vector<ex::ClassifierResult>& rows) {
  std::uint64_t n = 0;
  for (const auto& r : rows) {
    n += static_cast<std::uint64_t>(r.tukeyRemeasurements);
  }
  return n;
}

/// The preparation phase on the pool (set-up, and phase 1 of the replay).
std::vector<ex::detail::ClassifierPrep> prepAll(
    jepo::ThreadPool& pool, const ex::WekaExperimentConfig& cfg) {
  std::vector<ex::detail::ClassifierPrep> preps(kKinds);
  jepo::parallelFor(pool, kKinds, [&](std::size_t k) {
    const Tracer::Scope span("experiments.prep", k);
    preps[k] = ex::detail::prepClassifier(
        static_cast<jepo::ml::ClassifierKind>(k), cfg);
  });
  return preps;
}

struct TracedRun {
  std::vector<ex::ClassifierResult> rows;
  double wallSeconds = 0.0;
  double prepSeconds = 0.0;
  std::uint64_t measures = 0;
  std::uint64_t rounds = 0;
  std::uint64_t remeasured = 0;
  double batchWorkerSeconds = 0.0;  // batch wall x threads, summed
};

/// One Table-IV run, phase by phase, with spans (ParallelRunner::run's
/// structure, driven through the public detail:: and stats:: functions).
TracedRun tracedTable4(const ex::WekaExperimentConfig& cfg) {
  TracedRun out;
  const double t0 = wallSeconds();
  jepo::ThreadPool pool(kThreads);
  const double p0 = wallSeconds();
  const std::vector<ex::detail::ClassifierPrep> preps = prepAll(pool, cfg);
  out.prepSeconds = wallSeconds() - p0;

  std::atomic<std::uint64_t> measures{0};
  std::vector<jepo::stats::IndexedMeasure> streams;
  for (std::size_t k = 0; k < kKinds; ++k) {
    std::uint64_t style = 0;
    for (auto& m : ex::detail::makeStyleMeasures(
             static_cast<jepo::ml::ClassifierKind>(k), preps[k], cfg)) {
      const std::uint64_t job = 2 * k + style++;
      streams.push_back([inner = std::move(m), job, &measures](int ordinal) {
        const Tracer::Scope span("ml.measure", job);
        measures.fetch_add(1, std::memory_order_relaxed);
        return inner(ordinal);
      });
    }
  }
  const jepo::stats::BatchExecutor exec =
      [&pool, &out](const std::vector<std::function<void()>>& jobs) {
        const Tracer::Scope span("stats.batch", out.rounds);
        ++out.rounds;
        const double b0 = wallSeconds();
        jepo::parallelFor(pool, jobs.size(),
                          [&jobs](std::size_t i) { jobs[i](); });
        out.batchWorkerSeconds +=
            (wallSeconds() - b0) * static_cast<double>(kThreads);
      };
  std::vector<jepo::stats::ProtocolResult> protocols;
  {
    const Tracer::Scope span("stats.protocol", 0);
    protocols = jepo::stats::measureManyWithTukeyLoop(
        streams, cfg.runs, exec, /*maxRounds=*/50, /*fenceK=*/1.5,
        ex::detail::kTukeyMetricColumns);
  }
  for (std::size_t k = 0; k < kKinds; ++k) {
    const Tracer::Scope span("experiments.assemble", k);
    out.rows.push_back(ex::detail::assembleResult(
        static_cast<jepo::ml::ClassifierKind>(k), preps[k],
        protocols[2 * k], protocols[2 * k + 1], cfg));
  }
  for (const auto& p : protocols) {
    out.remeasured += static_cast<std::uint64_t>(p.remeasured);
  }
  out.measures = measures.load();
  out.wallSeconds = wallSeconds() - t0;
  return out;
}

}  // namespace

int captureTable4Rows(const std::string& path) {
  const auto rows = ex::runWekaExperiment(table4Config(1));
  std::ofstream f(path);
  f << "# Table-IV rows of perfbench's table4 workload (instances=1000,\n"
       "# folds=10, runs=5, corpusScale=0.10, trees=10, seed=2020).\n"
       "# Thread-count independent; captured serially with\n"
       "#   perfbench --capture-table4 <this file>\n";
  for (const std::string& row : renderRows(rows)) f << row << "\n";
  f.close();
  return f ? 0 : 1;
}

Outcome runTable4Workload(const Options& options) {
  Outcome out;
  const std::vector<std::string> pinned = loadPinned(options.pinnedTable4);
  if (pinned.size() != kKinds) {
    out.fail("cannot read " + std::to_string(kKinds) + " pinned rows from " +
             options.pinnedTable4);
    return out;
  }
  const ex::WekaExperimentConfig cfg = table4Config(kThreads);

  std::vector<double> setups;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double t0 = wallSeconds();
    jepo::ThreadPool pool(kThreads);
    prepAll(pool, cfg);
    setups.push_back(wallSeconds() - t0);
  }

  std::vector<double> walls;
  std::vector<double> cpus;
  std::uint64_t remeasured = 0;
  std::uint64_t mismatched = 0;
  const std::uint64_t invalid0 = invalidMeasurements();
  const double start = wallSeconds();
  do {
    const double cpu0 = processCpuSeconds();
    const double t0 = wallSeconds();
    const auto rows = ex::ParallelRunner(cfg).run();
    walls.push_back(wallSeconds() - t0);
    cpus.push_back(processCpuSeconds() - cpu0);
    if (renderRows(rows) != pinned) ++mismatched;
    remeasured = remeasuredIn(rows);  // identical in every run
  } while (wallSeconds() - start < options.seconds);
  const double rssMb = peakRssMb();

  const auto runs = static_cast<std::uint64_t>(walls.size());
  const std::uint64_t measuresPerRun =
      2 * kKinds * static_cast<std::uint64_t>(cfg.runs) + remeasured;
  out.attempted = runs * measuresPerRun;
  out.failed = invalidMeasurements() - invalid0;
  if (mismatched != 0) {
    out.fail(std::to_string(mismatched) + " of " + std::to_string(runs) +
             " Table-IV runs differ from the pinned rows");
  }
  checkCountRecord(options,
                   {{"ml.measures", static_cast<double>(measuresPerRun)},
                    {"stats.remeasured", static_cast<double>(remeasured)}},
                   &out);

  if (!options.trace) {
    out.add("setup_s", median(setups), "s");
    out.add("jobs_per_s", 1.0 / median(walls), "1/s");
    out.add("job_p50_ms", median(walls) * 1e3, "ms");
    out.add("job_p95_ms", quantile(walls, 0.95) * 1e3, "ms");
    out.add("cpu_ms_per_job", median(cpus) * 1e3, "ms");
    out.add("peak_rss_mb", rssMb, "MiB");
    return out;
  }

  Tracer::clear();
  Tracer::setEnabled(true);
  const TracedRun traced = tracedTable4(cfg);
  Tracer::setEnabled(false);
  if (renderRows(traced.rows) != pinned) {
    out.fail("traced Table-IV rows differ from the pinned rows");
  }
  if (traced.measures != measuresPerRun || traced.remeasured != remeasured) {
    out.fail("traced measure/remeasure counts differ from the untraced run's");
  }
  const std::vector<SpanRecord> spans = Tracer::collect();
  const std::string tracePath = options.outDir + "/trace-table4-seed" +
                                std::to_string(options.seed) + ".json";
  if (!Tracer::writeChromeTrace(spans, tracePath)) {
    out.fail("cannot write " + tracePath);
  }
  std::printf("trace: %zu spans -> %s\n", spans.size(), tracePath.c_str());
  std::map<std::string, LayerTotal> layers = Tracer::reduce(spans);
  const LayerTotal& measure = layers["ml.measure"];

  out.add("experiments.prep_s", traced.prepSeconds, "s");
  out.add("ml.measure_ms", median(measure.durationsUs) / 1e3, "ms");
  out.add("ml.measures", static_cast<double>(traced.measures), "count");
  out.add("stats.rounds", static_cast<double>(traced.rounds), "count");
  out.add("stats.remeasured", static_cast<double>(traced.remeasured),
          "count");
  out.add("experiments.idle_share",
          traced.batchWorkerSeconds > 0.0
              ? 1.0 - measure.totalUs / 1e6 / traced.batchWorkerSeconds
              : 0.0,
          "ratio");
  out.add("experiments.assemble_ms",
          layers["experiments.assemble"].totalUs / 1e3, "ms");
  out.add("trace.overhead_share", traced.wallSeconds / median(walls) - 1.0,
          "ratio");
  return out;
}

}  // namespace perfbench
