#include "experiments/weka_experiment.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>

#include "corpus/corpus.hpp"
#include "experiments/parallel_runner.hpp"
#include "data/airlines.hpp"
#include "jepo/optimizer.hpp"
#include "ml/evaluation.hpp"
#include "ml/forest.hpp"
#include "ml/tree.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "perf/perf.hpp"
#include "stats/protocol.hpp"

namespace jepo::experiments {

using ml::ClassifierKind;

namespace {

/// Build a classifier honoring the experiment's forest-size override.
std::unique_ptr<ml::Classifier> build(ClassifierKind kind,
                                      ml::Precision precision,
                                      ml::MlRuntime& rt, std::uint64_t seed,
                                      int forestTrees) {
  if (kind == ClassifierKind::kRandomForest) {
    ml::ForestOptions opts;
    opts.numTrees = forestTrees;
    if (precision == ml::Precision::kDouble) {
      return std::make_unique<ml::RandomForest<double>>(rt, opts, Rng(seed));
    }
    return std::make_unique<ml::RandomForest<float>>(rt, opts, Rng(seed));
  }
  return ml::makeClassifier(kind, precision, rt, seed);
}

/// How one measurement stream runs the classifier: code style, exposure
/// and precision. Style index 0 is the baseline, 1 the optimized style.
struct StyleSpec {
  ml::CodeStyle style;
  ml::StyleExposure exposure;
  ml::Precision precision;
};

StyleSpec styleSpec(ClassifierKind kind, int styleIndex) {
  if (styleIndex == 0) {
    return {ml::CodeStyle::javaBaseline(), ml::StyleExposure::full(),
            ml::Precision::kDouble};
  }
  return {ml::CodeStyle::jepoOptimized(),
          ml::StyleExposure::forClassifier(static_cast<int>(kind)),
          ml::Precision::kFloat};
}

/// One stream's workload run, recorded by whichever measurement comes
/// first: its op counts and accuracy, or the exception it threw.
struct RecordedWorkload {
  std::once_flag once;
  energy::OpArray<std::uint64_t> counts{};
  double accuracy = 0.0;
  std::exception_ptr error;  // replays rethrow it
};

/// One stream of the protocol. Every call builds a private PerfRunner and
/// SimMachine; the noise RNG is seeded from (config.seed, kind, style,
/// ordinal), so the returned row is a pure function of the stream identity
/// and the ordinal — the determinism contract of the parallel runner.
///
/// The workload is a pure function of (kind, style, data, config): its op
/// counts and accuracy are the same at every ordinal, and only the
/// runner's noise and fault draws change. So it runs once per stream, on a
/// scratch machine, and every measurement, the first included, charges the
/// recorded op counts onto the runner's fresh machine, whose sync() prices
/// them exactly as it would price the live run. The record lives as long
/// as the stream.
///
/// Hardening: a measurement whose energy reading comes back kInvalid
/// (fault plans, glitched intervals) is re-attempted up to
/// detail::kMeasurementAttempts times with a fresh fault stream per attempt;
/// an exhausted budget keeps the invalid stat so the row surfaces as
/// flagged downstream. A measurement that throws becomes an all-zero
/// kInvalid row — a partial result, never an aborted experiment.
stats::IndexedMeasure makeStyleMeasure(ClassifierKind kind, int styleIndex,
                                       const ml::Instances& data,
                                       const WekaExperimentConfig& config) {
  auto recorded = std::make_shared<RecordedWorkload>();
  return [kind, styleIndex, &data, &config, recorded](int ordinal) {
    const energy::CostModel model =
        config.costModel ? *config.costModel : energy::CostModel::calibrated();
    perf::PerfRunner runner =
        config.withNoise
            ? perf::PerfRunner(
                  perf::PerfRunner::kDefaultNoise,
                  deriveSeed(config.seed, static_cast<std::uint64_t>(kind),
                             static_cast<std::uint64_t>(styleIndex)))
            : perf::PerfRunner::exact();
    if (config.faultPlan && config.faultPlan->active()) {
      // Decorrelate the fault stream per (classifier, style) so the same
      // plan drives different fault schedules in different streams, the
      // way independent real-world runs would fail independently.
      fault::FaultSpec spec = *config.faultPlan;
      spec.seed = deriveSeed(config.faultPlan->seed,
                             static_cast<std::uint64_t>(kind),
                             static_cast<std::uint64_t>(styleIndex));
      runner.setFaultPlan(std::move(spec));
    }

    double accuracy = 0.0;
    const auto workload = [&](energy::SimMachine& machine) {
      std::call_once(recorded->once, [&] {
        try {
          energy::SimMachine scratch(model);
          recorded->accuracy =
              detail::runStyleWorkload(kind, styleIndex, data, config,
                                       scratch);
          recorded->counts = scratch.meter().counts();
        } catch (...) {
          recorded->error = std::current_exception();
        }
      });
      if (recorded->error) std::rethrow_exception(recorded->error);
      for (std::size_t i = 0; i < energy::kOpCount; ++i) {
        machine.charge(static_cast<energy::Op>(i), recorded->counts[i]);
      }
      accuracy = recorded->accuracy;
    };

    perf::PerfStat stat;
    int retries = 0;
    int attempt = 0;
    constexpr int attempts = detail::kMeasurementAttempts;
    try {
      for (; attempt < attempts; ++attempt) {
        stat = runner.statAt(static_cast<std::uint64_t>(ordinal), attempt,
                             workload, model);
        retries += stat.readRetries;
        if (stat.quality != rapl::MeasurementQuality::kInvalid) break;
        obs::Registry::global()
            .counter("experiment.measurement.invalid")
            .add();
      }
      if (attempt > 0 &&
          stat.quality != rapl::MeasurementQuality::kInvalid) {
        // The re-measurement succeeded; remember that it took retries.
        stat.quality =
            worst(stat.quality, rapl::MeasurementQuality::kRetried);
        obs::Registry::global()
            .counter("experiment.measurement.retried")
            .add();
      }
      retries += std::min(attempt, attempts - 1);
    } catch (const std::exception&) {
      obs::Registry::global().counter("experiment.measurement.error").add();
      stat = perf::PerfStat{};
      stat.quality = rapl::MeasurementQuality::kInvalid;
    }

    // Accuracy rides along as a fourth metric column: it is identical in
    // every run (the CV seeds are fixed), so it can never trip a Tukey
    // fence, and the protocol mean recovers it without shared state. The
    // quality/retries bookkeeping columns after it are excluded from the
    // fences via kTukeyMetricColumns.
    std::vector<double> row = stat.asRow();
    row.push_back(accuracy);
    row.push_back(static_cast<double>(static_cast<int>(stat.quality)));
    row.push_back(static_cast<double>(retries));
    return row;
  };
}

/// Ordinal-stream tag for the bootstrap resamples, keeping the interval
/// streams disjoint from the measurement-noise streams (which derive from
/// (seed, kind, style) without a tag).
constexpr std::uint64_t kIntervalSeedTag = 0xB007u;

/// Split one style's final package-joule column into the rows the bootstrap
/// may resample, folding the excluded/retried/degraded tallies into the
/// row-level pooled bookkeeping.
std::vector<double> survivingPackageColumn(const stats::ProtocolResult& proto,
                                           int& retried, int& degraded,
                                           int& excluded) {
  const auto qualityCol = static_cast<std::size_t>(detail::kQualityColumn);
  std::vector<double> valid;
  valid.reserve(proto.runs.size());
  for (const auto& run : proto.runs) {
    const int quality = run.size() > qualityCol
                            ? static_cast<int>(run[qualityCol] + 0.5)
                            : stats::kQualityOk;
    if (quality >= stats::kQualityInvalid) {
      ++excluded;
      continue;
    }
    valid.push_back(run.empty() ? 0.0 : run[0]);
    if (quality == stats::kQualityRetried) ++retried;
    if (quality == stats::kQualityDegraded) ++degraded;
  }
  return valid;
}

/// The probabilistic layer of one row: bootstrap the package-joule columns
/// of both styles and the paired improvement ratio, widen everything by the
/// pooled quality factor. Centers are the REPORTED point estimates (the
/// protocol means), so lo <= reported <= hi holds by construction even when
/// excluded rows shift the survivors' mean.
ResultIntervals computeIntervals(ClassifierKind kind,
                                 const stats::ProtocolResult& base,
                                 const stats::ProtocolResult& opt,
                                 const ClassifierResult& row,
                                 const WekaExperimentConfig& config) {
  ResultIntervals out;
  int retried = 0;
  int degraded = 0;
  const std::vector<double> baseValid =
      survivingPackageColumn(base, retried, degraded, out.excludedRuns);
  const std::vector<double> optValid =
      survivingPackageColumn(opt, retried, degraded, out.excludedRuns);
  out.validRuns = static_cast<int>(baseValid.size() + optValid.size());
  if (out.validRuns > 0) {
    out.retriedFraction =
        static_cast<double>(retried) / static_cast<double>(out.validRuns);
    out.degradedFraction =
        static_cast<double>(degraded) / static_cast<double>(out.validRuns);
  }
  out.widenFactor =
      stats::qualityWidenFactor(out.retriedFraction, out.degradedFraction);

  const auto point = [](double center) {
    return stats::Interval{center, center, center};
  };
  if (baseValid.size() < 2 || optValid.size() < 2) {
    out.pointEstimate = true;
    out.basePackage = point(row.basePackageJoules);
    out.optPackage = point(row.optPackageJoules);
    out.packageImprovement = point(row.packageImprovement);
    return out;
  }

  const auto kindU = static_cast<std::uint64_t>(kind);
  const std::vector<double> baseMeans = stats::bootstrapMeans(
      baseValid, config.bootstrap.resamples,
      deriveSeed(config.seed, kIntervalSeedTag, kindU, 0),
      stats::serialExecutor());
  const std::vector<double> optMeans = stats::bootstrapMeans(
      optValid, config.bootstrap.resamples,
      deriveSeed(config.seed, kIntervalSeedTag, kindU, 1),
      stats::serialExecutor());
  out.basePackage =
      stats::widen(stats::percentileInterval(baseMeans, row.basePackageJoules,
                                             stats::kConfidence),
                   out.widenFactor);
  out.optPackage =
      stats::widen(stats::percentileInterval(optMeans, row.optPackageJoules,
                                             stats::kConfidence),
                   out.widenFactor);

  // Improvement interval from PAIRED resamples: resample b of both styles
  // shares the ordinal b, so the ratio distribution reflects joint
  // variation. Flagged/degenerate rows report a zeroed improvement — keep
  // the interval at that point rather than resampling around a value the
  // row refused to claim.
  std::vector<double> improvements;
  improvements.reserve(baseMeans.size());
  for (std::size_t b = 0; b < baseMeans.size(); ++b) {
    if (baseMeans[b] > 0.0) {
      improvements.push_back((1.0 - optMeans[b] / baseMeans[b]) * 100.0);
    }
  }
  if (row.flagged || row.degenerateBaseline || improvements.size() < 2) {
    out.packageImprovement = point(row.packageImprovement);
  } else {
    out.packageImprovement = stats::widen(
        stats::percentileInterval(improvements, row.packageImprovement,
                                  stats::kConfidence),
        out.widenFactor);
  }
  return out;
}

}  // namespace

namespace detail {

ClassifierPrep prepClassifier(ClassifierKind kind,
                              const WekaExperimentConfig& config) {
  obs::Span span("experiment.prep");
  ClassifierPrep prep;

  // ---- Changes: run the Optimizer over the classifier's corpus.
  {
    int seeded = 0;
    const jlang::Program corpusProg =
        corpus::generateScaledCorpus(kind, config.corpusScale, 42, &seeded);
    // Default options: lossy mode, every rule on — the paper's edit set.
    const auto optimized = core::Optimizer().optimize(corpusProg);
    prep.changes = static_cast<int>(optimized.changes.size());
    prep.changesFullScale = static_cast<int>(
        static_cast<double>(prep.changes) / config.corpusScale + 0.5);
  }

  // ---- Dataset: the paper's subsample protocol.
  data::AirlinesConfig dataCfg;
  dataCfg.instances = config.instances * 3;  // pool to subsample from
  dataCfg.seed = config.seed;
  const ml::Instances pool = data::generateAirlines(dataCfg);
  Rng sampleRng(config.seed + 1);
  prep.data.emplace(pool.subsample(config.instances, sampleRng));
  return prep;
}

double runStyleWorkload(ClassifierKind kind, int styleIndex,
                        const ml::Instances& data,
                        const WekaExperimentConfig& config,
                        energy::SimMachine& machine) {
  const StyleSpec spec = styleSpec(kind, styleIndex);
  ml::MlRuntime rt(machine, spec.style, spec.exposure);
  Rng cvRng(config.seed + 17);
  return ml::crossValidate(
      [&] {
        return build(kind, spec.precision, rt, config.seed + 99,
                     config.forestTrees);
      },
      data, config.folds, cvRng);
}

std::vector<stats::IndexedMeasure> makeStyleMeasures(
    ClassifierKind kind, const ClassifierPrep& prep,
    const WekaExperimentConfig& config) {
  return {makeStyleMeasure(kind, 0, *prep.data, config),
          makeStyleMeasure(kind, 1, *prep.data, config)};
}

ClassifierResult assembleResult(ClassifierKind kind,
                                const ClassifierPrep& prep,
                                const stats::ProtocolResult& base,
                                const stats::ProtocolResult& opt,
                                const WekaExperimentConfig& config) {
  obs::Span span("experiment.assemble");
  ClassifierResult result;
  result.kind = kind;
  result.changes = prep.changes;
  result.changesFullScale = prep.changesFullScale;

  // Protocol row layout: {package J, core J, seconds, accuracy, quality,
  // retries}. The bookkeeping columns are folded here: the row's trust tag
  // is the WORST quality across the final runs of both styles (a mean of
  // enum indices would claim "mostly fine" about a half-broken row), and
  // retries are summed.
  const auto qualityCol = static_cast<std::size_t>(kQualityColumn);
  const auto retriesCol = static_cast<std::size_t>(kRetriesColumn);
  for (const auto* proto : {&base, &opt}) {
    for (const auto& run : proto->runs) {
      if (run.size() > qualityCol) {
        result.quality =
            worst(result.quality,
                  rapl::qualityFromIndex(
                      static_cast<int>(run[qualityCol] + 0.5)));
      }
      if (run.size() > retriesCol) {
        result.faultRetries += static_cast<int>(run[retriesCol] + 0.5);
      }
    }
  }

  result.basePackageJoules = base.means[0];
  result.optPackageJoules = opt.means[0];

  // A zero-cost baseline (e.g. an empty dataset) would turn the improvement
  // ratios into NaN/Inf and poison every report table downstream; report 0%
  // and flag the row instead.
  auto improvement = [&result](double baseValue, double optValue) {
    if (!(baseValue > 0.0)) {
      result.degenerateBaseline = true;
      return 0.0;
    }
    return (1.0 - optValue / baseValue) * 100.0;
  };
  result.packageImprovement = improvement(base.means[0], opt.means[0]);
  result.cpuImprovement = improvement(base.means[1], opt.means[1]);
  result.timeImprovement = improvement(base.means[2], opt.means[2]);

  result.accuracyBase = base.means[3];
  result.accuracyOpt = opt.means[3];
  result.accuracyDrop = (base.means[3] - opt.means[3]) * 100.0;
  result.tukeyRemeasurements = base.remeasured + opt.remeasured;

  // A row that still contains invalid measurements after per-measurement
  // retries carries meaningless energy means: zero the improvements and
  // flag it so reports can show the row without it poisoning aggregates.
  if (result.quality == rapl::MeasurementQuality::kInvalid) {
    result.flagged = true;
    result.packageImprovement = 0.0;
    result.cpuImprovement = 0.0;
    result.timeImprovement = 0.0;
    obs::Registry::global().counter("experiment.row.flagged").add();
  }

  // The probabilistic layer rides last so its inputs are the fully folded
  // row. Computed here — the shared tail of the serial path and the
  // ParallelRunner — and seeded from (config.seed, tag, kind, style), so
  // intervals inherit the pipeline's any-thread-count bit-identity.
  if (config.intervals) {
    result.intervals = computeIntervals(kind, base, opt, result, config);
  }
  return result;
}

}  // namespace detail

ClassifierResult runClassifierExperiment(ClassifierKind kind,
                                         const WekaExperimentConfig& config) {
  const detail::ClassifierPrep prep = detail::prepClassifier(kind, config);
  const std::vector<stats::IndexedMeasure> streams =
      detail::makeStyleMeasures(kind, prep, config);
  const auto protocols = [&] {
    obs::Span span("experiment.measure");
    return stats::measureManyWithTukeyLoop(
        streams, config.runs, stats::serialExecutor(), /*maxRounds=*/50,
        /*fenceK=*/1.5, detail::kTukeyMetricColumns);
  }();
  return detail::assembleResult(kind, prep, protocols[0], protocols[1],
                                config);
}

std::vector<ClassifierResult> runWekaExperiment(
    const WekaExperimentConfig& config) {
  if (!config.parallel.serial()) {
    return ParallelRunner(config).run();
  }
  std::vector<ClassifierResult> out;
  for (int k = 0; k < ml::kClassifierKindCount; ++k) {
    out.push_back(
        runClassifierExperiment(static_cast<ClassifierKind>(k), config));
  }
  return out;
}

PaperRow paperTable4Row(ClassifierKind kind) {
  switch (kind) {
    case ClassifierKind::kJ48: return {877, 4.44, 4.68, 3.96, 0.00};
    case ClassifierKind::kRandomTree: return {709, 0.02, 0.01, 0.01, 0.48};
    case ClassifierKind::kRandomForest:
      return {719, 14.46, 14.19, 12.93, 0.00};
    case ClassifierKind::kRepTree: return {723, 3.70, 3.49, 2.01, 0.00};
    case ClassifierKind::kNaiveBayes: return {711, 3.58, 3.82, 0.00, 0.00};
    case ClassifierKind::kLogistic: return {711, 0.10, 0.10, 0.00, 0.00};
    case ClassifierKind::kSmo: return {713, 0.05, 0.08, 0.04, 0.17};
    case ClassifierKind::kSgd: return {713, 7.48, 5.76, 5.56, 0.05};
    case ClassifierKind::kKStar: return {711, 6.82, 5.31, 0.00, 0.00};
    case ClassifierKind::kIbk: return {711, 5.50, 5.34, 6.01, 0.00};
  }
  throw Error("unknown classifier kind");
}

}  // namespace jepo::experiments
