#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "energy/op.hpp"
#include "experiments/weka_experiment.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "perf/perf.hpp"

namespace jepo::experiments {
namespace {

using ml::ClassifierKind;

WekaExperimentConfig fastConfig() {
  WekaExperimentConfig cfg;
  cfg.instances = 400;
  cfg.folds = 5;
  cfg.runs = 4;
  cfg.corpusScale = 0.02;
  cfg.withNoise = false;  // exact measurements for tight assertions
  cfg.forestTrees = 5;
  return cfg;
}

TEST(Experiments, PaperRowsMatchTableFour) {
  const PaperRow rf = paperTable4Row(ClassifierKind::kRandomForest);
  EXPECT_EQ(rf.changes, 719);
  EXPECT_DOUBLE_EQ(rf.packageImprovement, 14.46);
  EXPECT_DOUBLE_EQ(rf.timeImprovement, 12.93);
  const PaperRow rt = paperTable4Row(ClassifierKind::kRandomTree);
  EXPECT_DOUBLE_EQ(rt.accuracyDrop, 0.48);
}

TEST(Experiments, SingleClassifierPipelineProducesSaneNumbers) {
  const auto r =
      runClassifierExperiment(ClassifierKind::kNaiveBayes, fastConfig());
  EXPECT_GT(r.changes, 0);
  EXPECT_GT(r.changesFullScale, r.changes);
  EXPECT_GT(r.basePackageJoules, 0.0);
  EXPECT_GT(r.optPackageJoules, 0.0);
  EXPECT_LT(r.optPackageJoules, r.basePackageJoules);
  EXPECT_GT(r.packageImprovement, 0.0);
  EXPECT_LT(r.packageImprovement, 100.0);
  EXPECT_GT(r.accuracyBase, 0.4);
  EXPECT_LT(std::fabs(r.accuracyDrop), 5.0);
}

// The headline shape claims of Table IV, on the exact (noise-free) runner.
TEST(Experiments, RandomForestImprovesMostAndNearZeroTrioStaysSmall) {
  const WekaExperimentConfig cfg = fastConfig();
  const double rf =
      runClassifierExperiment(ClassifierKind::kRandomForest, cfg)
          .packageImprovement;
  const double j48 =
      runClassifierExperiment(ClassifierKind::kJ48, cfg).packageImprovement;
  const double rt = runClassifierExperiment(ClassifierKind::kRandomTree, cfg)
                        .packageImprovement;
  const double logistic =
      runClassifierExperiment(ClassifierKind::kLogistic, cfg)
          .packageImprovement;

  EXPECT_GT(rf, 10.0);
  EXPECT_GT(rf, j48);
  EXPECT_GT(j48, 2.0);
  EXPECT_LT(std::fabs(rt), 1.0);
  EXPECT_LT(std::fabs(logistic), 1.0);
}

TEST(Experiments, EnergyImprovementExceedsTimeImprovement) {
  const auto r =
      runClassifierExperiment(ClassifierKind::kRandomForest, fastConfig());
  EXPECT_GT(r.packageImprovement, r.timeImprovement);
}

TEST(Experiments, ChangesScaleWithCorpusScale) {
  WekaExperimentConfig small = fastConfig();
  small.corpusScale = 0.02;
  WekaExperimentConfig big = fastConfig();
  big.corpusScale = 0.06;
  const auto a = runClassifierExperiment(ClassifierKind::kJ48, small);
  const auto b = runClassifierExperiment(ClassifierKind::kJ48, big);
  EXPECT_GT(b.changes, a.changes * 2);
  // Extrapolated full-scale counts agree within rounding.
  EXPECT_NEAR(a.changesFullScale, b.changesFullScale, 60);
}

TEST(Experiments, RowsAreFullTierAtUnitSamplingRate) {
  // Table-IV measurements run through PerfRunner, never a profiler tier;
  // the --json rows and the interval golden print these two fields.
  const auto r =
      runClassifierExperiment(ClassifierKind::kRandomTree, fastConfig());
  EXPECT_EQ(r.tier, "full");
  EXPECT_EQ(r.samplingRate, 1.0);
}

TEST(Experiments, PerturbedCostModelKeepsOrdering) {
  WekaExperimentConfig cfg = fastConfig();
  Rng rng(5);
  cfg.costModel = energy::CostModel::calibrated().perturbed(0.5, rng);
  const double rf =
      runClassifierExperiment(ClassifierKind::kRandomForest, cfg)
          .packageImprovement;
  const double rt = runClassifierExperiment(ClassifierKind::kRandomTree, cfg)
                        .packageImprovement;
  EXPECT_GT(rf, 5.0);
  EXPECT_LT(std::fabs(rt), 1.0);
}

// The tentpole determinism guarantee: the ParallelRunner must reproduce the
// serial path bit-for-bit, Tukey re-measurements and noise included, at any
// thread count. EXPECT_EQ on doubles here is deliberate — "close" would hide
// a scheduling-dependent RNG stream.
TEST(Experiments, ParallelRunnerIsBitIdenticalToSerial) {
  WekaExperimentConfig cfg = fastConfig();
  cfg.instances = 200;
  cfg.withNoise = true;  // exercise the Tukey loop + per-ordinal noise seeds

  WekaExperimentConfig serialCfg = cfg;
  serialCfg.parallel.threads = 1;
  WekaExperimentConfig parallelCfg = cfg;
  parallelCfg.parallel.threads = 4;

  const auto serial = runWekaExperiment(serialCfg);
  const auto parallel = runWekaExperiment(parallelCfg);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const ClassifierResult& a = serial[i];
    const ClassifierResult& b = parallel[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.changes, b.changes);
    EXPECT_EQ(a.changesFullScale, b.changesFullScale);
    EXPECT_EQ(a.packageImprovement, b.packageImprovement);
    EXPECT_EQ(a.cpuImprovement, b.cpuImprovement);
    EXPECT_EQ(a.timeImprovement, b.timeImprovement);
    EXPECT_EQ(a.accuracyBase, b.accuracyBase);
    EXPECT_EQ(a.accuracyOpt, b.accuracyOpt);
    EXPECT_EQ(a.accuracyDrop, b.accuracyDrop);
    EXPECT_EQ(a.basePackageJoules, b.basePackageJoules);
    EXPECT_EQ(a.optPackageJoules, b.optPackageJoules);
    EXPECT_EQ(a.tukeyRemeasurements, b.tukeyRemeasurements);
    EXPECT_EQ(a.degenerateBaseline, b.degenerateBaseline);
  }
}

bool sameIntervals(const ResultIntervals& a, const ResultIntervals& b) {
  const auto same = [](const stats::Interval& p, const stats::Interval& q) {
    return p.lo == q.lo && p.mean == q.mean && p.hi == q.hi;
  };
  return same(a.basePackage, b.basePackage) &&
         same(a.optPackage, b.optPackage) &&
         same(a.packageImprovement, b.packageImprovement) &&
         a.validRuns == b.validRuns && a.excludedRuns == b.excludedRuns &&
         a.retriedFraction == b.retriedFraction &&
         a.degradedFraction == b.degradedFraction &&
         a.widenFactor == b.widenFactor &&
         a.pointEstimate == b.pointEstimate;
}

// The probabilistic layer inherits the pipeline's determinism contract:
// bootstrap intervals are bit-identical across reruns and thread counts
// for a fixed seed (the resample streams derive from ordinals, never from
// scheduling).
TEST(Experiments, IntervalsAreBitIdenticalAcrossRerunsAndThreadCounts) {
  WekaExperimentConfig cfg = fastConfig();
  cfg.instances = 200;
  cfg.withNoise = true;
  cfg.intervals = true;
  cfg.bootstrap.resamples = 80;

  WekaExperimentConfig serialCfg = cfg;
  serialCfg.parallel.threads = 1;
  const auto serial = runWekaExperiment(serialCfg);
  const auto rerun = runWekaExperiment(serialCfg);

  ASSERT_EQ(serial.size(), rerun.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].intervals.has_value());
    ASSERT_TRUE(rerun[i].intervals.has_value());
    EXPECT_TRUE(sameIntervals(*serial[i].intervals, *rerun[i].intervals))
        << "rerun drifted at row " << i;
  }

  for (const std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
    WekaExperimentConfig parallelCfg = cfg;
    parallelCfg.parallel.threads = threads;
    const auto parallel = runWekaExperiment(parallelCfg);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_TRUE(parallel[i].intervals.has_value());
      EXPECT_TRUE(
          sameIntervals(*serial[i].intervals, *parallel[i].intervals))
          << "row " << i << " differs at " << threads << " threads";
    }
  }
}

TEST(Experiments, IntervalsBracketTheReportedPointEstimates) {
  WekaExperimentConfig cfg = fastConfig();
  cfg.withNoise = true;  // nonzero run-to-run variance
  cfg.intervals = true;
  const ClassifierResult r =
      runClassifierExperiment(ClassifierKind::kJ48, cfg);
  ASSERT_TRUE(r.intervals.has_value());
  const ResultIntervals& iv = *r.intervals;
  EXPECT_LE(iv.basePackage.lo, r.basePackageJoules);
  EXPECT_GE(iv.basePackage.hi, r.basePackageJoules);
  EXPECT_LE(iv.optPackage.lo, r.optPackageJoules);
  EXPECT_GE(iv.optPackage.hi, r.optPackageJoules);
  EXPECT_LE(iv.packageImprovement.lo, r.packageImprovement);
  EXPECT_GE(iv.packageImprovement.hi, r.packageImprovement);
  EXPECT_EQ(iv.validRuns, 2 * static_cast<int>(cfg.runs));
  EXPECT_EQ(iv.widenFactor, 1.0);  // clean run: no quality penalty
  EXPECT_FALSE(iv.pointEstimate);
}

TEST(Experiments, IntervalsOffLeavesRowsWithoutThem) {
  const ClassifierResult r =
      runClassifierExperiment(ClassifierKind::kNaiveBayes, fastConfig());
  EXPECT_FALSE(r.intervals.has_value());
}

// Same contract with a fault plan attached: the retry/backoff schedule is
// derived from measurement identity, never from thread interleaving, so a
// fault-injected matrix is bit-identical at 1, 4 and 8 threads — including
// the robustness bookkeeping (quality, retry counts, flags).
TEST(Experiments, FaultPlanKeepsBitIdentityAcrossOneFourEightThreads) {
  WekaExperimentConfig cfg = fastConfig();
  cfg.instances = 200;
  cfg.faultPlan = fault::parseFaultPlan("transient:seed=19");

  WekaExperimentConfig serialCfg = cfg;
  serialCfg.parallel.threads = 1;
  const auto serial = runWekaExperiment(serialCfg);

  int retries = 0;
  for (const auto& r : serial) retries += r.faultRetries;
  EXPECT_GT(retries, 0) << "plan injected nothing; identity is vacuous";

  for (std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
    WekaExperimentConfig parallelCfg = cfg;
    parallelCfg.parallel.threads = threads;
    const auto parallel = runWekaExperiment(parallelCfg);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const ClassifierResult& a = serial[i];
      const ClassifierResult& b = parallel[i];
      EXPECT_EQ(a.packageImprovement, b.packageImprovement)
          << "row " << i << " at " << threads << " threads";
      EXPECT_EQ(a.cpuImprovement, b.cpuImprovement);
      EXPECT_EQ(a.timeImprovement, b.timeImprovement);
      EXPECT_EQ(a.accuracyDrop, b.accuracyDrop);
      EXPECT_EQ(a.basePackageJoules, b.basePackageJoules);
      EXPECT_EQ(a.optPackageJoules, b.optPackageJoules);
      EXPECT_EQ(a.quality, b.quality);
      EXPECT_EQ(a.faultRetries, b.faultRetries);
      EXPECT_EQ(a.flagged, b.flagged);
    }
  }
}

// A transient-only plan must not move the science columns at all relative
// to running with no plan: retried reads recover the exact values.
TEST(Experiments, TransientFaultsDoNotPerturbScienceColumns) {
  const auto clean =
      runClassifierExperiment(ClassifierKind::kSgd, fastConfig());
  WekaExperimentConfig cfg = fastConfig();
  // Single-read bursts at a modest rate stay well inside the 4-attempt
  // read budget, so every fault is absorbed at the read level and the
  // recovered values are exact.
  cfg.faultPlan = fault::parseFaultPlan(
      "transient:seed=6,transient-prob=0.1,transient-burst=1");
  const auto faulted = runClassifierExperiment(ClassifierKind::kSgd, cfg);
  EXPECT_EQ(faulted.packageImprovement, clean.packageImprovement);
  EXPECT_EQ(faulted.cpuImprovement, clean.cpuImprovement);
  EXPECT_EQ(faulted.timeImprovement, clean.timeImprovement);
  EXPECT_EQ(faulted.accuracyDrop, clean.accuracyDrop);
  EXPECT_FALSE(faulted.flagged);
}

TEST(Experiments, ZeroCostBaselineReportsZeroImprovementNotNaN) {
  WekaExperimentConfig cfg = fastConfig();
  cfg.instances = 200;
  // A cost model where every op is free and idle draw is zero: baseline
  // package/core/seconds all measure exactly 0.
  energy::CostModel zero = energy::CostModel::calibrated();
  for (std::size_t i = 0; i < energy::kOpCount; ++i) {
    auto& c = zero.cost(static_cast<energy::Op>(i));
    c.packageNanojoules = 0.0;
    c.nanoseconds = 0.0;
    c.dramNanojoules = 0.0;
  }
  zero.setIdleWatts(0.0, 0.0, 0.0);
  cfg.costModel = zero;

  const auto r = runClassifierExperiment(ClassifierKind::kNaiveBayes, cfg);
  EXPECT_TRUE(r.degenerateBaseline);
  EXPECT_EQ(r.packageImprovement, 0.0);
  EXPECT_EQ(r.cpuImprovement, 0.0);
  EXPECT_EQ(r.timeImprovement, 0.0);
  EXPECT_FALSE(std::isnan(r.packageImprovement));
  EXPECT_FALSE(std::isnan(r.accuracyDrop));
  // Accuracy is still measured — the classifier ran, only energy was free.
  EXPECT_GT(r.accuracyBase, 0.4);
}

TEST(Experiments, NoisyProtocolStaysNearExactResult) {
  WekaExperimentConfig exact = fastConfig();
  const auto clean =
      runClassifierExperiment(ClassifierKind::kSgd, exact);
  WekaExperimentConfig noisy = fastConfig();
  noisy.withNoise = true;
  const auto measured = runClassifierExperiment(ClassifierKind::kSgd, noisy);
  // Tukey scrubbing keeps the noisy estimate within ~1.5pp of truth.
  EXPECT_NEAR(measured.packageImprovement, clean.packageImprovement, 1.5);
}


// ------------------------------------------------------ measurement replay

/// The measurement path without replay, rebuilt here as the reference: the
/// workload cross-validates on PerfRunner::statAt's own machine at every
/// ordinal and attempt, with the stream's noise seed, fault plan, retry
/// loop and row layout.
std::vector<double> liveMeasurement(ClassifierKind kind, int style,
                                    const ml::Instances& data,
                                    const WekaExperimentConfig& config,
                                    int ordinal) {
  const auto kindU = static_cast<std::uint64_t>(kind);
  const auto styleU = static_cast<std::uint64_t>(style);
  const energy::CostModel model =
      config.costModel ? *config.costModel : energy::CostModel::calibrated();
  perf::PerfRunner runner =
      config.withNoise
          ? perf::PerfRunner(perf::PerfRunner::kDefaultNoise,
                             deriveSeed(config.seed, kindU, styleU))
          : perf::PerfRunner::exact();
  if (config.faultPlan && config.faultPlan->active()) {
    fault::FaultSpec spec = *config.faultPlan;
    spec.seed = deriveSeed(config.faultPlan->seed, kindU, styleU);
    runner.setFaultPlan(std::move(spec));
  }
  double accuracy = 0.0;
  const auto workload = [&](energy::SimMachine& machine) {
    accuracy = detail::runStyleWorkload(kind, style, data, config, machine);
  };
  perf::PerfStat stat;
  int retries = 0;
  int attempt = 0;
  const int attempts = detail::kMeasurementAttempts;
  try {
    for (; attempt < attempts; ++attempt) {
      stat = runner.statAt(static_cast<std::uint64_t>(ordinal), attempt,
                           workload, model);
      retries += stat.readRetries;
      if (stat.quality != rapl::MeasurementQuality::kInvalid) break;
    }
    if (attempt > 0 && stat.quality != rapl::MeasurementQuality::kInvalid) {
      stat.quality = worst(stat.quality, rapl::MeasurementQuality::kRetried);
    }
    retries += std::min(attempt, attempts - 1);
  } catch (const std::exception&) {
    stat = perf::PerfStat{};
    stat.quality = rapl::MeasurementQuality::kInvalid;
  }
  std::vector<double> row = stat.asRow();
  row.push_back(accuracy);
  row.push_back(static_cast<double>(static_cast<int>(stat.quality)));
  row.push_back(static_cast<double>(retries));
  return row;
}

WekaExperimentConfig replayConfig() {
  WekaExperimentConfig cfg = fastConfig();
  cfg.instances = 200;
  cfg.withNoise = true;  // rows differ per ordinal, so a mixed-up one shows
  return cfg;
}

/// Every stream of every classifier, at initial and re-measure ordinals
/// (first call not at ordinal 0): the replayed row equals the live row in
/// all six columns, exactly. Returns the rows whose quality was not kOk.
int expectReplayMatchesLive(const WekaExperimentConfig& cfg) {
  int impaired = 0;
  const int ordinals[] = {2, 0, 1, 3, cfg.runs, cfg.runs + 5};
  for (int k = 0; k < ml::kClassifierKindCount; ++k) {
    const auto kind = static_cast<ClassifierKind>(k);
    const detail::ClassifierPrep prep = detail::prepClassifier(kind, cfg);
    const auto streams = detail::makeStyleMeasures(kind, prep, cfg);
    for (int style = 0; style < 2; ++style) {
      for (int ordinal : ordinals) {
        const std::vector<double> replayed =
            streams[static_cast<std::size_t>(style)](ordinal);
        EXPECT_EQ(replayed,
                  liveMeasurement(kind, style, *prep.data, cfg, ordinal))
            << ml::classifierName(kind) << " style " << style << " ordinal "
            << ordinal;
        if (replayed[detail::kQualityColumn] != 0.0) ++impaired;
      }
    }
  }
  return impaired;
}

TEST(MeasurementReplay, RowsEqualLiveTrainingAtEveryOrdinal) {
  EXPECT_EQ(expectReplayMatchesLive(replayConfig()), 0);
}

TEST(MeasurementReplay, RowsEqualLiveTrainingUnderChaosFaults) {
  WekaExperimentConfig cfg = replayConfig();
  cfg.faultPlan = fault::parseFaultPlan("chaos:seed=31");
  EXPECT_GT(expectReplayMatchesLive(cfg), 0)
      << "the plan impaired no measurement; the comparison is vacuous";
}

TEST(MeasurementReplay, ThrowingWorkloadGivesInvalidRowAtEveryOrdinal) {
  WekaExperimentConfig cfg = replayConfig();
  cfg.folds = 1;  // stratifiedFolds rejects it: every CV run throws
  obs::Counter& errors =
      obs::Registry::global().counter("experiment.measurement.error");
  const std::uint64_t before = errors.value();

  const detail::ClassifierPrep prep =
      detail::prepClassifier(ClassifierKind::kNaiveBayes, cfg);
  const auto streams =
      detail::makeStyleMeasures(ClassifierKind::kNaiveBayes, prep, cfg);
  const std::vector<double> invalid = {
      0.0, 0.0, 0.0, 0.0,
      static_cast<double>(static_cast<int>(rapl::MeasurementQuality::kInvalid)),
      0.0};
  for (const auto& stream : streams) {
    for (int ordinal = 0; ordinal < 6; ++ordinal) {
      EXPECT_EQ(stream(ordinal), invalid) << "ordinal " << ordinal;
    }
  }
  // Once per measurement, not once per stream.
  EXPECT_EQ(errors.value() - before, 12u);

  const auto row = runClassifierExperiment(ClassifierKind::kNaiveBayes, cfg);
  EXPECT_TRUE(row.flagged);
  EXPECT_EQ(row.quality, rapl::MeasurementQuality::kInvalid);
  EXPECT_EQ(errors.value() - before,
            12u + 2u * static_cast<unsigned>(cfg.runs));
}

/// `<Classifier>.train` spans recorded since the last clear.
std::size_t trainSpans() {
  std::size_t n = 0;
  for (const auto& e : obs::TraceCollector::events()) {
    if (e.name.ends_with(".train")) ++n;
  }
  return n;
}

TEST(MeasurementReplay, EachStreamTrainsOncePerRunWhateverTheMeasureCount) {
  obs::setEnabled(true);
  for (int runs : {4, 8}) {
    WekaExperimentConfig cfg = replayConfig();
    cfg.runs = runs;
    obs::TraceCollector::clear();
    const auto one =
        runClassifierExperiment(ClassifierKind::kRandomForest, cfg);
    // Both streams train `folds` classifiers once, however many
    // measurements (initial and Tukey re-measurements) they served.
    EXPECT_EQ(trainSpans(), 2 * cfg.folds) << "runs=" << runs;

    cfg.parallel.threads = 2;
    obs::TraceCollector::clear();
    const auto all = runWekaExperiment(cfg);
    const auto kinds = static_cast<std::size_t>(ml::kClassifierKindCount);
    EXPECT_EQ(trainSpans(), 2 * cfg.folds * kinds) << "runs=" << runs;
    int remeasured = 0;
    for (const auto& r : all) remeasured += r.tukeyRemeasurements;
    EXPECT_GT(remeasured, 0) << "no re-measurement; the count is vacuous";
    EXPECT_EQ(all[static_cast<std::size_t>(ClassifierKind::kRandomForest)]
                  .basePackageJoules,
              one.basePackageJoules);
  }
  obs::resetForTest();
}

}  // namespace
}  // namespace jepo::experiments
