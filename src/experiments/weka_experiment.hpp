// The Section VIII evaluation pipeline, as a reusable library:
//
//   per classifier:
//     changes      = Optimizer change count over the classifier's corpus
//     baseline     = 10-fold stratified CV, WEKA-as-shipped CodeStyle,
//                    double precision, measured by the perf runner
//     optimized    = same CV, JEPO-optimized CodeStyle at the classifier's
//                    hot-path exposure, float precision
//     both measured `runs` times under the Tukey re-measurement protocol
//     improvements = (baseline - optimized) / baseline for package energy,
//                    CPU (core) energy, and execution time
//     accuracyDrop = baseline accuracy - optimized accuracy (pct points)
//
// bench_table4, bench_scaling_instances and the ablation benches all run
// through this module with different configs.
//
// Determinism: every measurement is a pure function of (classifier, code
// style, measurement ordinal) — seeds are derived with deriveSeed, never
// drawn from shared streams — so the serial path and the ParallelRunner
// produce bit-identical ClassifierResult rows at any thread count.
#pragma once

#include <optional>
#include <vector>

#include "energy/cost_model.hpp"
#include "energy/machine.hpp"
#include "fault/fault.hpp"
#include "ml/classifier.hpp"
#include "rapl/quality.hpp"
#include "stats/bootstrap.hpp"
#include "stats/protocol.hpp"
#include "support/thread_pool.hpp"

namespace jepo::experiments {

struct WekaExperimentConfig {
  std::size_t instances = 1000;   // paper: 10,000 (heap-limited from 539,383)
  std::size_t folds = 10;         // paper: stratified 10-fold CV
  int runs = 5;                   // paper: 10 runs + Tukey loop
  std::uint64_t seed = 2020;
  double corpusScale = 0.10;      // corpus fraction for the Changes count
  int forestTrees = 10;           // RandomForest size (WEKA default is 100)
  bool withNoise = true;          // perf measurement noise + Tukey loop
  /// Thread count for runWekaExperiment: 1 = serial, 0 = one per core.
  /// Results are identical for every value (see ParallelRunner).
  ParallelConfig parallel;
  /// Cost model override (ablation); nullopt = calibrated model.
  std::optional<energy::CostModel> costModel;
  /// Fault plan injected under every measurement (chaos runs); nullopt or
  /// an inactive spec leaves the clean path untouched. Each measurement's
  /// fault stream is derived from (plan seed, classifier, style, ordinal,
  /// attempt), so fault-injected matrices stay bit-identical at any
  /// thread count.
  std::optional<fault::FaultSpec> faultPlan;
  /// Compute seeded bootstrap confidence intervals over the final
  /// (post-Tukey) run matrix (stats/bootstrap.hpp). Off by default: the
  /// point estimates, row fields and --json bytes stay identical to the
  /// pre-interval pipeline. The bootstrap's own seed field is ignored —
  /// every interval derives its resample streams from (seed, classifier,
  /// style), so rows are bit-identical at any thread count.
  bool intervals = false;
  stats::BootstrapConfig bootstrap;
};

/// The probabilistic layer of one Table IV row: bootstrap confidence
/// intervals around the reported package-joule and improvement point
/// estimates, plus the quality bookkeeping that widened them. Pooled
/// counts/fractions cover the final runs of BOTH styles; all three
/// intervals are widened by the same pooled factor so a degrading fault
/// plan widens the whole row monotonically.
struct ResultIntervals {
  stats::Interval basePackage;
  stats::Interval optPackage;
  stats::Interval packageImprovement;
  int validRuns = 0;              // resampled rows across both styles
  int excludedRuns = 0;           // kInvalid rows excluded-but-counted
  double retriedFraction = 0.0;   // of valid rows, pooled
  double degradedFraction = 0.0;  // of valid rows, pooled
  double widenFactor = 1.0;       // qualityWidenFactor of the fractions
  /// Either style had fewer than two valid runs: intervals collapsed to
  /// the point estimates instead of resampling (never aborts the row).
  bool pointEstimate = false;
};

struct ClassifierResult {
  ml::ClassifierKind kind = ml::ClassifierKind::kJ48;
  int changes = 0;                 // scaled Optimizer change count
  int changesFullScale = 0;        // extrapolated to the full corpus
  double packageImprovement = 0.0; // %
  double cpuImprovement = 0.0;     // %
  double timeImprovement = 0.0;    // %
  double accuracyBase = 0.0;       // fraction
  double accuracyOpt = 0.0;        // fraction
  double accuracyDrop = 0.0;       // percentage points
  double basePackageJoules = 0.0;
  double optPackageJoules = 0.0;
  int tukeyRemeasurements = 0;
  /// Set when a baseline metric measured <= 0 (e.g. an empty dataset): the
  /// affected improvement is reported as 0% instead of NaN/Inf.
  bool degenerateBaseline = false;
  /// Worst measurement quality across the final (post-Tukey) runs of both
  /// styles — the row's trust tag.
  rapl::MeasurementQuality quality = rapl::MeasurementQuality::kOk;
  /// Transient read errors + measurement-level re-attempts absorbed across
  /// the final runs.
  int faultRetries = 0;
  /// The row's energy numbers are untrustworthy (quality == kInvalid even
  /// after per-measurement retries): improvements are zeroed and the row
  /// is reported flagged instead of aborting the experiment.
  bool flagged = false;
  /// Instrumentation-tier provenance of the row's measurements. They run
  /// through PerfRunner, never a profiler tier, so every row is "full" at
  /// sampling rate 1.0; the fields keep the common --json row schema.
  std::string tier = "full";
  double samplingRate = 1.0;
  /// Bootstrap confidence intervals over the final run matrix; engaged only
  /// when WekaExperimentConfig::intervals is set, so consumers that never
  /// asked for distributions see byte-identical rows.
  std::optional<ResultIntervals> intervals;
};

/// Run the pipeline for one classifier (always serial; bit-identical to the
/// corresponding row of runWekaExperiment at any thread count).
ClassifierResult runClassifierExperiment(ml::ClassifierKind kind,
                                         const WekaExperimentConfig& config);

/// Run all ten classifiers of Table IV. Dispatches to ParallelRunner when
/// config.parallel asks for more than one thread; rows are always in
/// ClassifierKind order and identical to the serial path.
std::vector<ClassifierResult> runWekaExperiment(
    const WekaExperimentConfig& config);

/// The paper's Table IV values, for side-by-side reporting.
struct PaperRow {
  int changes;
  double packageImprovement;
  double cpuImprovement;
  double timeImprovement;
  double accuracyDrop;
};
PaperRow paperTable4Row(ml::ClassifierKind kind);

namespace detail {

/// Everything about one classifier that is computed once, before any
/// measurement: the Optimizer change count and the subsampled dataset.
/// Pure function of (kind, config) — safe to build in parallel.
struct ClassifierPrep {
  int changes = 0;
  int changesFullScale = 0;
  /// optional only because Instances has no default constructor; always
  /// engaged after prepClassifier returns.
  std::optional<ml::Instances> data;
};

ClassifierPrep prepClassifier(ml::ClassifierKind kind,
                              const WekaExperimentConfig& config);

/// Row layout of a measurement stream: the four science columns the Tukey
/// fences see, then two bookkeeping columns (measurement quality as its
/// enum index, retry count) excluded from outlier detection.
inline constexpr int kTukeyMetricColumns = 4;  // {pkg J, core J, s, acc}
inline constexpr int kQualityColumn = 4;
inline constexpr int kRetriesColumn = 5;

/// How many times one measurement is attempted while its energy reading
/// comes back kInvalid (stale/backwards/jump interval, retry budget
/// exhausted). After the last attempt the row keeps the invalid stat and
/// is flagged rather than aborting the run.
inline constexpr int kMeasurementAttempts = 3;

/// The metered workload of one measurement stream: stratified CV of `kind`
/// in style `styleIndex` (0 = baseline, 1 = optimized), charged onto
/// `machine`. Returns the mean accuracy. A pure function of its arguments:
/// the same op counts and accuracy on every call.
double runStyleWorkload(ml::ClassifierKind kind, int styleIndex,
                        const ml::Instances& data,
                        const WekaExperimentConfig& config,
                        energy::SimMachine& machine);

/// The two measurement streams (baseline, optimized) for one classifier.
/// Each stream returns {package J, core J, seconds, accuracy, quality,
/// retries} and derives its noise RNG from deriveSeed(config.seed, kind,
/// style, ordinal). The workload does not depend on the ordinal, so each
/// stream runs runStyleWorkload once, on its first measurement, and every
/// measurement replays the recorded op counts; that thread-safe record is
/// the only state a stream's measurements share. `prep` and `config` must
/// outlive the streams.
std::vector<stats::IndexedMeasure> makeStyleMeasures(
    ml::ClassifierKind kind, const ClassifierPrep& prep,
    const WekaExperimentConfig& config);

/// Fold the two protocol results into the Table IV row, guarding the
/// improvement ratios against zero-cost baselines.
ClassifierResult assembleResult(ml::ClassifierKind kind,
                                const ClassifierPrep& prep,
                                const stats::ProtocolResult& base,
                                const stats::ProtocolResult& opt,
                                const WekaExperimentConfig& config);

}  // namespace detail

}  // namespace jepo::experiments
