// Seeded, deterministic bootstrap confidence intervals — the probabilistic
// layer over the Section VIII multi-run matrix.
//
// "Probabilistic energy profiler for statically typed JVM-based programming
// languages" argues an energy result should be a distribution, not a point:
// the run-to-run matrix the Tukey protocol already collects is exactly the
// empirical distribution to resample. This module turns a metric column of
// that matrix into a percentile-bootstrap confidence interval around the
// reported mean, with two properties the rest of the pipeline relies on:
//
//   Determinism.  Resample r draws every index from Rng(deriveSeed(seed, r))
//   — the same ordinal-stream discipline as the parallel experiment runner
//   (PR 1), so the interval is a pure function of (values, seed, config).
//   An executor may fan the resamples out over any number of threads in any
//   order; each resample writes its own pre-assigned slot, so the result is
//   bit-identical at any thread count.
//
//   Quality awareness.  Each run row carries the PR 3 measurement-quality
//   tag. kInvalid rows are excluded from resampling (their energy columns
//   are zeroed garbage) but counted, and the interval widens as the
//   surviving rows' quality degrades — ok < retried < degraded — so a
//   fault-degraded matrix honestly reports more uncertainty than a clean
//   one even when the surviving values happen to coincide.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/protocol.hpp"

namespace jepo::stats {

struct BootstrapConfig {
  /// Number of bootstrap resamples. 200 keeps the smoke sweep cheap while
  /// placing the 2.5/97.5 percentiles within a run's noise floor.
  int resamples = 200;
  /// Base seed of the resample ordinal streams (deriveSeed(seed, r)).
  std::uint64_t seed = 2020;
};

/// Two-sided confidence level of every interval the pipeline reports.
inline constexpr double kConfidence = 0.95;

/// A confidence interval around a reported mean. lo <= mean <= hi always
/// (the percentile interval is clamped to bracket the point estimate, so a
/// skewed small-sample resample distribution can never report a mean
/// outside its own interval).
struct Interval {
  double lo = 0.0;
  double mean = 0.0;
  double hi = 0.0;
  double width() const noexcept { return hi - lo; }
};

/// Per-row measurement quality, as the rapl::MeasurementQuality enum index
/// round-tripped through the protocol's bookkeeping column:
/// 0 = ok, 1 = retried, 2 = degraded, 3 = invalid. (Kept as plain ints so
/// jepo_stats does not grow a rapl dependency.)
inline constexpr int kQualityOk = 0;
inline constexpr int kQualityRetried = 1;
inline constexpr int kQualityDegraded = 2;
inline constexpr int kQualityInvalid = 3;

/// Widening penalties per surviving-row quality (fractions of the rows
/// that are retried / degraded). The exact values are a policy choice; the
/// invariants the tests pin are ordering (ok < retried < degraded) and
/// strict monotonicity of the factor in either fraction.
inline constexpr double kRetriedWiden = 0.35;
inline constexpr double kDegradedWiden = 1.00;

/// 1 + kRetriedWiden * fracRetried + kDegradedWiden * fracDegraded.
double qualityWidenFactor(double fracRetried, double fracDegraded) noexcept;

/// The quality-aware interval over one metric column of a run matrix.
struct IntervalResult {
  Interval interval;
  /// Rows that participated in resampling (quality != invalid).
  int validRows = 0;
  /// kInvalid rows excluded from resampling but counted here.
  int excludedRows = 0;
  /// Fraction of valid rows tagged retried / degraded, and the widening
  /// factor applied to the raw percentile interval.
  double retriedFraction = 0.0;
  double degradedFraction = 0.0;
  double widenFactor = 1.0;
  /// The interval degenerated to a point estimate: fewer than two valid
  /// rows (nothing to resample — including the all-flagged matrix, whose
  /// mean falls back to the plain mean over every row rather than
  /// aborting).
  bool pointEstimate = false;
};

/// The B resample means of `xs` under the deriveSeed ordinal streams.
/// Resample r's indices come from Rng(deriveSeed(seed, r)); the executor
/// only ever sees independent slot-writing jobs, so any scheduling yields
/// bit-identical output. Throws PreconditionError on empty input or
/// resamples < 1.
std::vector<double> bootstrapMeans(const std::vector<double>& xs,
                                   int resamples, std::uint64_t seed,
                                   const BatchExecutor& exec);

/// Percentile interval of `samples` at `confidence`, clamped to bracket
/// `center` (the reported point estimate). Throws on empty samples or a
/// confidence outside (0, 1).
Interval percentileInterval(std::vector<double> samples, double center,
                            double confidence);

/// Expand an interval's half-widths around its mean by `factor` (>= 1).
Interval widen(const Interval& interval, double factor) noexcept;

/// The full quality-aware pipeline over one metric column. `values` and
/// `qualities` are parallel arrays (one entry per final run of the
/// protocol matrix). Invalid rows are excluded-but-counted; fewer than two
/// surviving rows degrade to a point estimate at the plain mean (over the
/// survivors, or over every row when none survive) instead of throwing.
IntervalResult qualityInterval(const std::vector<double>& values,
                               const std::vector<int>& qualities,
                               const BootstrapConfig& config,
                               const BatchExecutor& exec = serialExecutor());

}  // namespace jepo::stats
