#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "stats/bootstrap.hpp"
#include "stats/protocol.hpp"
#include "stats/stats.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace jepo::stats {
namespace {

TEST(Stats, MeanStddevMedian) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 1e-3);
  EXPECT_THROW(mean({}), PreconditionError);
  EXPECT_THROW(stddev({1.0}), PreconditionError);
}

TEST(Stats, QuartilesType7) {
  const Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_NEAR(q.q1, 2.75, 1e-9);
  EXPECT_NEAR(q.q2, 4.5, 1e-9);
  EXPECT_NEAR(q.q3, 6.25, 1e-9);
}

TEST(Stats, TukeyFencesAndOutliers) {
  // Tight cluster + one wild value.
  const std::vector<double> xs = {10, 11, 10.5, 9.8, 10.2, 10.7, 9.9, 50};
  const Fences f = tukeyFences(xs);
  EXPECT_FALSE(f.contains(50));
  EXPECT_TRUE(f.contains(10.5));
  const auto outliers = tukeyOutliers(xs);
  ASSERT_EQ(outliers.size(), 1u);
  EXPECT_EQ(outliers[0], 7u);
}

TEST(Stats, NoOutliersInUniformData) {
  EXPECT_TRUE(tukeyOutliers({1, 2, 3, 4, 5, 6, 7, 8}).empty());
}

TEST(Protocol, CleanMeasurementsPassThrough) {
  int calls = 0;
  const auto result = measureWithTukeyLoop(10, [&] {
    ++calls;
    return std::vector<double>{10.0 + 0.01 * calls, 5.0};
  });
  EXPECT_EQ(calls, 10);
  EXPECT_EQ(result.remeasured, 0);
  EXPECT_TRUE(result.converged);
  ASSERT_EQ(result.means.size(), 2u);
  EXPECT_NEAR(result.means[0], 10.055, 1e-9);
  EXPECT_NEAR(result.means[1], 5.0, 1e-12);
}

TEST(Protocol, PlantedOutliersAreReplaced) {
  // Runs 3 and 7 spike; re-measurements return clean values.
  int calls = 0;
  const auto result = measureWithTukeyLoop(10, [&] {
    ++calls;
    const bool spike = calls == 3 || calls == 7;
    return std::vector<double>{spike ? 100.0 : 10.0 + 0.001 * calls};
  });
  EXPECT_TRUE(result.converged);
  EXPECT_GE(result.remeasured, 2);
  EXPECT_LT(result.means[0], 11.0);  // spikes removed from the mean
  for (const auto& row : result.runs) EXPECT_LT(row[0], 50.0);
}

TEST(Protocol, OutlierInAnyMetricTriggersRowRemeasure) {
  int calls = 0;
  const auto result = measureWithTukeyLoop(8, [&] {
    ++calls;
    // Second metric spikes on the first call only.
    return std::vector<double>{10.0 + 0.001 * calls,
                               calls == 1 ? 99.0 : 5.0 + 0.001 * calls};
  });
  EXPECT_TRUE(result.converged);
  EXPECT_GE(result.remeasured, 1);
  EXPECT_LT(result.means[1], 6.0);
}

TEST(Protocol, NonConvergingDistributionHitsTheCap) {
  // Each measurement is an order of magnitude beyond the last, so the
  // freshest value is always above the Tukey fence: the loop can never
  // converge and must stop at the cap.
  double v = 10.0;
  const auto result = measureWithTukeyLoop(
      10,
      [&] {
        v *= 10.0;
        return std::vector<double>{v};
      },
      /*maxRounds=*/5);
  EXPECT_FALSE(result.converged);
}

TEST(Protocol, ValidatesInputs) {
  EXPECT_THROW(
      measureWithTukeyLoop(0, [] { return std::vector<double>{1.0}; }),
      PreconditionError);
  EXPECT_THROW(measureWithTukeyLoop(10, [] { return std::vector<double>{}; }),
               PreconditionError);
}

TEST(Protocol, FewerThanFourRunsSkipsTukeyAndReportsPlainMean) {
  // Quartiles need 4 points; below that (CI smoke runs with --runs=1) the
  // protocol is a plain mean: no re-measurement even of a wild outlier.
  int calls = 0;
  const auto result = measureWithTukeyLoop(2, [&] {
    ++calls;
    return std::vector<double>{calls == 1 ? 1000.0 : 10.0};
  });
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(result.remeasured, 0);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.means[0], 505.0, 1e-12);
}

// A measurement that is a pure function of (stream, ordinal) — the contract
// the parallel experiment runner relies on. Stream 0 spikes on ordinals 2
// and 6; stream 1 spikes on ordinal 0; re-measurements are clean.
std::vector<IndexedMeasure> twoSpikyStreams() {
  return {
      [](int ordinal) {
        const bool spike = ordinal == 2 || ordinal == 6;
        return std::vector<double>{spike ? 100.0 : 10.0 + 0.001 * ordinal,
                                   5.0};
      },
      [](int ordinal) {
        return std::vector<double>{ordinal == 0 ? 77.0 : 20.0 + 0.002 * ordinal,
                                   3.0};
      },
  };
}

TEST(Protocol, ManyStreamsScrubEachStreamIndependently) {
  const auto results =
      measureManyWithTukeyLoop(twoSpikyStreams(), 10, serialExecutor());
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.converged);
    ASSERT_EQ(r.runs.size(), 10u);
  }
  EXPECT_GE(results[0].remeasured, 2);
  EXPECT_GE(results[1].remeasured, 1);
  EXPECT_LT(results[0].means[0], 11.0);
  EXPECT_LT(results[1].means[0], 21.0);
  // The constant second metric is untouched (inclusive fences: a constant
  // column never reads as an outlier).
  EXPECT_DOUBLE_EQ(results[0].means[1], 5.0);
  EXPECT_DOUBLE_EQ(results[1].means[1], 3.0);
}

TEST(Protocol, ManyStreamsMatchSingleStreamLoop) {
  // Each stream, run through the batched multi-stream loop, must land on
  // exactly the result of the classic single-stream loop: within a stream
  // ordinals are consumed in the same 0,1,2,... order either way.
  const auto many =
      measureManyWithTukeyLoop(twoSpikyStreams(), 10, serialExecutor());
  for (std::size_t s = 0; s < 2; ++s) {
    int counter = 0;
    const auto stream = twoSpikyStreams()[s];
    const auto single =
        measureWithTukeyLoop(10, [&] { return stream(counter++); });
    EXPECT_EQ(many[s].remeasured, single.remeasured);
    ASSERT_EQ(many[s].runs, single.runs);
    EXPECT_EQ(many[s].means, single.means);
  }
}

TEST(Protocol, ExecutorSchedulingCannotChangeResults) {
  // Determinism contract: results depend only on (stream, ordinal), never
  // on the order the executor happens to run a batch in.
  const auto serial =
      measureManyWithTukeyLoop(twoSpikyStreams(), 10, serialExecutor());
  const BatchExecutor reversed =
      [](const std::vector<std::function<void()>>& jobs) {
        for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) (*it)();
      };
  const auto backwards =
      measureManyWithTukeyLoop(twoSpikyStreams(), 10, reversed);
  ASSERT_EQ(serial.size(), backwards.size());
  for (std::size_t s = 0; s < serial.size(); ++s) {
    EXPECT_EQ(serial[s].runs, backwards[s].runs);
    EXPECT_EQ(serial[s].means, backwards[s].means);
    EXPECT_EQ(serial[s].remeasured, backwards[s].remeasured);
  }
}

TEST(Protocol, ThreadPoolExecutorMatchesSerial) {
  const auto serial =
      measureManyWithTukeyLoop(twoSpikyStreams(), 10, serialExecutor());
  ThreadPool pool(4);
  const BatchExecutor pooled =
      [&pool](const std::vector<std::function<void()>>& jobs) {
        parallelFor(pool, jobs.size(),
                    [&jobs](std::size_t i) { jobs[i](); });
      };
  const auto parallel = measureManyWithTukeyLoop(twoSpikyStreams(), 10, pooled);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t s = 0; s < serial.size(); ++s) {
    EXPECT_EQ(serial[s].runs, parallel[s].runs);
    EXPECT_EQ(serial[s].means, parallel[s].means);
  }
}

TEST(Protocol, InitialBatchIsOrdinalMajor) {
  // A recording executor runs each batch in order and logs its size; the
  // streams log their calls. The initial batch holds ordinal 0 of every
  // stream, then ordinal 1, and so on, so a pool starts every stream's
  // first measurement before any stream's second.
  std::vector<std::pair<int, int>> calls;
  std::vector<IndexedMeasure> streams;
  for (int s = 0; s < 3; ++s) {
    streams.push_back([s, &calls](int ordinal) {
      calls.emplace_back(s, ordinal);
      return std::vector<double>{1.0};  // constant: no Tukey round
    });
  }
  std::vector<std::size_t> batches;
  const BatchExecutor recording =
      [&batches](const std::vector<std::function<void()>>& jobs) {
        batches.push_back(jobs.size());
        for (const auto& job : jobs) job();
      };
  measureManyWithTukeyLoop(streams, 4, recording);
  EXPECT_EQ(batches, std::vector<std::size_t>{12});
  std::vector<std::pair<int, int>> ordinalMajor;
  for (int i = 0; i < 4; ++i) {
    for (int s = 0; s < 3; ++s) ordinalMajor.emplace_back(s, i);
  }
  EXPECT_EQ(calls, ordinalMajor);
}

TEST(Protocol, ManyStreamsValidateInputs) {
  const std::vector<IndexedMeasure> one = {
      [](int) { return std::vector<double>{1.0}; }};
  EXPECT_THROW(measureManyWithTukeyLoop(one, 0, serialExecutor()),
               PreconditionError);
  // A single run is legal (smoke mode): the mean of that one measurement.
  const auto smoke = measureManyWithTukeyLoop(one, 1, serialExecutor());
  ASSERT_EQ(smoke.size(), 1u);
  EXPECT_EQ(smoke[0].runs.size(), 1u);
  EXPECT_DOUBLE_EQ(smoke[0].means[0], 1.0);
  // No streams is a no-op, not an error.
  EXPECT_TRUE(measureManyWithTukeyLoop({}, 10, serialExecutor()).empty());
}

TEST(Protocol, MeanMatchesSectionEightSemantics) {
  // After convergence the reported value is the plain mean of the final
  // runs — no trimming beyond the re-measurement.
  const auto result = measureWithTukeyLoop(4, [] {
    static int i = 0;
    const double vals[] = {10, 12, 11, 13};
    return std::vector<double>{vals[i++ % 4]};
  });
  EXPECT_NEAR(result.means[0], 11.5, 1e-12);
}

// ---------------------------------------------------------------------------
// Bootstrap battery (stats/bootstrap.hpp)

std::vector<double> sampleValues(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) xs.push_back(5.0 + rng.nextDouble() * 2.0);
  return xs;
}

bool sameInterval(const Interval& a, const Interval& b) {
  return a.lo == b.lo && a.mean == b.mean && a.hi == b.hi;
}

TEST(Bootstrap, RerunIsBitIdentical) {
  const std::vector<double> xs = sampleValues(12, 99);
  const std::vector<int> qs(xs.size(), kQualityOk);
  const BootstrapConfig cfg;
  const IntervalResult a = qualityInterval(xs, qs, cfg);
  const IntervalResult b = qualityInterval(xs, qs, cfg);
  EXPECT_TRUE(sameInterval(a.interval, b.interval));
  EXPECT_EQ(a.validRows, b.validRows);
  EXPECT_EQ(a.widenFactor, b.widenFactor);
}

TEST(Bootstrap, SeedChangesResamples) {
  const std::vector<double> xs = sampleValues(12, 99);
  BootstrapConfig cfg;
  const std::vector<double> a = bootstrapMeans(xs, cfg.resamples, 1,
                                               serialExecutor());
  const std::vector<double> b = bootstrapMeans(xs, cfg.resamples, 2,
                                               serialExecutor());
  EXPECT_NE(a, b);
  // Same seed replays exactly.
  EXPECT_EQ(a, bootstrapMeans(xs, cfg.resamples, 1, serialExecutor()));
}

TEST(Bootstrap, ExecutorSchedulingCannotChangeABit) {
  const std::vector<double> xs = sampleValues(16, 7);
  const std::vector<double> serial =
      bootstrapMeans(xs, 300, 2020, serialExecutor());

  const BatchExecutor reversed =
      [](const std::vector<std::function<void()>>& jobs) {
        for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) (*it)();
      };
  EXPECT_EQ(serial, bootstrapMeans(xs, 300, 2020, reversed));

  for (const std::size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const BatchExecutor pooled =
        [&pool](const std::vector<std::function<void()>>& jobs) {
          parallelFor(pool, jobs.size(),
                      [&jobs](std::size_t i) { jobs[i](); });
        };
    EXPECT_EQ(serial, bootstrapMeans(xs, 300, 2020, pooled))
        << threads << " threads";
  }
}

TEST(Bootstrap, IntervalBracketsTheCenterAndOrdersBounds) {
  const std::vector<double> xs = sampleValues(10, 3);
  const std::vector<int> qs(xs.size(), kQualityOk);
  const IntervalResult r = qualityInterval(xs, qs, BootstrapConfig{});
  EXPECT_LE(r.interval.lo, r.interval.mean);
  EXPECT_LE(r.interval.mean, r.interval.hi);
  EXPECT_GT(r.interval.width(), 0.0);
  EXPECT_FALSE(r.pointEstimate);
}

TEST(Bootstrap, SingleRunFallsBackToPointEstimate) {
  const IntervalResult r =
      qualityInterval({42.0}, {kQualityOk}, BootstrapConfig{});
  EXPECT_TRUE(r.pointEstimate);
  EXPECT_EQ(r.interval.lo, 42.0);
  EXPECT_EQ(r.interval.mean, 42.0);
  EXPECT_EQ(r.interval.hi, 42.0);
  EXPECT_EQ(r.validRows, 1);
}

TEST(Bootstrap, ConstantColumnYieldsZeroWidth) {
  const std::vector<double> xs(8, 3.25);
  const std::vector<int> qs(xs.size(), kQualityOk);
  const IntervalResult r = qualityInterval(xs, qs, BootstrapConfig{});
  EXPECT_FALSE(r.pointEstimate);
  EXPECT_EQ(r.interval.lo, 3.25);
  EXPECT_EQ(r.interval.mean, 3.25);
  EXPECT_EQ(r.interval.hi, 3.25);
}

TEST(Bootstrap, AllFlaggedRowsFallBackWithoutAborting) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<int> qs(xs.size(), kQualityInvalid);
  const IntervalResult r = qualityInterval(xs, qs, BootstrapConfig{});
  EXPECT_TRUE(r.pointEstimate);
  EXPECT_EQ(r.validRows, 0);
  EXPECT_EQ(r.excludedRows, 3);
  // The fallback center matches the protocol means, which keep every row.
  EXPECT_DOUBLE_EQ(r.interval.mean, 2.0);
}

TEST(Bootstrap, InvalidRowsAreExcludedButCounted) {
  const std::vector<double> xs = {5.0, 5.1, 4.9, 1000.0};
  const std::vector<int> qs = {kQualityOk, kQualityOk, kQualityOk,
                               kQualityInvalid};
  const IntervalResult r = qualityInterval(xs, qs, BootstrapConfig{});
  EXPECT_EQ(r.validRows, 3);
  EXPECT_EQ(r.excludedRows, 1);
  // The excluded spike cannot leak into the resampled interval.
  EXPECT_LT(r.interval.hi, 6.0);
}

TEST(Bootstrap, WidenFactorOrdersOkRetriedDegraded) {
  EXPECT_EQ(qualityWidenFactor(0.0, 0.0), 1.0);
  // ok < retried < degraded at equal fractions.
  EXPECT_LT(qualityWidenFactor(0.0, 0.0), qualityWidenFactor(0.5, 0.0));
  EXPECT_LT(qualityWidenFactor(0.5, 0.0), qualityWidenFactor(0.0, 0.5));
  // Strictly monotone in either fraction.
  EXPECT_LT(qualityWidenFactor(0.2, 0.1), qualityWidenFactor(0.3, 0.1));
  EXPECT_LT(qualityWidenFactor(0.2, 0.1), qualityWidenFactor(0.2, 0.2));
}

TEST(Bootstrap, DegradedRowsWidenTheIntervalOnTheSameValues) {
  const std::vector<double> xs = sampleValues(10, 11);
  const std::vector<int> clean(xs.size(), kQualityOk);
  std::vector<int> degraded(xs.size(), kQualityOk);
  degraded[1] = kQualityDegraded;
  degraded[4] = kQualityDegraded;
  const IntervalResult a = qualityInterval(xs, clean, BootstrapConfig{});
  const IntervalResult b = qualityInterval(xs, degraded, BootstrapConfig{});
  // Identical values, identical resamples — only the quality tags differ,
  // and the degraded matrix must honestly report more uncertainty.
  EXPECT_GT(b.interval.width(), a.interval.width());
  EXPECT_EQ(b.interval.mean, a.interval.mean);
  EXPECT_GT(b.widenFactor, a.widenFactor);
}

TEST(Bootstrap, CoverageSanityOnAKnownDistribution) {
  // ~95% of seeded uniform samples' intervals should cover the true mean;
  // with widening only ever growing intervals, a large majority covering
  // is the sanity floor (exactness is not the claim — determinism is).
  const double trueMean = 6.0;  // uniform on [5, 7]
  int covered = 0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    const std::vector<double> xs =
        sampleValues(24, static_cast<std::uint64_t>(1000 + t));
    const std::vector<int> qs(xs.size(), kQualityOk);
    BootstrapConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(t);
    const IntervalResult r = qualityInterval(xs, qs, cfg);
    if (r.interval.lo <= trueMean && trueMean <= r.interval.hi) ++covered;
  }
  EXPECT_GE(covered, trials * 4 / 5);
}

TEST(Bootstrap, CleanRowsReportTheNinetyFivePercentPercentileInterval) {
  EXPECT_EQ(kConfidence, 0.95);
  const std::vector<double> xs = sampleValues(20, 11);
  const std::vector<int> qs(xs.size(), kQualityOk);
  const BootstrapConfig cfg;
  const IntervalResult r = qualityInterval(xs, qs, cfg);
  ASSERT_EQ(r.widenFactor, 1.0);
  const std::vector<double> means =
      bootstrapMeans(xs, cfg.resamples, cfg.seed, serialExecutor());
  EXPECT_TRUE(sameInterval(
      r.interval, percentileInterval(means, r.interval.mean, 0.95)));
  // A different level gives a different interval, so the match above
  // pins the level and not only the resamples.
  EXPECT_FALSE(sameInterval(
      r.interval, percentileInterval(means, r.interval.mean, 0.5)));
}

TEST(Bootstrap, PercentileIntervalWidensWithTheConfidenceLevel) {
  std::vector<double> samples;
  for (int i = 0; i < 101; ++i) samples.push_back(static_cast<double>(i));
  const Interval half = percentileInterval(samples, 50.0, 0.5);
  const Interval ninetyFive = percentileInterval(samples, 50.0, 0.95);
  EXPECT_NEAR(half.lo, 25.0, 1e-9);
  EXPECT_NEAR(half.hi, 75.0, 1e-9);
  EXPECT_NEAR(ninetyFive.lo, 2.5, 1e-9);
  EXPECT_NEAR(ninetyFive.hi, 97.5, 1e-9);
  EXPECT_GT(ninetyFive.width(), half.width());
}

TEST(Bootstrap, ValidatesInputs) {
  EXPECT_THROW(bootstrapMeans({}, 10, 1, serialExecutor()),
               PreconditionError);
  EXPECT_THROW(bootstrapMeans({1.0}, 0, 1, serialExecutor()),
               PreconditionError);
  EXPECT_THROW(percentileInterval({}, 0.0, 0.95), PreconditionError);
  EXPECT_THROW(percentileInterval({1.0}, 0.0, 1.5), PreconditionError);
  EXPECT_THROW(qualityInterval({}, {}, BootstrapConfig{}),
               PreconditionError);
  EXPECT_THROW(qualityInterval({1.0}, {kQualityOk, kQualityOk},
                               BootstrapConfig{}),
               PreconditionError);
}

}  // namespace
}  // namespace jepo::stats
