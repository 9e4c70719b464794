#include "stats/bootstrap.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace jepo::stats {

namespace {

/// Type-7 quantile of a sorted sample (the quartiles() convention).
double quantileSorted(const std::vector<double>& sorted, double p) {
  const double h = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = h - std::floor(h);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double plainMean(const std::vector<double>& xs) {
  double total = 0.0;
  for (const double x : xs) total += x;
  return total / static_cast<double>(xs.size());
}

}  // namespace

double qualityWidenFactor(double fracRetried, double fracDegraded) noexcept {
  return 1.0 + kRetriedWiden * fracRetried + kDegradedWiden * fracDegraded;
}

std::vector<double> bootstrapMeans(const std::vector<double>& xs,
                                   int resamples, std::uint64_t seed,
                                   const BatchExecutor& exec) {
  JEPO_REQUIRE(!xs.empty(), "bootstrap of empty sample");
  JEPO_REQUIRE(resamples >= 1, "need at least one resample");
  std::vector<double> means(static_cast<std::size_t>(resamples), 0.0);
  const auto n = static_cast<std::uint64_t>(xs.size());

  // One slot-writing job per resample; each derives its private RNG from
  // its ordinal, so the executor's scheduling cannot change a bit.
  std::vector<std::function<void()>> jobs;
  jobs.reserve(means.size());
  for (std::size_t r = 0; r < means.size(); ++r) {
    jobs.push_back([&xs, &means, seed, n, r] {
      Rng rng(deriveSeed(seed, static_cast<std::uint64_t>(r)));
      double total = 0.0;
      for (std::uint64_t i = 0; i < n; ++i) {
        total += xs[static_cast<std::size_t>(rng.nextBelow(n))];
      }
      means[r] = total / static_cast<double>(n);
    });
  }
  exec(jobs);
  return means;
}

Interval percentileInterval(std::vector<double> samples, double center,
                            double confidence) {
  JEPO_REQUIRE(!samples.empty(), "percentile interval of empty sample");
  JEPO_REQUIRE(confidence > 0.0 && confidence < 1.0,
               "confidence must be in (0, 1)");
  std::sort(samples.begin(), samples.end());
  const double alpha = (1.0 - confidence) / 2.0;
  Interval out;
  out.mean = center;
  out.lo = std::min(quantileSorted(samples, alpha), center);
  out.hi = std::max(quantileSorted(samples, 1.0 - alpha), center);
  return out;
}

Interval widen(const Interval& interval, double factor) noexcept {
  Interval out = interval;
  out.lo = interval.mean - (interval.mean - interval.lo) * factor;
  out.hi = interval.mean + (interval.hi - interval.mean) * factor;
  return out;
}

IntervalResult qualityInterval(const std::vector<double>& values,
                               const std::vector<int>& qualities,
                               const BootstrapConfig& config,
                               const BatchExecutor& exec) {
  JEPO_REQUIRE(!values.empty(), "interval of empty run matrix");
  JEPO_REQUIRE(values.size() == qualities.size(),
               "values/qualities must be parallel");

  IntervalResult result;
  std::vector<double> valid;
  valid.reserve(values.size());
  int retried = 0;
  int degraded = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (qualities[i] >= kQualityInvalid) {
      ++result.excludedRows;
      continue;
    }
    valid.push_back(values[i]);
    if (qualities[i] == kQualityRetried) ++retried;
    if (qualities[i] == kQualityDegraded) ++degraded;
  }
  result.validRows = static_cast<int>(valid.size());

  if (result.validRows > 0) {
    const auto n = static_cast<double>(result.validRows);
    result.retriedFraction = static_cast<double>(retried) / n;
    result.degradedFraction = static_cast<double>(degraded) / n;
  }
  result.widenFactor =
      qualityWidenFactor(result.retriedFraction, result.degradedFraction);

  // Fewer than two survivors: nothing to resample. Fall back to a point
  // estimate — over the survivors when there is one, over every row when
  // the whole matrix is flagged (matching the protocol means, which keep
  // invalid rows' zeroed values) — without aborting.
  if (result.validRows < 2) {
    const double center = valid.empty() ? plainMean(values) : valid.front();
    result.interval = Interval{center, center, center};
    result.pointEstimate = true;
    return result;
  }

  const double center = plainMean(valid);
  const std::vector<double> means =
      bootstrapMeans(valid, config.resamples, config.seed, exec);
  result.interval =
      widen(percentileInterval(means, center, kConfidence),
            result.widenFactor);
  return result;
}

}  // namespace jepo::stats
