#include "stats/protocol.hpp"

#include <algorithm>
#include <set>

namespace jepo::stats {

BatchExecutor serialExecutor() {
  return [](const std::vector<std::function<void()>>& jobs) {
    for (const auto& job : jobs) job();
  };
}

std::vector<ProtocolResult> measureManyWithTukeyLoop(
    const std::vector<IndexedMeasure>& streams, int runCount,
    const BatchExecutor& exec, int maxRounds, double fenceK,
    int tukeyColumns) {
  JEPO_REQUIRE(runCount >= 1, "need at least one run");
  // Quartiles need 4 points; below that (CI smoke runs with --runs=1) the
  // protocol degrades to a plain mean with no outlier pass.
  const bool tukey = runCount >= 4;
  const std::size_t nStreams = streams.size();
  std::vector<ProtocolResult> results(nStreams);
  if (nStreams == 0) return results;

  // ---- Initial batch: every stream's first runCount measurements,
  // ordinal-major (see the header for why). Each job writes one
  // pre-sized, disjoint row, so a parallel executor needs no
  // synchronization beyond its own join, and the order cannot change a
  // result.
  for (auto& r : results) {
    r.runs.assign(static_cast<std::size_t>(runCount), {});
  }
  {
    std::vector<std::function<void()>> jobs;
    jobs.reserve(nStreams * static_cast<std::size_t>(runCount));
    for (int i = 0; i < runCount; ++i) {
      for (std::size_t s = 0; s < nStreams; ++s) {
        jobs.push_back([&streams, &results, s, i] {
          results[s].runs[static_cast<std::size_t>(i)] = streams[s](i);
        });
      }
    }
    exec(jobs);
  }
  std::vector<std::size_t> width(nStreams, 0);
  for (std::size_t s = 0; s < nStreams; ++s) {
    width[s] = results[s].runs[0].size();
    JEPO_REQUIRE(width[s] > 0, "measurement stream returned no metrics");
    for (const auto& row : results[s].runs) {
      JEPO_REQUIRE(row.size() == width[s], "inconsistent metric width");
    }
  }

  // ---- Tukey rounds. Decisions (outlier detection, ordinal assignment)
  // happen here on the calling thread; only the re-measurements themselves
  // go through the executor. Ordinals advance in ascending row order per
  // stream, so the value of every measurement is a pure function of
  // (stream, ordinal) — identical under any executor.
  std::vector<int> nextOrdinal(nStreams, runCount);
  std::vector<bool> active(nStreams, tukey);
  for (int round = 0;; ++round) {
    std::vector<std::function<void()>> jobs;
    for (std::size_t s = 0; s < nStreams; ++s) {
      if (!active[s]) continue;
      std::set<std::size_t> bad;
      const std::size_t fenced =
          tukeyColumns < 0
              ? width[s]
              : std::min(width[s], static_cast<std::size_t>(tukeyColumns));
      for (std::size_t m = 0; m < fenced; ++m) {
        std::vector<double> column;
        column.reserve(results[s].runs.size());
        for (const auto& row : results[s].runs) column.push_back(row[m]);
        for (std::size_t idx : tukeyOutliers(column, fenceK)) bad.insert(idx);
      }
      if (bad.empty()) {
        active[s] = false;
        continue;
      }
      if (round >= maxRounds) {
        results[s].converged = false;
        active[s] = false;
        continue;
      }
      for (std::size_t idx : bad) {
        const int ordinal = nextOrdinal[s]++;
        ++results[s].remeasured;
        jobs.push_back([&streams, &results, s, idx, ordinal] {
          results[s].runs[idx] = streams[s](ordinal);
        });
      }
    }
    if (jobs.empty()) break;
    exec(jobs);
    for (std::size_t s = 0; s < nStreams; ++s) {
      if (!active[s]) continue;
      for (const auto& row : results[s].runs) {
        JEPO_REQUIRE(row.size() == width[s], "inconsistent metric width");
      }
    }
  }

  for (std::size_t s = 0; s < nStreams; ++s) {
    auto& r = results[s];
    r.means.assign(width[s], 0.0);
    for (const auto& row : r.runs) {
      for (std::size_t m = 0; m < width[s]; ++m) r.means[m] += row[m];
    }
    for (double& m : r.means) {
      m /= static_cast<double>(r.runs.size());
    }
  }
  return results;
}

ProtocolResult measureWithTukeyLoop(
    int runCount, const std::function<std::vector<double>()>& measureOnce,
    int maxRounds, double fenceK) {
  // The stateful single-stream form: the ordinal is implied by call order,
  // which the serial executor preserves exactly.
  const std::vector<IndexedMeasure> one = {
      [&measureOnce](int) { return measureOnce(); }};
  return std::move(
      measureManyWithTukeyLoop(one, runCount, serialExecutor(), maxRounds,
                               fenceK)[0]);
}

}  // namespace jepo::stats
