// The Section VIII measurement protocol:
//
//   "We first run each classifier 10 times to measure Package energy, CPU
//    energy, and execution time … detect outliers using Tukey's method from
//    each metric, replace the outliers measurements with new measurements
//    and again check for outliers. We repeat this process until no outlier
//    is left. When no outlier is left, we calculated the mean of values."
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "stats/stats.hpp"
#include "support/error.hpp"

namespace jepo::stats {

struct ProtocolResult {
  /// Final per-run values, one row per run, one column per metric.
  std::vector<std::vector<double>> runs;
  /// Per-metric means over the outlier-free runs.
  std::vector<double> means;
  /// How many individual runs were re-measured.
  int remeasured = 0;
  /// Whether the loop converged before maxRounds.
  bool converged = true;
};

/// One measurement stream under the protocol. The argument is the
/// measurement ordinal within the stream (0 .. runCount-1 for the initial
/// runs, then runCount, runCount+1, … for Tukey re-measurements). A stream
/// must derive all of its randomness from that ordinal (deriveSeed) rather
/// than from shared mutable state, which is what makes the protocol safe to
/// execute on a thread pool and bit-identical at any thread count.
using IndexedMeasure = std::function<std::vector<double>(int ordinal)>;

/// Executes one batch of independent measurement jobs. The serial executor
/// runs them in order on the calling thread; a parallel executor may run
/// them in any order on any threads (each job writes a disjoint result
/// slot, so ordering cannot change the outcome).
using BatchExecutor =
    std::function<void(const std::vector<std::function<void()>>&)>;

/// The default executor: run each job in order, on this thread.
BatchExecutor serialExecutor();

/// The protocol over many streams at once, with pluggable execution.
///
/// All streams' initial `runCount` measurements form the first batch, in
/// ordinal-major order: ordinal 0 of every stream, then ordinal 1, and so
/// on. A stream may do its expensive work once, on whichever measurement
/// comes first (the experiment streams record their workload then and
/// replay it), so this order lets a pool's workers start different streams
/// at once instead of queueing behind one stream's first measurement. Then
/// each round gathers every stream's Tukey-outlier rows into one batch of
/// re-measurements. Outlier detection and re-measure bookkeeping happen on
/// the calling thread between batches — the executor only ever sees
/// independent jobs — so the loop is thread-safe by construction and the
/// result depends only on the measured values, never on scheduling.
/// Rounds are capped per stream (a pathological distribution could
/// otherwise loop forever; the paper implicitly assumes convergence).
///
/// `tukeyColumns` limits outlier detection to the first N metric columns
/// (-1 = all). Streams that append bookkeeping columns after their science
/// metrics — the experiment pipeline carries measurement-quality and
/// retry-count columns — use this so a flagged-but-extreme bookkeeping
/// value can never trigger a re-measurement. Means are still computed over
/// every column.
std::vector<ProtocolResult> measureManyWithTukeyLoop(
    const std::vector<IndexedMeasure>& streams, int runCount,
    const BatchExecutor& exec, int maxRounds = 50, double fenceK = 1.5,
    int tukeyColumns = -1);

/// Single-stream, stateful-measurement convenience used by tools that
/// measure one workload at a time. Call order is exactly the serial
/// protocol: runs in order, then re-measures in ascending row order per
/// round.
ProtocolResult measureWithTukeyLoop(
    int runCount, const std::function<std::vector<double>()>& measureOnce,
    int maxRounds = 50, double fenceK = 1.5);

}  // namespace jepo::stats
