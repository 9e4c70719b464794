#include "experiments/parallel_runner.hpp"

#include "obs/span.hpp"
#include "stats/protocol.hpp"
#include "support/thread_pool.hpp"

namespace jepo::experiments {

std::vector<ClassifierResult> ParallelRunner::run() {
  const std::size_t kinds =
      static_cast<std::size_t>(ml::kClassifierKindCount);
  ThreadPool pool(config_.parallel.resolvedThreads());

  // ---- Phase 1: per-classifier prep (corpus optimize + dataset build).
  // Each task writes its own pre-sized slot; prepClassifier is a pure
  // function of (kind, config).
  std::vector<detail::ClassifierPrep> preps(kinds);
  parallelFor(pool, kinds, [&](std::size_t k) {
    preps[k] = detail::prepClassifier(static_cast<ml::ClassifierKind>(k),
                                      config_);
  });

  // ---- Phase 2: one protocol call over all 2×kinds measurement streams.
  // The streams reference preps[k].data, which is stable from here on.
  std::vector<stats::IndexedMeasure> streams;
  streams.reserve(2 * kinds);
  for (std::size_t k = 0; k < kinds; ++k) {
    for (auto& m : detail::makeStyleMeasures(
             static_cast<ml::ClassifierKind>(k), preps[k], config_)) {
      streams.push_back(std::move(m));
    }
  }
  const stats::BatchExecutor exec =
      [&pool](const std::vector<std::function<void()>>& jobs) {
        parallelFor(pool, jobs.size(), [&jobs](std::size_t i) { jobs[i](); });
      };
  const auto protocols = [&] {
    // prep/assemble spans come from the detail functions themselves (they
    // run inside pool tasks); the measure phase is driven from here.
    obs::Span span("experiment.measure");
    return stats::measureManyWithTukeyLoop(
        streams, config_.runs, exec, /*maxRounds=*/50, /*fenceK=*/1.5,
        detail::kTukeyMetricColumns);
  }();

  // ---- Phase 3: assemble, preserving the serial output ordering.
  // Rows whose measurements stayed invalid arrive flagged from
  // assembleResult — partial results, never an aborted matrix.
  std::vector<ClassifierResult> out;
  out.reserve(kinds);
  for (std::size_t k = 0; k < kinds; ++k) {
    out.push_back(detail::assembleResult(static_cast<ml::ClassifierKind>(k),
                                         preps[k], protocols[2 * k],
                                         protocols[2 * k + 1], config_));
  }
  return out;
}

}  // namespace jepo::experiments
