// PerfRunner — the `perf stat` analog.
//
// The paper measures each classifier run with the Linux perf tool (RAPL
// energy-pkg / energy-cores events plus wall time). PerfRunner wraps a
// workload the same way: it runs it on a fresh SimMachine, reads the energy
// MSRs through the RaplReader before and after (the same wraparound-correct
// path perf uses), and applies a deterministic measurement-noise model —
// run-to-run jitter plus occasional interference spikes — which is exactly
// the noise Section VIII's Tukey re-measurement loop exists to remove.
//
// Robustness: when a fault plan is attached (setFaultPlan), every statAt()
// call wraps its machine's MSR device in a fault::FaultyMsrDevice whose
// seed is derived from (plan seed, ordinal, attempt) — so the fault
// schedule, like the noise stream, is a pure function of the measurement's
// identity and never of thread interleaving. The measurement itself is
// hardened: transient read errors are absorbed by the reader's bounded
// retry, permanently absent core/dram domains degrade to a package-only
// stat, and stale/backwards/jump intervals surface as
// PerfStat::quality == kInvalid instead of garbage joules.
//
// Concurrency: stat() is safe to call from many threads at once. Each call
// builds its own SimMachine (and its own fault device) and derives a
// private noise RNG from the runner's seed and a per-call ordinal, so calls
// share nothing mutable beyond one atomic counter. For bit-exact results
// independent of thread interleaving, pass the ordinal explicitly via
// statAt() — the parallel experiment runner does — since the implicit
// counter hands out ordinals in whatever order calls happen to arrive.
#pragma once

#include <atomic>
#include <functional>
#include <optional>

#include "energy/machine.hpp"
#include "fault/fault.hpp"
#include "rapl/quality.hpp"
#include "support/rng.hpp"

namespace jepo::perf {

struct PerfStat {
  double seconds = 0.0;
  double packageJoules = 0.0;
  double coreJoules = 0.0;
  double dramJoules = 0.0;

  /// Trust tag for the whole stat: the worst quality across the package,
  /// core and dram interval measurements (see rapl::MeasurementQuality).
  /// kInvalid means the energy columns are zeroed and the stat should be
  /// re-measured or its row flagged — never averaged into a result.
  rapl::MeasurementQuality quality = rapl::MeasurementQuality::kOk;
  /// Transient read errors absorbed across all counter arms and reads.
  int readRetries = 0;
  /// Core/dram registers were permanently absent; packageJoules is still
  /// trustworthy but the per-domain split is not (their columns read 0).
  bool packageOnly = false;

  /// Row layout used with stats::measureWithTukeyLoop:
  /// {package J, core J, seconds} — the paper's three metrics.
  std::vector<double> asRow() const {
    return {packageJoules, coreJoules, seconds};
  }
};

class PerfRunner {
 public:
  struct NoiseModel {
    double relSigma;    // multiplicative Gaussian jitter per metric
    double spikeProb;   // chance a run hits interference
    double spikeScale;  // spike multiplier (always an overshoot)
  };

  /// The default noise model: 1% jitter, 8% interference spikes of +35%.
  static constexpr NoiseModel kDefaultNoise{0.01, 0.08, 1.35};

  explicit PerfRunner(NoiseModel noise = kDefaultNoise,
                      std::uint64_t seed = 7);

  /// Copying forks the ordinal counter at its current value (the atomic
  /// member suppresses the default copy).
  PerfRunner(const PerfRunner& other)
      : noise_(other.noise_),
        seed_(other.seed_),
        faults_(other.faults_),
        nextOrdinal_(other.nextOrdinal_.load()) {}

  /// Disable noise entirely (exact simulated readings).
  static PerfRunner exact() { return PerfRunner(NoiseModel{0.0, 0.0, 1.0}); }

  /// Attach (or clear) a fault plan. An inactive or absent spec leaves the
  /// clean measurement path untouched — no decorator is built, so the
  /// no-fault overhead stays within the bench_fault_overhead gate.
  void setFaultPlan(std::optional<fault::FaultSpec> spec) {
    faults_ = std::move(spec);
  }
  const std::optional<fault::FaultSpec>& faultPlan() const noexcept {
    return faults_;
  }

  /// Run the workload on a fresh machine under the calibrated model and
  /// return the measured interval. The noise stream for this call is the
  /// next unused ordinal.
  PerfStat stat(const std::function<void(energy::SimMachine&)>& workload);

  /// As stat(), but with a caller-chosen noise ordinal: the measurement is
  /// a pure function of (runner seed, ordinal, workload), which is what
  /// deterministic parallel fan-out needs.
  PerfStat statAt(std::uint64_t ordinal,
                  const std::function<void(energy::SimMachine&)>& workload,
                  const energy::CostModel& model) const;

  /// As statAt(), with an explicit re-measurement attempt index. The fault
  /// stream is derived from (plan seed, ordinal, attempt) so a measurement
  /// retried after a kInvalid interval sees fresh faults, deterministically.
  /// The *noise* stream depends on the ordinal alone — a retried
  /// measurement re-measures the same quantity.
  PerfStat statAt(std::uint64_t ordinal, int attempt,
                  const std::function<void(energy::SimMachine&)>& workload,
                  const energy::CostModel& model) const;

 private:
  NoiseModel noise_;
  std::uint64_t seed_;
  std::optional<fault::FaultSpec> faults_;
  std::atomic<std::uint64_t> nextOrdinal_{0};
};

}  // namespace jepo::perf
