#include "perf/perf.hpp"

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "rapl/rapl.hpp"

namespace jepo::perf {

namespace {

obs::Counter& perfCounter(const char* name) {
  return obs::Registry::global().counter(name);
}

}  // namespace

PerfRunner::PerfRunner(NoiseModel noise, std::uint64_t seed)
    : noise_(noise), seed_(seed) {}

PerfStat PerfRunner::stat(
    const std::function<void(energy::SimMachine&)>& workload) {
  return statAt(nextOrdinal_.fetch_add(1, std::memory_order_relaxed),
                workload, energy::CostModel::calibrated());
}

PerfStat PerfRunner::statAt(
    std::uint64_t ordinal,
    const std::function<void(energy::SimMachine&)>& workload,
    const energy::CostModel& model) const {
  return statAt(ordinal, /*attempt=*/0, workload, model);
}

PerfStat PerfRunner::statAt(
    std::uint64_t ordinal, int attempt,
    const std::function<void(energy::SimMachine&)>& workload,
    const energy::CostModel& model) const {
  static obs::Counter& measurements =
      obs::Registry::global().counter("perf.measurements");
  measurements.add();
  obs::Span span("perf.stat");
  energy::SimMachine machine(model);

  // With an active fault plan, interpose the chaos decorator between the
  // machine's register file and the reader. Its seed is derived from the
  // measurement's identity (ordinal, attempt), never from scheduling, so
  // the injected fault sequence is replayed exactly at any thread count.
  const rapl::MsrDevice* device = &machine.msrDevice();
  std::optional<fault::FaultyMsrDevice> faulty;
  if (faults_.has_value() && faults_->active()) {
    fault::FaultSpec spec = *faults_;
    spec.seed = deriveSeed(faults_->seed, ordinal,
                           static_cast<std::uint64_t>(attempt),
                           0x5EEDFA17ULL);
    faulty.emplace(*device, fault::FaultPlan(spec));
    device = &*faulty;
  }

  PerfStat out;
  // Arm counters through the MSR path, exactly as perf arms the RAPL PMU.
  // If even the power-unit capability read fails (a permanent fault means
  // no RAPL at all; a transient one exhausted its retry budget), the
  // workload still runs — wall time and the classifier's accuracy are
  // measurable without energy counters — and the stat is marked kInvalid
  // with zeroed energy columns.
  std::optional<rapl::RaplReader> reader;
  try {
    reader.emplace(*device);
  } catch (const rapl::MsrError&) {
    perfCounter("perf.stat.no_rapl").add();
    const double t0 = machine.seconds();
    workload(machine);
    machine.sync();
    out.seconds = machine.seconds() - t0;
    out.quality = rapl::MeasurementQuality::kInvalid;
    Rng rng(deriveSeed(seed_, ordinal));
    const double spike = noise_.spikeProb > 0.0 &&
                                 rng.nextDouble() < noise_.spikeProb
                             ? noise_.spikeScale
                             : 1.0;
    out.seconds *= std::max(
        0.5, spike * (1.0 + noise_.relSigma * rng.nextGaussian()));
    return out;
  }

  out.readRetries += reader->unitReadRetries();
  rapl::EnergyCounter pkg(*reader, rapl::Domain::kPackage);
  rapl::EnergyCounter core(*reader, rapl::Domain::kCore);
  rapl::EnergyCounter dram(*reader, rapl::Domain::kDram);
  const double t0 = machine.seconds();

  workload(machine);
  machine.sync();

  out.seconds = machine.seconds() - t0;

  // Stale-repeat floor: over this interval idle power alone must have
  // deposited counts, so a delta of exactly zero means the status register
  // did not update. Only armed when the expected energy clears several
  // quanta — sub-quantum intervals legitimately read a zero delta.
  double minExpected =
      0.25 * model.packageIdleWatts() * out.seconds;
  if (minExpected < 8.0 * reader->unit().jouleQuantum()) minExpected = -1.0;

  const rapl::EnergyInterval pkgIv = pkg.measure(
      out.seconds, rapl::EnergyCounter::kDefaultMaxWatts, minExpected);
  const rapl::EnergyInterval coreIv = core.measure(out.seconds);
  const rapl::EnergyInterval dramIv = dram.measure(out.seconds);

  out.packageJoules = pkgIv.joules;
  out.coreJoules = coreIv.joules;
  out.dramJoules = dramIv.joules;
  out.readRetries += pkgIv.retries + coreIv.retries + dramIv.retries;

  // Quality ladder. The package domain is the primary metric: losing it
  // (permanently absent register, or a busted interval) invalidates the
  // stat. Losing only core/dram degrades to a package-only measurement —
  // the paper's headline numbers survive, the per-domain split does not.
  if (!pkg.available()) {
    out.quality = rapl::MeasurementQuality::kInvalid;
  } else {
    out.quality = worst(out.quality, pkgIv.quality);
  }
  auto foldDomain = [&](const rapl::EnergyCounter& counter,
                        const rapl::EnergyInterval& iv) {
    if (!counter.available() &&
        iv.quality == rapl::MeasurementQuality::kDegraded) {
      out.packageOnly = true;
      perfCounter("perf.stat.package_only").add();
      out.quality = worst(out.quality, rapl::MeasurementQuality::kDegraded);
    } else {
      out.quality = worst(out.quality, iv.quality);
    }
  };
  foldDomain(core, coreIv);
  foldDomain(dram, dramIv);
  if (out.readRetries > 0) {
    out.quality = worst(out.quality, rapl::MeasurementQuality::kRetried);
  }
  if (out.quality == rapl::MeasurementQuality::kInvalid) {
    perfCounter("perf.stat.invalid").add();
    out.packageJoules = 0.0;
    out.coreJoules = 0.0;
    out.dramJoules = 0.0;
  }

  // Measurement noise: per-metric multiplicative jitter plus occasional
  // interference spikes (cron jobs, thermal events). A spike hits the whole
  // run — the machine was busy, so time and every energy domain rise
  // together — which is what lets Tukey's fences catch it reliably.
  // The noise stream is private to this call (seed × ordinal) and
  // independent of the fault stream, so a fault plan that only ever
  // injects retryable errors leaves these draws — and hence the science
  // columns — bit-identical to the fault-free baseline.
  Rng rng(deriveSeed(seed_, ordinal));
  const double spike = noise_.spikeProb > 0.0 &&
                               rng.nextDouble() < noise_.spikeProb
                           ? noise_.spikeScale
                           : 1.0;
  auto jitter = [&](double v) {
    const double factor =
        spike * (1.0 + noise_.relSigma * rng.nextGaussian());
    return v * std::max(0.5, factor);
  };
  out.seconds = jitter(out.seconds);
  out.packageJoules = jitter(out.packageJoules);
  out.coreJoules = jitter(out.coreJoules);
  out.dramJoules = jitter(out.dramJoules);
  return out;
}

}  // namespace jepo::perf
