#include "rapl/rapl.hpp"

#include <algorithm>
#include <cmath>

#include "obs/registry.hpp"

namespace jepo::rapl {

namespace {

// Fault-path instruments only: the clean read path touches none of these,
// keeping the no-fault measurement cost flat (bench_fault_overhead gates
// the residual at <1%).
obs::Counter& retryCounter() {
  static obs::Counter& c =
      obs::Registry::global().counter("rapl.read.retries");
  return c;
}

obs::Counter& exhaustedCounter() {
  static obs::Counter& c =
      obs::Registry::global().counter("rapl.read.exhausted");
  return c;
}

obs::Counter& intervalCounter(const char* name) {
  return obs::Registry::global().counter(name);
}

obs::Histogram& backoffHistogram() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("rapl.read.backoff_units");
  return h;
}

}  // namespace

std::string_view domainName(Domain d) noexcept {
  switch (d) {
    case Domain::kPackage: return "package";
    case Domain::kCore: return "core";
    case Domain::kUncore: return "uncore";
    case Domain::kDram: return "dram";
  }
  return "?";
}

std::uint32_t domainMsr(Domain d) noexcept {
  switch (d) {
    case Domain::kPackage: return kMsrPkgEnergyStatus;
    case Domain::kCore: return kMsrPp0EnergyStatus;
    case Domain::kUncore: return kMsrPp1EnergyStatus;
    case Domain::kDram: return kMsrDramEnergyStatus;
  }
  return 0;
}

SimulatedRaplPackage::SimulatedRaplPackage(PowerUnit unit)
    : unit_(unit),
      quantum_(unit.jouleQuantum()),
      countsPerJoule_(static_cast<double>(1ULL << unit.energyUnitBits)) {
  dev_.write(kMsrRaplPowerUnit, unit_.encode());
  for (Domain d : kAllDomains) publish(d);
}

void SimulatedRaplPackage::deposit(Domain d, double joules) {
  JEPO_REQUIRE(joules >= 0.0, "energy deposits are non-negative");
  const auto i = static_cast<std::size_t>(d);
  joules_[i] += joules;
  // Quantize into raw counts, carrying the sub-quantum remainder so no
  // energy is ever lost to rounding across many small deposits.
  residual_[i] += joules;
  const double counts = std::floor(residual_[i] * countsPerJoule_);
  if (counts > 0.0) {
    rawCount_[i] += static_cast<std::uint64_t>(counts);
    residual_[i] -= counts * quantum_;
    publish(d);
  }
}

double SimulatedRaplPackage::totalJoules(Domain d) const noexcept {
  return joules_[static_cast<std::size_t>(d)];
}

void SimulatedRaplPackage::publish(Domain d) {
  const auto i = static_cast<std::size_t>(d);
  // Energy-status registers are 32-bit wrapping counters; upper bits read 0.
  dev_.write(domainMsr(d), rawCount_[i] & 0xFFFFFFFFULL);
}

RaplReader::RaplReader(const MsrDevice& dev, RetryPolicy retry)
    : dev_(&dev), retry_(retry) {
  // Even the capability read can hit a transient fault on a flaky msr
  // device; absorb it here so one EAGAIN at arm time cannot kill a whole
  // measurement. A permanent fault (no RAPL at all) still propagates —
  // there is nothing to degrade to.
  unit_ = PowerUnit::decode(readMsrRetrying(kMsrRaplPowerUnit, &unitRetries_));
  // Only a register file holding all three probe registers takes the
  // one-call read. A fault decorator, or a package without DRAM, keeps the
  // per-register sequence: its faults are per read attempt, and the
  // degrade/invalid/retried outcome of each domain depends on it.
  const auto* file = dynamic_cast<const SimulatedMsrDevice*>(dev_);
  if (file != nullptr &&
      std::all_of(kProbeDomains.begin(), kProbeDomains.end(),
                  [file](Domain d) { return file->has(domainMsr(d)); })) {
    registerFile_ = file;
  }
}

std::uint64_t RaplReader::readMsrRetrying(std::uint32_t msr,
                                          int* retries) const {
  for (int attempt = 0;; ++attempt) {
    try {
      const std::uint64_t v = dev_->read(msr);
      if (retries != nullptr) *retries = attempt;
      return v;
    } catch (const MsrError& e) {
      if (!e.transient()) throw;
      if (attempt + 1 >= retry_.maxAttempts) {
        exhaustedCounter().add();
        throw;
      }
      retryCounter().add();
      // Deterministic exponential backoff: on real hardware this would be
      // a usleep(unit << attempt); in the simulation the schedule is only
      // recorded. Nothing here reads a clock, so the retry schedule is a
      // pure function of the fault plan.
      backoffHistogram().record(1ULL << attempt);
    }
  }
}

std::uint32_t RaplReader::readRaw(Domain d) const {
  return static_cast<std::uint32_t>(dev_->read(domainMsr(d)) & 0xFFFFFFFFULL);
}

RawSample RaplReader::readRawRetrying(Domain d) const {
  RawSample s;
  s.value = static_cast<std::uint32_t>(
      readMsrRetrying(domainMsr(d), &s.retries) & 0xFFFFFFFFULL);
  return s;
}

bool RaplReader::domainAvailable(Domain d) const {
  try {
    (void)readRawRetrying(d);
    return true;
  } catch (const MsrError& e) {
    // Exhausted transient retries: the register exists, this probe just
    // failed — report present and let the measurement path classify it.
    return e.transient();
  }
}

double RaplReader::readJoules(Domain d) const {
  return static_cast<double>(readRaw(d)) * unit_.jouleQuantum();
}

ProbeSample RaplReader::readProbe(const ProbeSample* arm) const {
  ProbeSample s;
  if (registerFile_ != nullptr) {
    s.raw = registerFile_->energyStatus();
    return s;
  }
  for (std::size_t i = 0; i < kProbeDomains.size(); ++i) {
    if (arm != nullptr && arm->fail[i] != MeasurementQuality::kOk) {
      s.fail[i] = arm->fail[i];
      continue;
    }
    try {
      const RawSample r = readRawRetrying(kProbeDomains[i]);
      s.raw[i] = r.value;
      s.retries += r.retries;
    } catch (const MsrError& e) {
      s.fail[i] = e.transient() ? MeasurementQuality::kInvalid
                                : MeasurementQuality::kDegraded;
    }
  }
  return s;
}

EnergyCounter::EnergyCounter(const RaplReader& reader, Domain domain)
    : reader_(&reader), domain_(domain) {
  start();
}

void EnergyCounter::start() {
  armFail_ = ArmFail::kNone;
  startRetries_ = 0;
  try {
    const RawSample s = reader_->readRawRetrying(domain_);
    startRaw_ = s.value;
    startRetries_ = s.retries;
  } catch (const MsrError& e) {
    armFail_ = e.transient() ? ArmFail::kTransient : ArmFail::kPermanent;
    if (!e.transient()) {
      intervalCounter("rapl.domain.unavailable").add();
    }
  }
}

double EnergyCounter::elapsedJoules() const {
  const std::uint32_t now = reader_->readRaw(domain_);
  // Unsigned 32-bit subtraction is exactly the one-wrap-correct delta.
  const std::uint32_t delta = now - startRaw_;
  return static_cast<double>(delta) * reader_->unit().jouleQuantum();
}

EnergyInterval EnergyCounter::measure(double elapsedSeconds, double maxWatts,
                                      double minExpectedJoules) const {
  EnergyInterval out;
  if (armFail_ != ArmFail::kNone) {
    // Degradation ladder: a missing register yields package-only
    // measurement upstream; a busted arm read invalidates this interval.
    out.quality = armFail_ == ArmFail::kPermanent
                      ? MeasurementQuality::kDegraded
                      : MeasurementQuality::kInvalid;
    return out;
  }

  RawSample end;
  try {
    end = reader_->readRawRetrying(domain_);
  } catch (const MsrError& e) {
    out.quality = e.transient() ? MeasurementQuality::kInvalid
                                : MeasurementQuality::kDegraded;
    if (!e.transient()) intervalCounter("rapl.domain.unavailable").add();
    return out;
  }

  out.retries = startRetries_ + end.retries;
  if (out.retries > 0) out.quality = MeasurementQuality::kRetried;

  const double quantum = reader_->unit().jouleQuantum();
  const std::uint32_t delta = end.value - startRaw_;
  out.joules = static_cast<double>(delta) * quantum;

  if (delta >= kBackwardsThreshold) {
    // A small backwards glitch wraps to a near-full-range positive delta.
    intervalCounter("rapl.interval.backwards").add();
    out.quality = MeasurementQuality::kInvalid;
    out.joules = 0.0;
  } else if (delta >= kSuspectThreshold) {
    // More than half the counter range in one interval: at best a wrap is
    // imminent and a second one cannot be ruled out; at worst the counter
    // jumped (firmware glitch / forced multi-wrap).
    if (elapsedSeconds >= 0.0 &&
        out.joules > elapsedSeconds * maxWatts + 1.0) {
      intervalCounter("rapl.interval.implausible").add();
      out.quality = MeasurementQuality::kInvalid;
      out.joules = 0.0;
    } else {
      intervalCounter("rapl.interval.multiwrap_risk").add();
      out.quality = worst(out.quality, MeasurementQuality::kDegraded);
    }
  } else if (delta == 0 && minExpectedJoules > 0.0) {
    // The counter did not move over an interval where idle power alone
    // must have deposited counts: a stale repeat.
    intervalCounter("rapl.interval.stale").add();
    out.quality = MeasurementQuality::kInvalid;
  }
  return out;
}

}  // namespace jepo::rapl
