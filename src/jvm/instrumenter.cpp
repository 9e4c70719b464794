#include "jvm/instrumenter.hpp"

#include "obs/registry.hpp"

namespace jepo::jvm {

namespace {

/// How many MethodRecords the profiling path has produced, and how many of
/// those were abort-unwound — the volume of "result.txt" data, surfaced in
/// bench --json counter sections.
obs::Counter& recordsCounter() {
  static obs::Counter& c =
      obs::Registry::global().counter("instrumenter.records");
  return c;
}

obs::Counter& truncatedCounter() {
  static obs::Counter& c =
      obs::Registry::global().counter("instrumenter.truncated");
  return c;
}

obs::Counter& impairedCounter() {
  static obs::Counter& c =
      obs::Registry::global().counter("instrumenter.impaired");
  return c;
}

}  // namespace

Instrumenter::Instrumenter(energy::SimMachine& machine)
    : Instrumenter(machine, machine.msrDevice()) {}

Instrumenter::Instrumenter(energy::SimMachine& machine,
                           const rapl::MsrDevice& device)
    : machine_(&machine), reader_(device) {}

Instrumenter::ArmSample Instrumenter::armDomain(rapl::Domain d,
                                                int* retries) const {
  ArmSample s;
  try {
    const rapl::RawSample raw = reader_.readRawRetrying(d);
    s.raw = raw.value;
    s.ok = true;
    *retries += raw.retries;
  } catch (const rapl::MsrError& e) {
    // Absent register: this record's column degrades to 0 J. Exhausted
    // retry budget: the register exists but this frame cannot trust it.
    s.failQuality = e.transient() ? rapl::MeasurementQuality::kInvalid
                                  : rapl::MeasurementQuality::kDegraded;
  }
  return s;
}

void Instrumenter::onEnter(const MethodRef& method) {
  // The injected prologue: flush pending work so the counters are current,
  // then snapshot the raw 32-bit registers (not joules — the diff must be
  // taken in raw space to survive wraparound).
  machine_->sync();
  OpenFrame frame;
  frame.method = method;
  frame.startSeconds = machine_->seconds();
  frame.pkg = armDomain(rapl::Domain::kPackage, &frame.retries);
  frame.core = armDomain(rapl::Domain::kCore, &frame.retries);
  frame.dram = armDomain(rapl::Domain::kDram, &frame.retries);
  stack_.push_back(std::move(frame));
}

MethodRecord Instrumenter::closeFrame(bool truncated) {
  machine_->sync();
  const OpenFrame frame = std::move(stack_.back());
  stack_.pop_back();
  recordIds_.push_back(frame.method.id);

  const double quantum = reader_.unit().jouleQuantum();
  MethodRecord rec;
  rec.method = frame.method.name();
  rec.truncated = truncated;
  rec.tier = gate_ != nullptr ? tierSpec_.tier : InstrTier::kFull;
  rec.seconds = machine_->seconds() - frame.startSeconds;
  rec.readRetries = frame.retries;

  auto measure = [&](rapl::Domain d, const ArmSample& arm) {
    if (!arm.ok) {
      rec.quality = worst(rec.quality, arm.failQuality);
      return 0.0;
    }
    try {
      const rapl::RawSample end = reader_.readRawRetrying(d);
      rec.readRetries += end.retries;
      // Unsigned 32-bit subtraction: correct across one counter wrap.
      return static_cast<double>(end.value - arm.raw) * quantum;
    } catch (const rapl::MsrError& e) {
      rec.quality = worst(rec.quality,
                          e.transient() ? rapl::MeasurementQuality::kInvalid
                                        : rapl::MeasurementQuality::kDegraded);
      return 0.0;
    }
  };
  rec.packageJoules = measure(rapl::Domain::kPackage, frame.pkg);
  rec.coreJoules = measure(rapl::Domain::kCore, frame.core);
  rec.dramJoules = measure(rapl::Domain::kDram, frame.dram);
  if (rec.readRetries > 0) {
    rec.quality = worst(rec.quality, rapl::MeasurementQuality::kRetried);
  }
  return rec;
}

void Instrumenter::onExit(const MethodRef& method) {
  // Hot-path check is id equality; the name is rendered lazily, only for
  // the failure diagnostic (JEPO_REQUIRE evaluates its message lazily).
  JEPO_REQUIRE(!stack_.empty() && stack_.back().method == method,
               "unbalanced method hooks for " + method.name());
  records_.push_back(closeFrame(/*truncated=*/false));
  recordsCounter().add();
  if (records_.back().quality >= rapl::MeasurementQuality::kDegraded) {
    impairedCounter().add();
  }
}

void Instrumenter::unwindAbortedFrames() {
  while (!stack_.empty()) {
    records_.push_back(closeFrame(/*truncated=*/true));
    recordsCounter().add();
    truncatedCounter().add();
    if (records_.back().quality >= rapl::MeasurementQuality::kDegraded) {
      impairedCounter().add();
    }
  }
  // Open frames whose entry was unsampled never reached the stack above —
  // they have no MSR snapshot to close into a truncated record. Square
  // the gate's population counters instead (a counter decrement per open
  // unsampled invocation) so extrapolation never scales by invocations
  // that did not complete.
  if (gate_ != nullptr) gate_->reconcileAborted();
}

void Instrumenter::setTier(const TierSpec& spec, std::uint64_t seed) {
  JEPO_REQUIRE(stack_.empty(), "cannot retier with open frames");
  tierSpec_ = spec;
  if (spec.tier == InstrTier::kFull) {
    gate_.reset();
  } else {
    gate_ = std::make_unique<TierGate>(spec, seed);
  }
}

void Instrumenter::finalizeSampling() {
  if (gate_ == nullptr) return;
  JEPO_ASSERT(recordIds_.size() == records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    records_[i].samplingRate = gate_->effectiveRateById(recordIds_[i]);
  }
}

}  // namespace jepo::jvm
