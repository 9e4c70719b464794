#include "jvm/instrumenter.hpp"

#include "obs/registry.hpp"
#include "support/strings.hpp"

namespace jepo::jvm {

Instrumenter::Instrumenter(energy::SimMachine& machine)
    : Instrumenter(machine, machine.msrDevice()) {}

Instrumenter::Instrumenter(energy::SimMachine& machine,
                           const rapl::MsrDevice& device)
    : machine_(&machine),
      reader_(device),
      quantum_(reader_.unit().jouleQuantum()) {}

Instrumenter::~Instrumenter() {
  // How many MethodRecords the profiling path has produced, how many of
  // those were abort-unwound, and how many have degraded/invalid energy
  // columns — the volume of "result.txt" data, surfaced in bench --json
  // counter sections.
  static obs::Counter& records =
      obs::Registry::global().counter("instrumenter.records");
  static obs::Counter& truncated =
      obs::Registry::global().counter("instrumenter.truncated");
  static obs::Counter& impaired =
      obs::Registry::global().counter("instrumenter.impaired");
  records.add(recordCount_);
  truncated.add(truncatedCount_);
  impaired.add(impairedCount_);
}

void Instrumenter::onEnter(const MethodRef& method) {
  // The injected prologue: flush pending work so the counters are current,
  // then snapshot the raw 32-bit registers (not joules — the diff must be
  // taken in raw space to survive wraparound).
  machine_->sync();
  stack_.push_back({method, machine_->seconds(), reader_.readProbe()});
}

void Instrumenter::closeFrame(bool truncated) {
  machine_->sync();
  const OpenFrame frame = stack_.back();
  stack_.pop_back();
  recordIds_.push_back(frame.method.id);
  const rapl::ProbeSample end = reader_.readProbe(&frame.arm);

  MethodRecord& rec = records_.emplace_back();
  rec.method = frame.method.name();
  rec.truncated = truncated;
  rec.tier = gate_ != nullptr ? tierSpec_.tier : InstrTier::kFull;
  rec.seconds = machine_->seconds() - frame.startSeconds;
  rec.readRetries = frame.arm.retries + end.retries;
  std::array<double, rapl::kProbeDomains.size()> joules{};
  for (std::size_t i = 0; i < joules.size(); ++i) {
    if (end.fail[i] != rapl::MeasurementQuality::kOk) {
      rec.quality = worst(rec.quality, end.fail[i]);
      continue;
    }
    // Unsigned 32-bit subtraction: correct across one counter wrap.
    joules[i] = static_cast<double>(end.raw[i] - frame.arm.raw[i]) * quantum_;
  }
  rec.packageJoules = joules[0];
  rec.coreJoules = joules[1];
  rec.dramJoules = joules[2];
  if (rec.readRetries > 0) {
    rec.quality = worst(rec.quality, rapl::MeasurementQuality::kRetried);
  }

  ++recordCount_;
  if (truncated) ++truncatedCount_;
  if (rec.quality >= rapl::MeasurementQuality::kDegraded) ++impairedCount_;
}

void Instrumenter::onExit(const MethodRef& method) {
  // Hot-path check is id equality; the name is rendered lazily, only for
  // the failure diagnostic (JEPO_REQUIRE evaluates its message lazily).
  JEPO_REQUIRE(!stack_.empty() && stack_.back().method == method,
               concat("unbalanced method hooks for ", method.name()));
  closeFrame(/*truncated=*/false);
}

void Instrumenter::unwindAbortedFrames() {
  while (!stack_.empty()) closeFrame(/*truncated=*/true);
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
