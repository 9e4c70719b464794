#include "jepo/profiler.hpp"

#include <algorithm>
#include <map>
#include <memory>

#include "jbc/bcvm.hpp"
#include "jbc/compiler.hpp"
#include "obs/span.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace jepo::core {

namespace {

/// "uncaught <Class>[: <message>]" for an exception escaping main.
std::string describeUncaught(const jvm::Heap& heap, const jvm::Thrown& t) {
  const jvm::HeapObject& ex = heap.get(t.exception.asRef());
  std::string out = "uncaught " + ex.className;
  const int at = ex.layout != nullptr ? ex.layout->indexOfName("message") : -1;
  if (at >= 0) {
    const jvm::Value& message = ex.fields[static_cast<std::size_t>(at)];
    if (message.isRef()) out += ": " + heap.get(message.asRef()).text;
  }
  return out;
}

}  // namespace

void Profiler::profile(const jlang::Program& program,
                       std::string_view mainClass, std::uint64_t maxSteps) {
  profile(jbc::compile(program), mainClass, maxSteps);
}

void Profiler::profile(const jbc::CompiledProgram& program,
                       std::string_view mainClass, std::uint64_t maxSteps) {
  obs::Span span("jepo.profile");
  energy::SimMachine machine;
  jbc::BytecodeVm vm(program, machine);
  // The fault device (when armed) must outlive the instrumenter reading
  // through it; its stream identity is (profile seed, spec seed) so every
  // job derives a fresh, scheduling-independent fault sequence.
  std::unique_ptr<fault::FaultyMsrDevice> faultDevice;
  if (faultSpec_.has_value() && faultSpec_->active()) {
    fault::FaultSpec spec = *faultSpec_;
    spec.seed = deriveSeed(seed_, spec.seed);
    faultDevice = std::make_unique<fault::FaultyMsrDevice>(
        machine.msrDevice(), fault::FaultPlan(spec));
  }
  const rapl::MsrDevice& device =
      faultDevice ? static_cast<const rapl::MsrDevice&>(*faultDevice)
                  : machine.msrDevice();
  jvm::Instrumenter inst(machine, device);
  // Tier before hooks: setHooks hoists the instrumenter's gate pointer.
  inst.setTier(tier_, seed_);
  vm.setHooks(&inst);
  vm.setMaxSteps(maxSteps);
  vm.setCancelToken(cancel_);
  if (heapLimit_.has_value()) vm.setHeapLimit(*heapLimit_);
  const auto capture = [&] {
    inst.finalizeSampling();
    records_ = inst.takeRecords();
    tierStats_ = inst.tierStats();
    output_ = vm.output();
  };
  try {
    vm.runMain(mainClass);
  } catch (const jvm::Thrown& thrown) {
    // A Java exception escaping main: every frame ran its epilogue, so the
    // records are complete. Surface it as a runtime error like any abort.
    capture();
    throw VmError(describeUncaught(vm.heap(), thrown));
  } catch (...) {
    // VM abort: flush the methods still on the stack as truncated records
    // so partial executions survive into result.txt (open *unsampled*
    // invocations reconcile to counter decrements instead), then surface
    // the error with the captured state intact.
    inst.unwindAbortedFrames();
    capture();
    throw;
  }
  capture();
}

std::vector<MethodTotals> Profiler::totals() const {
  std::map<std::string, MethodTotals> agg;
  for (const auto& r : records_) {
    MethodTotals& t = agg[r.method];
    t.method = r.method;
    ++t.executions;
    ++t.instrumentedExecutions;
    t.seconds += r.seconds;
    t.packageJoules += r.packageJoules;
    t.coreJoules += r.coreJoules;
    t.dramJoules += r.dramJoules;
    t.tier = r.tier;
  }
  // Count-weighted extrapolation back to the full population: scale each
  // instrumented sum by invocations / instrumented and report the true
  // invocation count. Every method the gate saw has at least one record:
  // sampled:N always admits ordinal 0, and an aborted instrumented frame
  // still closes as a truncated record.
  for (const auto& s : tierStats_) {
    MethodTotals& t = agg[s.method];
    t.executions = s.invocations;
    t.instrumentedExecutions = s.instrumented;
    if (s.instrumented > 0 && s.instrumented < s.invocations) {
      const double scale = static_cast<double>(s.invocations) /
                           static_cast<double>(s.instrumented);
      t.seconds *= scale;
      t.packageJoules *= scale;
      t.coreJoules *= scale;
      t.dramJoules *= scale;
    }
    t.samplingRate = s.invocations > 0
                         ? static_cast<double>(s.instrumented) /
                               static_cast<double>(s.invocations)
                         : 1.0;
  }
  std::vector<MethodTotals> out;
  out.reserve(agg.size());
  for (auto& [name, t] : agg) out.push_back(std::move(t));
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.packageJoules > b.packageJoules;
  });
  return out;
}

std::string Profiler::renderResultFile() const {
  std::string out;
  for (const auto& r : records_) {
    out += r.method + "\t" + fixed(r.seconds * 1e3, 3) + " ms\t" +
           fixed(r.packageJoules, 6) + " J\t" + fixed(r.coreJoules, 6) +
           " J\t" + fixed(r.dramJoules, 6) + " J";
    if (r.truncated) out += "\t(truncated)";
    if (r.tier != jvm::InstrTier::kFull) {
      out += "\t(" + std::string(jvm::tierName(r.tier)) +
             " rate=" + fixed(r.samplingRate, 4) + ")";
    }
    out += "\n";
  }
  return out;
}

}  // namespace jepo::core
