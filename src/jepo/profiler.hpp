// Profiler — JEPO's "profiler" pop-up button.
//
// Selects the main class (prompting — here: erroring with candidates — when
// ambiguous), runs the project with the Instrumenter installed, and exposes
// the per-execution records plus the two artifacts JEPO produces: the
// result.txt dump and the profiler view (Fig. 4).
//
// Runs execute on the bytecode VM (jbc::BytecodeVm), which is
// charge-identical to the tree interpreter (jvm::Interpreter, the test
// oracle): same output, records, joules, step counts and error strings.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "energy/machine.hpp"
#include "fault/fault.hpp"
#include "jbc/code.hpp"
#include "jlang/ast.hpp"
#include "jvm/instrumenter.hpp"
#include "support/cancel.hpp"

namespace jepo::core {

/// Aggregated per-method totals (all executions of one method summed).
///
/// Under a sampling tier the energy/time columns are count-weighted
/// extrapolations: the instrumented records' sums scaled by
/// invocations / instrumented, with `executions` reporting the true
/// invocation count (the gate counts every entry). A hot-tier method that
/// never crossed the promotion threshold appears with its invocation
/// count and zero measured columns — aggregate-only attribution.
struct MethodTotals {
  std::string method;
  std::size_t executions = 0;
  double seconds = 0.0;
  double packageJoules = 0.0;
  double coreJoules = 0.0;
  double dramJoules = 0.0;
  /// Executions that actually ran instrumented (== executions under full).
  std::size_t instrumentedExecutions = 0;
  /// instrumented / executions for this method (1.0 under full).
  double samplingRate = 1.0;
  jvm::InstrTier tier = jvm::InstrTier::kFull;
};

class Profiler {
 public:
  /// Runs `mainClass` (or the unique main class when empty) on a fresh
  /// SimMachine with method instrumentation and captures the records.
  /// maxSteps guards runaway programs (0 = unlimited). If the VM aborts
  /// (step limit, runtime error) the error is rethrown, but the records
  /// and program output up to the abort are retained first — methods still
  /// on the stack appear as `truncated` records, innermost first.
  void profile(const jlang::Program& program, std::string_view mainClass = {},
               std::uint64_t maxSteps = 0);

  /// The same run over an already compiled program (jbc::compile), so
  /// callers that profile one program repeatedly compile it once. The
  /// compiled program must outlive the call.
  void profile(const jbc::CompiledProgram& program,
               std::string_view mainClass = {}, std::uint64_t maxSteps = 0);

  /// Cap the profiled run's heap at `objects` before mark-compact kicks in
  /// (0 = never collect). Unset, the engine default applies (env
  /// JEPO_HEAP_LIMIT, or no collection). GC is host-time only: the profiled
  /// joules/records are identical with or without a limit.
  void setHeapLimit(std::size_t objects) { heapLimit_ = objects; }

  /// Base seed of this run's derived streams (fault injection today; any
  /// future stochastic component of a profiled run). Two profiles of the
  /// same program with the same seed are bit-identical regardless of which
  /// process hosts them — the contract jepod relies on to match jepo_cli.
  void setSeed(std::uint64_t seed) { seed_ = seed; }

  /// Install (or clear, with nullptr) a cooperative cancel token the run's
  /// engine polls at its step boundary. A token fired mid-run aborts the
  /// profile with CancelledError, retaining the records and output captured
  /// so far (on-stack methods flush as truncated records, exactly like a
  /// step-limit abort). A token that never fires changes nothing — the
  /// run stays bit-identical to an uncancellable one. Not owned; must
  /// outlive profile().
  void setCancelToken(const CancelToken* token) { cancel_ = token; }

  /// Select the instrumentation tier (jvm/tier.hpp): full (the default,
  /// bit-identical to the untiered seed behaviour) or sampled:N.
  /// Sampling decisions are a pure function of (seed, interned method id,
  /// invocation ordinal), so a sampled run replays bit-identically from
  /// its seed — the same contract jepod relies on for full runs.
  void setTier(const jvm::TierSpec& spec) { tier_ = spec; }
  const jvm::TierSpec& tierSpec() const noexcept { return tier_; }

  /// Route the instrumenter's MSR reads through a deterministic
  /// fault-injection device built from `spec`. The plan's stream is
  /// deriveSeed(seed, spec.seed), so per-job seeds give every job a fresh
  /// fault stream while (seed, spec) alone fully determine the run. An
  /// inactive spec is ignored (clean read path, zero overhead).
  void setFaultSpec(fault::FaultSpec spec) { faultSpec_ = std::move(spec); }

  /// One record per method execution (JEPO stores each execution
  /// separately when a method runs more than once).
  const std::vector<jvm::MethodRecord>& records() const noexcept {
    return records_;
  }
  /// Move the records out, for callers done with this Profiler.
  std::vector<jvm::MethodRecord> takeRecords() noexcept {
    return std::move(records_);
  }

  /// Per-method aggregation, sorted by descending package energy — the
  /// "which method is energy-hungry" question the tool answers.
  std::vector<MethodTotals> totals() const;

  /// The program's stdout from the profiled run.
  const std::string& programOutput() const noexcept { return output_; }
  /// Move the program output out, for callers done with this Profiler.
  std::string takeOutput() noexcept { return std::move(output_); }

  /// The result.txt content JEPO writes into the project directory: one
  /// line per execution, method / seconds / package J / core J / dram J,
  /// with truncated (abort-unwound) executions marked.
  std::string renderResultFile() const;

  /// Per-method population counts from the run's tier gate (empty under
  /// full instrumentation): total vs instrumented invocations.
  const std::vector<jvm::TierGate::MethodStat>& tierStats() const noexcept {
    return tierStats_;
  }

 private:
  std::vector<jvm::MethodRecord> records_;
  std::vector<jvm::TierGate::MethodStat> tierStats_;
  std::string output_;
  jvm::TierSpec tier_;
  std::optional<std::size_t> heapLimit_;
  std::uint64_t seed_ = 0;
  std::optional<fault::FaultSpec> faultSpec_;
  const CancelToken* cancel_ = nullptr;
};

}  // namespace jepo::core
