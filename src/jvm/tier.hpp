// Tiered method instrumentation: the overhead–accuracy dial.
//
// Full instrumentation reads the RAPL MSRs at every method entry and exit,
// which "What Is the Cost of Energy Monitoring?" shows is a first-order
// distortion of exactly the quantity being measured. The tiers trade
// per-invocation fidelity for overhead:
//
//   full       — every invocation instrumented (the seed behaviour,
//                bit-identical: no gate is even installed).
//   sampled:N  — every Nth invocation of each method is instrumented, plus
//                every method's first invocation (anchoring rarely-called
//                methods that would otherwise vanish from attribution). The
//                sampled ordinal is derived from (seed, interned method id),
//                so which invocations are measured depends only on the run's
//                seed and the method — never on thread count, scheduling or
//                wall-clock — and a run can be replayed bit-identically
//                from its seed.
//
// Unsampled entries pay only a counter increment: the engines branch on a
// hoisted TierGate pointer and skip the hook call entirely — no MSR reads,
// no machine sync, no record allocation (see interpreter.cpp / bcvm.cpp).
//
// Population accounting: the gate counts every entry, instrumented or not,
// so records can be scaled back to full-population estimates (count-weighted
// extrapolation in Profiler::totals) and each record can be stamped with its
// method's *effective* sampling rate. Aborted runs reconcile through
// reconcileAborted(): an open frame whose entry was unsampled never
// completed, so it unwinds to a counter decrement — not a bogus truncated
// record (it has no armed MSR snapshot to close).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "jvm/interpreter.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace jepo::jvm {

enum class InstrTier : std::uint8_t { kFull = 0, kSampled = 1 };

/// Wire/CLI name of a tier: "full" or "sampled".
const char* tierName(InstrTier tier) noexcept;

/// A parsed --tier value. `describe()` round-trips through
/// `parseTierSpec()`, which is how the spec travels over the jepod wire.
struct TierSpec {
  InstrTier tier = InstrTier::kFull;
  /// sampled: instrument 1 of every `sampleEvery` invocations (>= 1).
  std::uint64_t sampleEvery = 1;

  /// "full" | "sampled:N".
  std::string describe() const;

  bool operator==(const TierSpec& o) const noexcept {
    return tier == o.tier && sampleEvery == o.sampleEvery;
  }
};

/// Parse "full" | "sampled:N" (N >= 1). Throws jepo::Error with a
/// message naming the accepted forms on malformed input — callers at trust
/// boundaries (jepod requests, CLI flags) surface it verbatim.
TierSpec parseTierSpec(std::string_view text);

/// Per-method sampling state shared by the engines and the Instrumenter.
///
/// Single-threaded by design, like the engines themselves: determinism
/// across thread *counts* comes from each concurrent run owning its own
/// gate seeded identically, not from sharing one. Indexed by the interned
/// method id (dense, resolver-assigned).
class TierGate {
 public:
  TierGate(const TierSpec& spec, std::uint64_t seed)
      : spec_(spec), seed_(seed) {}

  /// Decision for the *next* entry of `m`, without committing it. The
  /// bcvm's fused trivial-call path peeks first: an admitted entry must
  /// fall back to the framed path (which instruments), an unsampled one
  /// may stay fused. peek followed by enter returns the same answer —
  /// nothing advances the ordinal in between (single engine thread).
  bool peekAdmit(const MethodRef& m) { return decide(slot(m), m.id); }

  /// Commit one entry of `m`: advances the per-method invocation ordinal
  /// and returns whether this invocation is instrumented. Counted even if
  /// the invocation later aborts — reconcileAborted() undoes those.
  bool enter(const MethodRef& m) {
    PerMethod& s = slot(m);
    const bool admit = decide(s, m.id);
    ++s.entered;
    if (admit) ++s.instrumented;
    return admit;
  }

  /// An uninstrumented invocation completed (normal return or Java
  /// exception unwind — the same paths that would have run onExit).
  void exitUnsampled(const MethodRef& m) { ++slot(m).unsampledExits; }

  /// Abort reconciliation, paired with Instrumenter::unwindAbortedFrames.
  /// Instrumented open frames close as truncated records and stay in the
  /// population; uninstrumented open frames never completed and have no
  /// record to truncate, so they are removed from the population count —
  /// a counter decrement, keeping the effective sampling rate honest.
  /// Idempotent.
  void reconcileAborted() {
    for (PerMethod& s : methods_) {
      const std::uint64_t openUnsampled =
          s.entered - s.instrumented - s.unsampledExits;
      s.entered -= openUnsampled;
      s.unsampledExits = s.entered - s.instrumented;
    }
  }

  /// Effective sampling rate of `m` so far: instrumented / entered
  /// invocations. 1.0 for a method the gate has never seen (nothing was
  /// dropped).
  double effectiveRate(const MethodRef& m) const {
    return effectiveRateById(m.id);
  }
  double effectiveRateById(std::uint32_t id) const {
    if (id >= methods_.size()) return 1.0;
    const PerMethod& s = methods_[id];
    if (s.entered == 0) return 1.0;
    return static_cast<double>(s.instrumented) /
           static_cast<double>(s.entered);
  }

  /// Population counts per method the gate has seen, in method-id order.
  /// The name is copied out (not a resolution-table pointer): stats
  /// typically outlive the run — and sometimes the Program — they came
  /// from (Profiler::tierStats after profile() returns).
  struct MethodStat {
    std::string method;             // "Class.method"
    std::uint64_t invocations = 0;  // every committed entry
    std::uint64_t instrumented = 0; // entries that ran the full hooks
  };
  std::vector<MethodStat> stats() const {
    std::vector<MethodStat> out;
    for (const PerMethod& s : methods_) {
      if (s.entered == 0 || s.name.empty()) continue;
      out.push_back({std::string(s.name), s.entered, s.instrumented});
    }
    return out;
  }

 private:
  struct PerMethod {
    std::string_view name;
    std::uint64_t entered = 0;         // invocation ordinal (committed)
    std::uint64_t instrumented = 0;
    std::uint64_t unsampledExits = 0;
    std::uint64_t phase = 0;           // sampled: which residue is measured
    bool phaseReady = false;
  };

  PerMethod& slot(const MethodRef& m) {
    if (m.id >= methods_.size()) methods_.resize(m.id + 1);
    PerMethod& s = methods_[m.id];
    if (s.name.empty()) s.name = m.qualifiedName;
    return s;
  }

  bool decide(PerMethod& s, std::uint32_t id) {
    if (spec_.tier == InstrTier::kFull) return true;
    // The measured residue is derived per method from the run seed, so
    // different methods sample different phases of their call pattern
    // (avoiding lockstep aliasing with loop structure) while staying a
    // pure function of (seed, method id, ordinal). The first invocation is
    // always instrumented: a method called fewer than sampleEvery times
    // (main, setup code) would otherwise likely contribute zero records and
    // its entire cost would vanish from the extrapolated attribution —
    // anchoring ordinal 0 bounds that error while hot methods still
    // converge to the 1/N rate.
    if (s.entered == 0) return true;
    if (!s.phaseReady) {
      s.phase = deriveSeed(seed_, id) % spec_.sampleEvery;
      s.phaseReady = true;
    }
    return (s.entered % spec_.sampleEvery) == s.phase;
  }

  TierSpec spec_;
  std::uint64_t seed_ = 0;
  std::vector<PerMethod> methods_;
};

}  // namespace jepo::jvm
