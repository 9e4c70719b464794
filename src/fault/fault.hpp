// Deterministic fault injection for the RAPL/MSR substrate.
//
// On real edge hardware the measurement pipeline's weakest link is the MSR
// read itself: /dev/cpu/*/msr returns transient EAGAIN/EIO under SMI and
// concurrent-access pressure, whole domains are missing on many SKUs (no
// DRAM/PP1), and energy-status counters occasionally repeat a stale sample,
// glitch backwards, or jump implausibly far forward. This module reproduces
// those failure modes as a decorator over any MsrDevice so every consumer
// (RaplReader, EnergyCounter, PerfRunner, the instrumenter, the Table IV
// matrix) can be driven through them in tests and chaos benches.
//
// Determinism contract: a FaultPlan's decision for a read is a pure
// function of (spec.seed, register, per-device read ordinal) — no wall
// clock, no shared state. Each measurement builds its own FaultyMsrDevice
// whose plan seed is derived from the measurement's stream identity
// (deriveSeed), so fault-injected experiment matrices remain bit-identical
// at any thread count, exactly like the fault-free ones.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rapl/msr.hpp"

namespace jepo::fault {

enum class FaultKind {
  kNone,
  kTransient,  // read throws a transient MsrError for `burst` attempts
  kStale,      // read repeats the last value returned for this register
  kBackwards,  // read returns slightly less than the last value returned
  kJump,       // read returns the true value + an implausible jump
};

/// The knobs of a fault plan. Probabilities are per read attempt and
/// independent per register; value faults (stale/backwards/jump) apply
/// only to energy-status registers — the counters that actually glitch on
/// real hardware — while transient errors and unavailability can hit any
/// register, including MSR_RAPL_POWER_UNIT.
struct FaultSpec {
  std::uint64_t seed = 1;
  double transientProb = 0.0;
  int transientBurst = 1;  // consecutive failing attempts per event
  double staleProb = 0.0;
  double backwardsProb = 0.0;
  double jumpProb = 0.0;
  std::vector<std::uint32_t> unavailable;  // permanently absent registers

  /// Does this spec inject anything at all? An inactive spec lets callers
  /// skip building the decorator entirely (the <1% no-fault guarantee).
  bool active() const noexcept;

  /// "transient-prob=0.2,transient-burst=2,..." — the canonical spec
  /// string, parseable by parseFaultPlan.
  std::string describe() const;
};

/// Parse "--fault-plan=" syntax: a preset name optionally followed by
/// ':' and comma-separated key=value overrides.
///
///   none | transient | transient-heavy | stale | glitch | chaos |
///   exhausting | no-dram | no-core | no-uncore | no-package
///
/// overrides: seed=<n> transient-prob=<p> transient-burst=<n>
///            stale-prob=<p> backwards-prob=<p> jump-prob=<p>
///            drop-domain=<package|core|uncore|dram>  (repeatable)
///
/// e.g. "transient:seed=9,transient-prob=0.5". Throws Error on unknown
/// names or keys.
FaultSpec parseFaultPlan(const std::string& text);

struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  int burst = 1;                 // kTransient: failing attempts
  std::uint32_t magnitude = 0;   // kBackwards/kJump: raw-count offset
};

/// The schedule: decide(msr, ordinal) is pure, so two devices built from
/// the same spec replay identical fault sequences.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(FaultSpec spec);

  const FaultSpec& spec() const noexcept { return spec_; }
  bool unavailable(std::uint32_t msr) const noexcept;
  FaultDecision decide(std::uint32_t msr, std::uint64_t ordinal) const;

 private:
  FaultSpec spec_;
};

/// Chaos decorator over any MsrDevice. Not thread-safe by design: each
/// measurement owns its device, mirroring how each owns its SimMachine.
class FaultyMsrDevice final : public rapl::MsrDevice {
 public:
  FaultyMsrDevice(const rapl::MsrDevice& inner, FaultPlan plan);

  std::uint64_t read(std::uint32_t msr) const override;

  /// Fault events injected by this device so far (all kinds).
  std::uint64_t injected() const noexcept { return injected_; }
  /// Read attempts seen (the plan-ordinal counter).
  std::uint64_t reads() const noexcept { return ordinal_; }

 private:
  const rapl::MsrDevice* inner_;
  FaultPlan plan_;
  mutable std::uint64_t ordinal_ = 0;
  mutable std::uint64_t injected_ = 0;
  mutable std::unordered_map<std::uint32_t, std::uint64_t> last_;
  mutable std::unordered_map<std::uint32_t, int> burst_;
};

}  // namespace jepo::fault
