// RAPL domains, the simulated package (energy depositor) and the reader
// (wraparound-correct counter diffing) used by the profiler and perf runner.
//
// Robustness: RaplReader absorbs transient MSR read errors with a bounded,
// deterministic retry loop (no wall clock — the backoff schedule is a pure
// function of the attempt index, so results are bit-identical at any thread
// count), and EnergyCounter classifies each interval with a
// MeasurementQuality instead of silently returning garbage when the
// documented at-most-one-wrap assumption is violated (stale repeats,
// backwards glitches, implausible jumps). Domains that are permanently
// absent (no DRAM/PP1 on many SKUs) degrade to a 0 J / kDegraded reading
// rather than throwing.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "rapl/msr.hpp"
#include "rapl/power_unit.hpp"
#include "rapl/quality.hpp"

namespace jepo::rapl {

enum class Domain : int {
  kPackage = 0,
  kCore = 1,  // PP0
  kUncore = 2,  // PP1
  kDram = 3,
};
inline constexpr int kDomainCount = 4;
inline constexpr std::array<Domain, kDomainCount> kAllDomains = {
    Domain::kPackage, Domain::kCore, Domain::kUncore, Domain::kDram};

std::string_view domainName(Domain d) noexcept;
std::uint32_t domainMsr(Domain d) noexcept;

/// The simulated RAPL package: accumulates joules per domain (as exact
/// doubles internally) and exposes them through energy-status MSRs with the
/// real 32-bit wrapping raw-count semantics.
class SimulatedRaplPackage {
 public:
  explicit SimulatedRaplPackage(PowerUnit unit = {});

  const MsrDevice& device() const noexcept { return dev_; }
  const PowerUnit& unit() const noexcept { return unit_; }

  /// Deposit energy into a domain (machine model callback). Package energy
  /// strictly contains core energy on real hardware; callers deposit into
  /// each domain explicitly and tests enforce the containment invariant.
  void deposit(Domain d, double joules);

  /// Total joules deposited since construction (no wraparound) — used by
  /// tests to validate reader arithmetic against ground truth.
  double totalJoules(Domain d) const noexcept;

 private:
  void publish(Domain d);

  PowerUnit unit_;
  // The quantum is a power of two, so multiplying by its exact reciprocal
  // quantizes bit-identically to dividing by it.
  double quantum_;
  double countsPerJoule_;
  SimulatedMsrDevice dev_;
  std::array<double, kDomainCount> joules_{};     // ground truth
  std::array<double, kDomainCount> residual_{};   // sub-quantum remainder
  std::array<std::uint64_t, kDomainCount> rawCount_{};  // unwrapped count
};

/// How many attempts a retrying read makes before a transient fault is
/// treated as fatal for this read. The backoff between attempts is
/// deterministic (2^attempt delay units, recorded in the obs registry; on
/// real hardware those units would be a usleep) — no wall clock enters the
/// measurement path, which is what keeps fault-injected runs bit-identical
/// at any thread count.
struct RetryPolicy {
  int maxAttempts = 4;
};

/// Result of a retrying raw read: the value plus how many transient
/// failures were absorbed before it succeeded.
struct RawSample {
  std::uint32_t value = 0;
  int retries = 0;
};

/// The domains a method probe measures, in the order it reads them.
inline constexpr std::array<Domain, 3> kProbeDomains = {
    Domain::kPackage, Domain::kCore, Domain::kDram};

/// One method probe's read of the kProbeDomains counters. A domain whose
/// read failed has no value; its `fail` says why: kDegraded (the register
/// is absent) or kInvalid (the retry budget ran out). kOk means it was read.
struct ProbeSample {
  std::array<std::uint32_t, kProbeDomains.size()> raw{};
  std::array<MeasurementQuality, kProbeDomains.size()> fail{};
  int retries = 0;  // transient faults absorbed by this probe's reads
};

/// Reads energy-status registers and converts to joules.
class RaplReader {
 public:
  explicit RaplReader(const MsrDevice& dev, RetryPolicy retry = {});

  const PowerUnit& unit() const noexcept { return unit_; }
  const RetryPolicy& retryPolicy() const noexcept { return retry_; }

  /// How many transient faults the power-unit read absorbed at
  /// construction.
  int unitReadRetries() const noexcept { return unitRetries_; }

  /// Raw 32-bit counter value for a domain. Single attempt: transient
  /// faults propagate as MsrError (legacy path; hardened callers use
  /// readRawRetrying).
  std::uint32_t readRaw(Domain d) const;

  /// Raw counter read with bounded retry: transient MsrErrors are retried
  /// up to retryPolicy().maxAttempts times, then rethrown; permanent
  /// errors are rethrown immediately.
  RawSample readRawRetrying(Domain d) const;

  /// Does this package implement the domain? Transient faults during the
  /// probe are retried; only a permanent MsrError means "absent".
  /// A probe whose retries are exhausted reports the domain as present
  /// (the register exists, this read just failed).
  bool domainAvailable(Domain d) const;

  /// Joules represented by the counter at this instant (wraps ~ every
  /// 65536 J at ESU=16; use EnergyCounter for intervals).
  double readJoules(Domain d) const;

  /// Read the kProbeDomains counters. A device that serves all three
  /// infallibly (a register file holding them) answers in one call; any
  /// other is read by readRawRetrying, domain by domain, so every
  /// register's read ordinals and outcomes are those of that sequence.
  /// With `arm`, the entry probe of the same interval, a domain whose arm
  /// read failed is not read again and keeps the arm's `fail`.
  ProbeSample readProbe(const ProbeSample* arm = nullptr) const;

 private:
  std::uint64_t readMsrRetrying(std::uint32_t msr, int* retries) const;

  const MsrDevice* dev_;
  // Set when dev_ can serve readProbe in one call.
  const SimulatedMsrDevice* registerFile_ = nullptr;
  RetryPolicy retry_;
  int unitRetries_ = 0;
  PowerUnit unit_;
};

/// Interval measurement over one domain with wraparound-correct diffing —
/// the arithmetic JEPO's injected bytecode has to get right. Handles any
/// number of wraps' worth of energy being impossible to distinguish; like
/// real tools it assumes at most one wrap per interval (callers sample at
/// method granularity, far below the ~minutes-scale wrap period).
///
/// measure() is the hardened form: instead of trusting the raw delta it
/// classifies the interval (see MeasurementQuality) using three
/// deterministic heuristics on the 32-bit delta —
///   - delta >= kBackwardsThreshold: a small backwards glitch shows up as
///     a near-full-range positive delta; no sane sampling loop measures
///     >61,440 J in one interval, so this is classified kInvalid
///   - delta >= kSuspectThreshold: the interval consumed more than half
///     the counter range, so a second unseen wrap cannot be ruled out
///     (kDegraded); if the implied joules also exceed elapsed * maxWatts
///     the value is physically impossible (a forced multi-wrap /
///     firmware jump) and the interval is kInvalid
///   - delta == 0 with minExpectedJoules > 0: the counter did not move
///     over an interval where idle power alone must have deposited counts
///     — a stale repeat, kInvalid
/// plus the domain-availability ladder: a permanently absent register
/// reads as {0 J, kDegraded} and an exhausted retry budget as
/// {0 J, kInvalid}.
class EnergyCounter {
 public:
  /// Generous ceiling on sustained package power used by the plausibility
  /// check; only deltas >= kSuspectThreshold consult it, so a loose bound
  /// cannot misclassify ordinary intervals.
  static constexpr double kDefaultMaxWatts = 2048.0;

  static constexpr std::uint32_t kSuspectThreshold = 0x80000000u;
  static constexpr std::uint32_t kBackwardsThreshold = 0xF0000000u;

  EnergyCounter(const RaplReader& reader, Domain domain);

  /// False when the domain's register is permanently absent (measure()
  /// will report {0, kDegraded}) or the arming read exhausted its retry
  /// budget ({0, kInvalid}).
  bool available() const noexcept { return armFail_ == ArmFail::kNone; }

  /// Re-arm at the current counter value. Never throws: arming failures
  /// are remembered and surface as the quality of the next measure().
  void start();

  /// Joules accumulated since start(), tolerating one 32-bit wrap. Legacy
  /// unchecked path: no quality classification, single-attempt reads.
  double elapsedJoules() const;

  /// The hardened interval read. `elapsedSeconds` (< 0 = unknown) enables
  /// the physical-plausibility check; `minExpectedJoules` (<= 0 = unknown,
  /// typically idle watts × elapsed) enables stale detection.
  EnergyInterval measure(double elapsedSeconds = -1.0,
                         double maxWatts = kDefaultMaxWatts,
                         double minExpectedJoules = -1.0) const;

 private:
  enum class ArmFail { kNone, kTransient, kPermanent };

  const RaplReader* reader_;
  Domain domain_;
  std::uint32_t startRaw_ = 0;
  int startRetries_ = 0;
  ArmFail armFail_ = ArmFail::kNone;
};

}  // namespace jepo::rapl
