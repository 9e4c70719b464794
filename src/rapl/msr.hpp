// Model-specific register (MSR) access layer.
//
// JEPO's profiler reads Intel RAPL energy-status MSRs at method entry/exit.
// On the authors' testbed that is /dev/cpu/*/msr; here the same register
// interface is implemented by a simulated device (SimulatedMsrDevice) that a
// deterministic machine model deposits energy into. Consumers (RaplReader,
// the profiler, the perf runner) are written against the abstract MsrDevice
// so a real /dev/cpu backend could be slotted in unchanged on Intel hardware.
//
// Failure model: read() reports faults by throwing MsrError, which carries
// the register address and a transient/permanent kind — the distinction a
// real msr driver exposes as EAGAIN (retry me) vs EIO/ENOENT (this register
// does not exist on this SKU). Callers branch on MsrError::transient()
// instead of string-matching; the fault-injection decorator
// (fault::FaultyMsrDevice) produces both kinds on demand.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "support/error.hpp"

namespace jepo::rapl {

/// Architectural MSR addresses used by RAPL (Intel SDM vol. 4).
enum Msr : std::uint32_t {
  kMsrRaplPowerUnit = 0x606,
  kMsrPkgEnergyStatus = 0x611,
  kMsrPp0EnergyStatus = 0x639,  // "core" energy in the paper's terminology
  kMsrPp1EnergyStatus = 0x641,  // uncore/graphics
  kMsrDramEnergyStatus = 0x619,
};

/// "0x611"-style register formatting for diagnostics.
std::string msrName(std::uint32_t msr);

/// A failed MSR read. `transient()` faults (the driver's EAGAIN: an SMI or
/// concurrent access interfered) are expected to succeed on retry;
/// permanent faults (EIO: the register is not implemented on this SKU) will
/// fail forever and callers should degrade instead of retrying.
class MsrError : public Error {
 public:
  enum class Kind { kTransient, kPermanent };

  MsrError(std::uint32_t msr, Kind kind, const std::string& what)
      : Error(what), msr_(msr), kind_(kind) {}

  std::uint32_t msr() const noexcept { return msr_; }
  Kind kind() const noexcept { return kind_; }
  bool transient() const noexcept { return kind_ == Kind::kTransient; }

 private:
  std::uint32_t msr_;
  Kind kind_;
};

/// Read-only register device. Reads of unknown addresses throw a permanent
/// MsrError, mirroring the EIO a real msr driver returns for unimplemented
/// registers.
class MsrDevice {
 public:
  virtual ~MsrDevice() = default;
  virtual std::uint64_t read(std::uint32_t msr) const = 0;
};

/// In-memory register file; the machine model writes, readers read. It
/// holds exactly the five architectural RAPL registers, each with a
/// presence bit: writing any other address is a programming error, and
/// reading an absent or unknown register throws the permanent MsrError.
class SimulatedMsrDevice final : public MsrDevice {
 public:
  std::uint64_t read(std::uint32_t msr) const override {
    const int i = slot(msr);
    if (i < 0 || (present_ & (1u << i)) == 0) {
      throw MsrError(msr, MsrError::Kind::kPermanent,
                     "msr read: unimplemented register " + msrName(msr));
    }
    return regs_[static_cast<std::size_t>(i)];
  }

  void write(std::uint32_t msr, std::uint64_t value) {
    const int i = slot(msr);
    JEPO_REQUIRE(i >= 0, "msr write: not a RAPL register " + msrName(msr));
    regs_[static_cast<std::size_t>(i)] = value;
    present_ |= 1u << i;
  }

  bool has(std::uint32_t msr) const {
    const int i = slot(msr);
    return i >= 0 && (present_ & (1u << i)) != 0;
  }

  /// The low 32 bits of PKG, PP0 and DRAM, in that order, in one call:
  /// exactly what three read()s would return. Requires all three to be
  /// present (registers are never removed once written).
  std::array<std::uint32_t, 3> energyStatus() const noexcept {
    return {static_cast<std::uint32_t>(regs_[kPkg]),
            static_cast<std::uint32_t>(regs_[kPp0]),
            static_cast<std::uint32_t>(regs_[kDram])};
  }

 private:
  enum Slot : std::size_t { kPowerUnit, kPkg, kPp0, kPp1, kDram, kSlots };

  static int slot(std::uint32_t msr) noexcept {
    switch (msr) {
      case kMsrRaplPowerUnit: return kPowerUnit;
      case kMsrPkgEnergyStatus: return kPkg;
      case kMsrPp0EnergyStatus: return kPp0;
      case kMsrPp1EnergyStatus: return kPp1;
      case kMsrDramEnergyStatus: return kDram;
    }
    return -1;
  }

  std::array<std::uint64_t, kSlots> regs_{};
  unsigned present_ = 0;
};

}  // namespace jepo::rapl
