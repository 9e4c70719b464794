#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>

#include "rapl/rapl.hpp"

namespace jepo::rapl {
namespace {

TEST(PowerUnit, EncodeDecodeRoundTrip) {
  PowerUnit u;
  u.powerUnitBits = 3;
  u.energyUnitBits = 14;
  u.timeUnitBits = 10;
  const PowerUnit d = PowerUnit::decode(u.encode());
  EXPECT_EQ(d.powerUnitBits, 3u);
  EXPECT_EQ(d.energyUnitBits, 14u);
  EXPECT_EQ(d.timeUnitBits, 10u);
}

TEST(PowerUnit, DefaultQuantaMatchIntelClientParts) {
  PowerUnit u;  // ESU = 16
  EXPECT_DOUBLE_EQ(u.jouleQuantum(), 1.0 / 65536.0);
  EXPECT_DOUBLE_EQ(u.wattQuantum(), 1.0 / 8.0);
}

TEST(Msr, UnimplementedRegisterThrows) {
  SimulatedMsrDevice dev;
  EXPECT_THROW(dev.read(0x611), Error);
  dev.write(0x611, 5);
  EXPECT_EQ(dev.read(0x611), 5u);
  EXPECT_TRUE(dev.has(0x611));
  EXPECT_FALSE(dev.has(0x639));
}

TEST(Msr, RegisterFileHoldsOnlyTheRaplRegisters) {
  SimulatedMsrDevice dev;
  // An unknown address reads as the permanent fault it is on hardware...
  try {
    dev.read(0x10);  // IA32_TIME_STAMP_COUNTER: an MSR, just not RAPL's
    FAIL() << "expected MsrError";
  } catch (const MsrError& e) {
    EXPECT_EQ(e.msr(), 0x10u);
    EXPECT_EQ(e.kind(), MsrError::Kind::kPermanent);
  }
  EXPECT_FALSE(dev.has(0x10));
  // ...and writing one is a bug in the machine model, not a device state.
  EXPECT_THROW(dev.write(0x10, 1), PreconditionError);
  for (const std::uint32_t msr :
       {kMsrRaplPowerUnit, kMsrPkgEnergyStatus, kMsrPp0EnergyStatus,
        kMsrPp1EnergyStatus, kMsrDramEnergyStatus}) {
    dev.write(msr, msr + 1);
  }
  for (const std::uint32_t msr :
       {kMsrRaplPowerUnit, kMsrPkgEnergyStatus, kMsrPp0EnergyStatus,
        kMsrPp1EnergyStatus, kMsrDramEnergyStatus}) {
    EXPECT_EQ(dev.read(msr), msr + 1u) << msrName(msr);
  }
}

TEST(Rapl, PackageImplementsAllDomains) {
  SimulatedRaplPackage pkg;
  RaplReader reader(pkg.device());
  for (Domain d : kAllDomains) {
    EXPECT_EQ(reader.readRaw(d), 0u) << domainName(d);
  }
}

TEST(Rapl, DepositsAreVisibleThroughMsrReads) {
  SimulatedRaplPackage pkg;
  RaplReader reader(pkg.device());
  pkg.deposit(Domain::kPackage, 1.0);
  EXPECT_NEAR(reader.readJoules(Domain::kPackage), 1.0, 1e-4);
  // other domains untouched
  EXPECT_EQ(reader.readRaw(Domain::kCore), 0u);
}

TEST(Rapl, SubQuantumDepositsAccumulateWithoutLoss) {
  SimulatedRaplPackage pkg;
  RaplReader reader(pkg.device());
  // 10,000 deposits of 1/10 quantum each => exactly 1,000 raw counts.
  const double dep = pkg.unit().jouleQuantum() / 10.0;
  for (int i = 0; i < 10000; ++i) pkg.deposit(Domain::kCore, dep);
  // One count of slack: the residual accumulator is a double, so the last
  // carry may land one deposit later.
  EXPECT_NEAR(static_cast<double>(reader.readRaw(Domain::kCore)), 1000.0, 1.0);
  EXPECT_NEAR(pkg.totalJoules(Domain::kCore), 10000 * dep, 1e-12);
}

TEST(Rapl, NegativeDepositRejected) {
  SimulatedRaplPackage pkg;
  EXPECT_THROW(pkg.deposit(Domain::kPackage, -0.1), PreconditionError);
}

TEST(Rapl, CounterWrapsAt32Bits) {
  SimulatedRaplPackage pkg;
  RaplReader reader(pkg.device());
  // ESU=16: the counter wraps every 2^32 / 2^16 = 65536 J.
  const double wrapJoules = 65536.0;
  pkg.deposit(Domain::kPackage, wrapJoules + 3.0);
  EXPECT_NEAR(reader.readJoules(Domain::kPackage), 3.0, 1e-4);
  // Ground truth is unwrapped.
  EXPECT_NEAR(pkg.totalJoules(Domain::kPackage), wrapJoules + 3.0, 1e-9);
}

TEST(EnergyCounter, MeasuresIntervals) {
  SimulatedRaplPackage pkg;
  RaplReader reader(pkg.device());
  pkg.deposit(Domain::kPackage, 10.0);
  EnergyCounter counter(reader, Domain::kPackage);
  pkg.deposit(Domain::kPackage, 2.5);
  EXPECT_NEAR(counter.elapsedJoules(), 2.5, 1e-4);
  counter.start();
  EXPECT_NEAR(counter.elapsedJoules(), 0.0, 1e-9);
}

TEST(EnergyCounter, SurvivesOneWraparound) {
  SimulatedRaplPackage pkg;
  RaplReader reader(pkg.device());
  // Park the counter just below the wrap point, then measure across it.
  pkg.deposit(Domain::kPackage, 65536.0 - 1.0);
  EnergyCounter counter(reader, Domain::kPackage);
  pkg.deposit(Domain::kPackage, 4.0);  // crosses the wrap
  EXPECT_NEAR(counter.elapsedJoules(), 4.0, 1e-4);
}

TEST(EnergyCounter, WrapExactlyToSameRawReadsZero) {
  // Fundamental RAPL ambiguity: a full wrap's worth of energy is
  // indistinguishable from zero. Document the contract.
  SimulatedRaplPackage pkg;
  RaplReader reader(pkg.device());
  EnergyCounter counter(reader, Domain::kPackage);
  pkg.deposit(Domain::kPackage, 65536.0);
  EXPECT_NEAR(counter.elapsedJoules(), 0.0, 1e-4);
}

TEST(EnergyCounter, MultipleWrapsUnderReportByWholeWraps) {
  // The one-wrap contract, from the other side: unsigned 32-bit subtraction
  // recovers the delta modulo one wrap period (65536 J at ESU=16). Two or
  // more wraps between reads are unobservable — each whole extra wrap is
  // silently dropped, so the counter under-reports by k*65536 J. Real RAPL
  // sampling loops must read faster than one wrap period; so must any
  // workload between our start()/elapsedJoules() pairs.
  SimulatedRaplPackage pkg;
  RaplReader reader(pkg.device());
  EnergyCounter counter(reader, Domain::kPackage);
  pkg.deposit(Domain::kPackage, 2.0 * 65536.0 + 5.0);  // two full wraps + 5 J
  EXPECT_NEAR(counter.elapsedJoules(), 5.0, 1e-4);     // the 131072 J vanish
  // Ground truth keeps the unwrapped total — the loss is purely a property
  // of the 32-bit MSR window, not of the simulation.
  EXPECT_NEAR(pkg.totalJoules(Domain::kPackage), 2.0 * 65536.0 + 5.0, 1e-9);

  // Same story straddling an awkward boundary: 3 wraps minus a sliver.
  counter.start();
  pkg.deposit(Domain::kPackage, 3.0 * 65536.0 - 0.5);
  EXPECT_NEAR(counter.elapsedJoules(), 65536.0 - 0.5, 1e-3);
}

TEST(Msr, UnimplementedRegisterThrowsTypedPermanentError) {
  SimulatedMsrDevice dev;
  try {
    dev.read(kMsrPkgEnergyStatus);
    FAIL() << "expected MsrError";
  } catch (const MsrError& e) {
    EXPECT_EQ(e.msr(), kMsrPkgEnergyStatus);
    EXPECT_EQ(e.kind(), MsrError::Kind::kPermanent);
    EXPECT_FALSE(e.transient());
    // Carries the register address in the message for diagnostics.
    EXPECT_NE(std::string(e.what()).find("0x611"), std::string::npos);
  }
  // MsrError IS-A Error: existing catch sites keep working unchanged.
  EXPECT_THROW(dev.read(0x611), Error);
}

/// A device that fails transiently for the first `failures` reads of each
/// register, then delegates — the minimal flaky-driver model for testing
/// the retry loop without the fault layer.
class FlakyDevice final : public MsrDevice {
 public:
  FlakyDevice(const MsrDevice& inner, int failures)
      : inner_(&inner), failures_(failures) {}

  std::uint64_t read(std::uint32_t msr) const override {
    if (count_[msr]++ < failures_) {
      throw MsrError(msr, MsrError::Kind::kTransient, "flaky");
    }
    return inner_->read(msr);
  }

 private:
  const MsrDevice* inner_;
  int failures_;
  mutable std::unordered_map<std::uint32_t, int> count_;
};

TEST(RaplReader, RetriesTransientErrorsWithinBudget) {
  SimulatedRaplPackage pkg;
  pkg.deposit(Domain::kPackage, 3.0);
  FlakyDevice flaky(pkg.device(), 2);  // 2 failures < 4 attempts
  RaplReader reader(flaky);
  EXPECT_EQ(reader.unitReadRetries(), 2);
  const RawSample s = reader.readRawRetrying(Domain::kPackage);
  EXPECT_EQ(s.retries, 2);
  EXPECT_NEAR(static_cast<double>(s.value) * reader.unit().jouleQuantum(),
              3.0, 1e-4);
}

TEST(RaplReader, ExhaustedTransientBudgetRethrows) {
  SimulatedRaplPackage pkg;
  FlakyDevice flaky(pkg.device(), 99);
  RetryPolicy policy;
  policy.maxAttempts = 3;
  EXPECT_THROW(RaplReader(flaky, policy), MsrError);
}

TEST(RaplReader, DomainAvailabilityDistinguishesPermanentFromTransient) {
  SimulatedMsrDevice dev;
  PowerUnit u;
  dev.write(kMsrRaplPowerUnit, u.encode());
  dev.write(kMsrPkgEnergyStatus, 0);  // package present, dram absent
  RaplReader reader(dev);
  EXPECT_TRUE(reader.domainAvailable(Domain::kPackage));
  EXPECT_FALSE(reader.domainAvailable(Domain::kDram));
}

TEST(RaplReader, OneCallProbeEqualsThreeReadsAcrossAWrap) {
  SimulatedRaplPackage pkg;
  const RaplReader reader(pkg.device());
  const auto expectThreeReads = [&](const ProbeSample& s) {
    for (std::size_t i = 0; i < kProbeDomains.size(); ++i) {
      EXPECT_EQ(s.raw[i], static_cast<std::uint32_t>(pkg.device().read(
                              domainMsr(kProbeDomains[i]))))
          << domainName(kProbeDomains[i]);
      EXPECT_EQ(s.fail[i], MeasurementQuality::kOk);
    }
    EXPECT_EQ(s.retries, 0);
  };
  // Park every probed counter a few joules below the 32-bit wrap.
  pkg.deposit(Domain::kPackage, 65536.0 - 2.0);
  pkg.deposit(Domain::kCore, 65536.0 - 1.0);
  pkg.deposit(Domain::kDram, 65536.0 - 0.5);
  const ProbeSample arm = reader.readProbe();
  expectThreeReads(arm);
  for (Domain d : kProbeDomains) pkg.deposit(d, 3.0);  // all three wrap
  const ProbeSample end = reader.readProbe(&arm);
  expectThreeReads(end);
  for (std::size_t i = 0; i < kProbeDomains.size(); ++i) {
    EXPECT_LT(end.raw[i], arm.raw[i]) << "counter did not wrap";
    EXPECT_NEAR(static_cast<double>(end.raw[i] - arm.raw[i]) *
                    reader.unit().jouleQuantum(),
                3.0, 1e-4);
  }
}

TEST(RaplReader, ProbeWithoutDramDegradesOnlyThatColumn) {
  SimulatedMsrDevice dev;
  dev.write(kMsrRaplPowerUnit, PowerUnit{}.encode());
  dev.write(kMsrPkgEnergyStatus, 100);
  dev.write(kMsrPp0EnergyStatus, 40);  // no DRAM register on this "SKU"
  const RaplReader reader(dev);
  const ProbeSample arm = reader.readProbe();
  EXPECT_EQ(arm.raw[0], 100u);
  EXPECT_EQ(arm.raw[1], 40u);
  EXPECT_EQ(arm.fail[0], MeasurementQuality::kOk);
  EXPECT_EQ(arm.fail[1], MeasurementQuality::kOk);
  EXPECT_EQ(arm.fail[2], MeasurementQuality::kDegraded);

  dev.write(kMsrPkgEnergyStatus, 160);
  dev.write(kMsrPp0EnergyStatus, 70);
  const ProbeSample end = reader.readProbe(&arm);
  EXPECT_EQ(end.raw[0] - arm.raw[0], 60u);
  EXPECT_EQ(end.raw[1] - arm.raw[1], 30u);
  EXPECT_EQ(end.fail[0], MeasurementQuality::kOk);
  EXPECT_EQ(end.fail[1], MeasurementQuality::kOk);
  EXPECT_EQ(end.fail[2], MeasurementQuality::kDegraded);
}

TEST(RaplReader, ProbeThroughAFlakyDeviceRetriesEachRegister) {
  SimulatedRaplPackage pkg;
  pkg.deposit(Domain::kPackage, 3.0);
  pkg.deposit(Domain::kCore, 2.0);
  pkg.deposit(Domain::kDram, 1.0);
  const FlakyDevice flaky(pkg.device(), 2);  // 2 failures < 4 attempts
  const RaplReader reader(flaky);
  const ProbeSample s = reader.readProbe();
  EXPECT_EQ(s.retries, 6);
  for (std::size_t i = 0; i < kProbeDomains.size(); ++i) {
    EXPECT_EQ(s.raw[i], RaplReader(pkg.device()).readRaw(kProbeDomains[i]));
    EXPECT_EQ(s.fail[i], MeasurementQuality::kOk);
  }
}

TEST(Rapl, DepositQuantizesExactlyLikeDividingByTheQuantum) {
  // deposit() multiplies by 2^ESU; the quantum is a power of two, so that
  // is bit-identical to dividing by it. Replay the division on the side.
  for (const unsigned esu : {14u, 16u}) {
    PowerUnit u;
    u.energyUnitBits = esu;
    SimulatedRaplPackage pkg(u);
    const RaplReader reader(pkg.device());
    const double quantum = u.jouleQuantum();
    double residual = 0.0;
    std::uint64_t raw = 0;
    double joules = 1e-9;
    for (int i = 0; i < 5000; ++i) {
      joules = joules * 1.37 > 5e-3 ? 1e-9 * (i % 7 + 1) : joules * 1.37;
      pkg.deposit(Domain::kCore, joules);
      residual += joules;
      const double counts = std::floor(residual / quantum);
      if (counts > 0.0) {
        raw += static_cast<std::uint64_t>(counts);
        residual -= counts * quantum;
      }
      ASSERT_EQ(reader.readRaw(Domain::kCore),
                static_cast<std::uint32_t>(raw))
          << "esu " << esu << " deposit " << i;
    }
  }
}

TEST(EnergyCounter, CleanIntervalIsOkQuality) {
  SimulatedRaplPackage pkg;
  RaplReader reader(pkg.device());
  EnergyCounter counter(reader, Domain::kPackage);
  pkg.deposit(Domain::kPackage, 2.0);
  const EnergyInterval iv = counter.measure(1.0);
  EXPECT_EQ(iv.quality, MeasurementQuality::kOk);
  EXPECT_EQ(iv.retries, 0);
  EXPECT_NEAR(iv.joules, 2.0, 1e-4);
}

TEST(EnergyCounter, RetriedIntervalKeepsExactValue) {
  SimulatedRaplPackage pkg;
  pkg.deposit(Domain::kPackage, 1.0);
  FlakyDevice flaky(pkg.device(), 1);
  RaplReader reader(flaky);
  EnergyCounter counter(reader, Domain::kPackage);
  pkg.deposit(Domain::kPackage, 2.0);
  const EnergyInterval iv = counter.measure(1.0);
  EXPECT_EQ(iv.quality, MeasurementQuality::kRetried);
  EXPECT_GT(iv.retries, 0);
  // The device state never changed between attempts: the value is exact.
  EXPECT_NEAR(iv.joules, 2.0, 1e-4);
}

TEST(EnergyCounter, BackwardsGlitchIsInvalidNotHugePositive) {
  SimulatedMsrDevice dev;
  PowerUnit u;
  dev.write(kMsrRaplPowerUnit, u.encode());
  dev.write(kMsrPkgEnergyStatus, 1000);
  RaplReader reader(dev);
  EnergyCounter counter(reader, Domain::kPackage);
  dev.write(kMsrPkgEnergyStatus, 990);  // counter stepped backwards
  const EnergyInterval iv = counter.measure(1.0);
  // The old elapsedJoules() path reads this as ~65536 J of garbage.
  EXPECT_NEAR(counter.elapsedJoules(), 65536.0, 1.0);
  EXPECT_EQ(iv.quality, MeasurementQuality::kInvalid);
  EXPECT_EQ(iv.joules, 0.0);
}

TEST(EnergyCounter, ImplausibleJumpIsInvalid) {
  SimulatedMsrDevice dev;
  PowerUnit u;
  dev.write(kMsrRaplPowerUnit, u.encode());
  dev.write(kMsrPkgEnergyStatus, 0);
  RaplReader reader(dev);
  EnergyCounter counter(reader, Domain::kPackage);
  // +0x90000000 counts = ~36,864 J in one 1-second interval: physically
  // impossible (the multi-wrap signature the fault plan forces).
  dev.write(kMsrPkgEnergyStatus, 0x90000000u);
  const EnergyInterval iv = counter.measure(1.0);
  EXPECT_EQ(iv.quality, MeasurementQuality::kInvalid);
  EXPECT_EQ(iv.joules, 0.0);
}

TEST(EnergyCounter, HalfRangeIntervalWithoutTimingIsDegradedNotInvalid) {
  SimulatedMsrDevice dev;
  PowerUnit u;
  dev.write(kMsrRaplPowerUnit, u.encode());
  dev.write(kMsrPkgEnergyStatus, 0);
  RaplReader reader(dev);
  EnergyCounter counter(reader, Domain::kPackage);
  dev.write(kMsrPkgEnergyStatus, 0x90000000u);
  // Without elapsedSeconds the plausibility check cannot run; the interval
  // is kept but tagged: a second unseen wrap cannot be ruled out.
  const EnergyInterval iv = counter.measure();
  EXPECT_EQ(iv.quality, MeasurementQuality::kDegraded);
  EXPECT_GT(iv.joules, 0.0);
}

TEST(EnergyCounter, StaleCounterIsInvalidWhenEnergyWasExpected) {
  SimulatedMsrDevice dev;
  PowerUnit u;
  dev.write(kMsrRaplPowerUnit, u.encode());
  dev.write(kMsrPkgEnergyStatus, 500);
  RaplReader reader(dev);
  EnergyCounter counter(reader, Domain::kPackage);
  // Register never moves; a 1 s interval at >0 idle watts must deposit.
  const EnergyInterval iv =
      counter.measure(1.0, EnergyCounter::kDefaultMaxWatts,
                      /*minExpectedJoules=*/0.5);
  EXPECT_EQ(iv.quality, MeasurementQuality::kInvalid);

  // Without the floor a zero delta is a legitimate tiny interval.
  const EnergyInterval ok = counter.measure(1.0);
  EXPECT_EQ(ok.quality, MeasurementQuality::kOk);
  EXPECT_EQ(ok.joules, 0.0);
}

TEST(EnergyCounter, AbsentDomainDegradesInsteadOfThrowing) {
  SimulatedMsrDevice dev;
  PowerUnit u;
  dev.write(kMsrRaplPowerUnit, u.encode());
  dev.write(kMsrPkgEnergyStatus, 0);  // no dram register on this "SKU"
  RaplReader reader(dev);
  EnergyCounter counter(reader, Domain::kDram);
  EXPECT_FALSE(counter.available());
  const EnergyInterval iv = counter.measure(1.0);
  EXPECT_EQ(iv.quality, MeasurementQuality::kDegraded);
  EXPECT_EQ(iv.joules, 0.0);
}

TEST(Quality, WorstIsMaxAndNamesAreStable) {
  EXPECT_EQ(worst(MeasurementQuality::kOk, MeasurementQuality::kRetried),
            MeasurementQuality::kRetried);
  EXPECT_EQ(worst(MeasurementQuality::kInvalid, MeasurementQuality::kOk),
            MeasurementQuality::kInvalid);
  EXPECT_EQ(qualityName(MeasurementQuality::kOk), "ok");
  EXPECT_EQ(qualityName(MeasurementQuality::kRetried), "retried");
  EXPECT_EQ(qualityName(MeasurementQuality::kDegraded), "degraded");
  EXPECT_EQ(qualityName(MeasurementQuality::kInvalid), "invalid");
  EXPECT_EQ(qualityFromIndex(2), MeasurementQuality::kDegraded);
  EXPECT_EQ(qualityFromIndex(42), MeasurementQuality::kInvalid);
}

TEST(Rapl, DomainMsrsMatchIntelSdm) {
  EXPECT_EQ(domainMsr(Domain::kPackage), 0x611u);
  EXPECT_EQ(domainMsr(Domain::kCore), 0x639u);
  EXPECT_EQ(domainMsr(Domain::kUncore), 0x641u);
  EXPECT_EQ(domainMsr(Domain::kDram), 0x619u);
}

TEST(Rapl, CustomEnergyUnit) {
  PowerUnit u;
  u.energyUnitBits = 14;  // server parts: 61 uJ quanta
  SimulatedRaplPackage pkg(u);
  RaplReader reader(pkg.device());
  EXPECT_EQ(reader.unit().energyUnitBits, 14u);
  pkg.deposit(Domain::kDram, 1.0);
  EXPECT_NEAR(reader.readJoules(Domain::kDram), 1.0, 1e-3);
  EXPECT_EQ(reader.readRaw(Domain::kDram), 1u << 14);
}

}  // namespace
}  // namespace jepo::rapl
