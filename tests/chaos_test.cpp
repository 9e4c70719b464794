// Chaos suite: drives the whole measurement pipeline through the
// fault::FaultyMsrDevice decorator and asserts the tentpole guarantees —
//
//   (a) retryable-only fault plans produce results bit-identical to the
//       fault-free baseline, at any thread count (the retry loop re-reads
//       an unchanged simulated device, so the recovered values are exact);
//   (b) permanent faults degrade gracefully: absent domains fall back to
//       package-only stats, an absent package register yields flagged
//       rows with zeroed improvements — never a crash or an abort;
//   (c) every fault schedule is a pure function of (seed, register, read
//       ordinal), so any plan — including ones that exhaust the retry
//       budget — replays identically across runs and thread counts.
//
// Runs under the `chaos` CTest label (and the ASan chaos CI job).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "energy/op.hpp"
#include "experiments/weka_experiment.hpp"
#include "fault/fault.hpp"
#include "jlang/parser.hpp"
#include "jvm/instrumenter.hpp"
#include "jvm/interpreter.hpp"
#include "perf/perf.hpp"
#include "rapl/rapl.hpp"

namespace jepo {
namespace {

using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSpec;
using fault::FaultyMsrDevice;
using rapl::Domain;
using rapl::MeasurementQuality;

// ---------------------------------------------------------------- plans

TEST(FaultPlan, DecideIsPureAndSeedSensitive) {
  FaultSpec spec = fault::parseFaultPlan("chaos:seed=11");
  const FaultPlan plan(spec);
  const FaultPlan replay(spec);
  spec.seed = 12;
  const FaultPlan other(spec);

  bool anyFault = false;
  bool seedsDiffer = false;
  for (std::uint64_t ord = 0; ord < 500; ++ord) {
    const auto a = plan.decide(rapl::kMsrPkgEnergyStatus, ord);
    const auto b = replay.decide(rapl::kMsrPkgEnergyStatus, ord);
    EXPECT_EQ(a.kind, b.kind) << "ordinal " << ord;
    EXPECT_EQ(a.burst, b.burst);
    EXPECT_EQ(a.magnitude, b.magnitude);
    anyFault = anyFault || a.kind != FaultKind::kNone;
    seedsDiffer =
        seedsDiffer ||
        a.kind != other.decide(rapl::kMsrPkgEnergyStatus, ord).kind;
  }
  EXPECT_TRUE(anyFault) << "chaos preset injected nothing in 500 reads";
  EXPECT_TRUE(seedsDiffer) << "seed does not influence the schedule";
}

TEST(FaultPlan, ValueFaultsOnlyHitEnergyStatusRegisters) {
  FaultSpec spec;
  spec.staleProb = 1.0;  // every read would be stale...
  const FaultPlan plan(spec);
  for (std::uint64_t ord = 0; ord < 100; ++ord) {
    // ...but the power-unit register is configuration, not a counter.
    EXPECT_EQ(plan.decide(rapl::kMsrRaplPowerUnit, ord).kind,
              FaultKind::kNone);
    EXPECT_EQ(plan.decide(rapl::kMsrPkgEnergyStatus, ord).kind,
              FaultKind::kStale);
  }
}

TEST(FaultPlan, ParserRoundTripsAndRejectsGarbage) {
  const FaultSpec spec = fault::parseFaultPlan(
      "transient:seed=5,transient-prob=0.25,drop-domain=dram");
  EXPECT_EQ(spec.seed, 5u);
  EXPECT_DOUBLE_EQ(spec.transientProb, 0.25);
  ASSERT_EQ(spec.unavailable.size(), 1u);
  EXPECT_EQ(spec.unavailable[0], rapl::kMsrDramEnergyStatus);

  // describe() is re-parseable into an equivalent spec.
  const FaultSpec again = fault::parseFaultPlan(spec.describe());
  EXPECT_EQ(again.seed, spec.seed);
  EXPECT_DOUBLE_EQ(again.transientProb, spec.transientProb);
  EXPECT_EQ(again.unavailable, spec.unavailable);

  EXPECT_FALSE(fault::parseFaultPlan("none").active());
  EXPECT_THROW(fault::parseFaultPlan("lunch-break"), Error);
  EXPECT_THROW(fault::parseFaultPlan("chaos:flux-capacitor=1"), Error);
  EXPECT_THROW(fault::parseFaultPlan("transient:transient-prob=1.5"), Error);
}

// ------------------------------------------------------------ decorator

TEST(FaultyMsrDevice, TransientFaultThrowsTypedErrorInBurstsOfConfiguredLength) {
  rapl::SimulatedRaplPackage pkg;
  pkg.deposit(Domain::kPackage, 1.0);
  FaultSpec spec;
  spec.seed = 5;
  spec.transientProb = 0.3;
  spec.transientBurst = 2;
  const FaultyMsrDevice dev(pkg.device(), FaultPlan(spec));
  const std::uint64_t truth = pkg.device().read(rapl::kMsrPkgEnergyStatus);

  // Each fault event fails the deciding read plus burst-1 followers, so
  // every maximal run of consecutive failures is a multiple of the burst
  // length (abutting events concatenate).
  int run = 0;
  int failures = 0;
  int successes = 0;
  for (int i = 0; i < 300; ++i) {
    try {
      EXPECT_EQ(dev.read(rapl::kMsrPkgEnergyStatus), truth);
      ++successes;
      if (run > 0) EXPECT_EQ(run % 2, 0) << "burst broken at read " << i;
      run = 0;
    } catch (const rapl::MsrError& e) {
      EXPECT_TRUE(e.transient());
      EXPECT_EQ(e.msr(), rapl::kMsrPkgEnergyStatus);
      ++failures;
      ++run;
    }
  }
  EXPECT_GT(failures, 0);
  EXPECT_GT(successes, 0);
  EXPECT_EQ(dev.injected(), static_cast<std::uint64_t>(failures));
}

TEST(FaultyMsrDevice, StaleRepeatsLastObservedValue) {
  rapl::SimulatedRaplPackage pkg;
  pkg.deposit(Domain::kPackage, 1.0);
  FaultSpec spec;
  spec.seed = 3;
  spec.staleProb = 1.0;
  const FaultyMsrDevice dev(pkg.device(), FaultPlan(spec));

  // First read has no history to repeat — it must pass through.
  const std::uint64_t first = dev.read(rapl::kMsrPkgEnergyStatus);
  EXPECT_EQ(first, pkg.device().read(rapl::kMsrPkgEnergyStatus));
  pkg.deposit(Domain::kPackage, 5.0);  // true counter moves on
  const std::uint64_t second = dev.read(rapl::kMsrPkgEnergyStatus);
  EXPECT_EQ(second, first);  // ...the faulted read does not
}

TEST(FaultyMsrDevice, BackwardsGlitchReturnsLessThanLastValue) {
  rapl::SimulatedRaplPackage pkg;
  pkg.deposit(Domain::kPackage, 10.0);
  FaultSpec spec;
  spec.backwardsProb = 1.0;
  const FaultyMsrDevice dev(pkg.device(), FaultPlan(spec));

  const std::uint64_t first = dev.read(rapl::kMsrPkgEnergyStatus);
  const std::uint64_t second = dev.read(rapl::kMsrPkgEnergyStatus);
  EXPECT_LT(second, first);
}

TEST(FaultyMsrDevice, JumpAddsImplausibleForwardOffset) {
  rapl::SimulatedRaplPackage pkg;
  pkg.deposit(Domain::kPackage, 1.0);
  FaultSpec spec;
  spec.jumpProb = 1.0;
  const FaultyMsrDevice dev(pkg.device(), FaultPlan(spec));

  const std::uint64_t truth = pkg.device().read(rapl::kMsrPkgEnergyStatus);
  const std::uint64_t jumped = dev.read(rapl::kMsrPkgEnergyStatus);
  // Forced multi-wrap territory: at least half the 32-bit counter range.
  EXPECT_GE(jumped - truth, 0x80000000u);
}

TEST(FaultyMsrDevice, UnavailableRegisterThrowsPermanentError) {
  rapl::SimulatedRaplPackage pkg;
  const FaultSpec spec = fault::parseFaultPlan("no-dram");
  const FaultyMsrDevice dev(pkg.device(), FaultPlan(spec));

  try {
    dev.read(rapl::kMsrDramEnergyStatus);
    FAIL() << "expected permanent MsrError";
  } catch (const rapl::MsrError& e) {
    EXPECT_FALSE(e.transient());
    EXPECT_EQ(e.msr(), rapl::kMsrDramEnergyStatus);
  }
  // The other registers are untouched.
  EXPECT_EQ(dev.read(rapl::kMsrPkgEnergyStatus),
            pkg.device().read(rapl::kMsrPkgEnergyStatus));
}

TEST(FaultyMsrDevice, TwoDevicesFromSameSpecReplayIdentically) {
  rapl::SimulatedRaplPackage pkg;
  pkg.deposit(Domain::kPackage, 42.0);
  pkg.deposit(Domain::kCore, 20.0);
  const FaultSpec spec = fault::parseFaultPlan("chaos:seed=77");
  const FaultyMsrDevice a(pkg.device(), FaultPlan(spec));
  const FaultyMsrDevice b(pkg.device(), FaultPlan(spec));

  // Same spec + same read sequence => identical values and identical
  // throw positions, interleaved reads across two registers included.
  const std::uint32_t regs[] = {rapl::kMsrPkgEnergyStatus,
                                rapl::kMsrPp0EnergyStatus};
  for (int i = 0; i < 400; ++i) {
    const std::uint32_t msr = regs[i % 2];
    std::uint64_t va = 0;
    std::uint64_t vb = 0;
    bool ta = false;
    bool tb = false;
    try {
      va = a.read(msr);
    } catch (const rapl::MsrError&) {
      ta = true;
    }
    try {
      vb = b.read(msr);
    } catch (const rapl::MsrError&) {
      tb = true;
    }
    EXPECT_EQ(ta, tb) << "read " << i;
    EXPECT_EQ(va, vb) << "read " << i;
  }
  EXPECT_EQ(a.injected(), b.injected());
  EXPECT_EQ(a.reads(), b.reads());
}

// --------------------------------------------------- reader under faults

TEST(RaplReaderChaos, AbsorbsTransientPlanAndRecoversExactValues) {
  rapl::SimulatedRaplPackage pkg;
  pkg.deposit(Domain::kPackage, 7.5);
  FaultSpec spec;
  spec.seed = 21;
  spec.transientProb = 0.3;  // burst 1, so any 8-attempt budget recovers
  const FaultyMsrDevice dev(pkg.device(), FaultPlan(spec));
  rapl::RetryPolicy patient;
  patient.maxAttempts = 8;  // p=0.3^8 exhaustion is out of reach
  const rapl::RaplReader reader(dev, patient);

  int totalRetries = 0;
  for (int i = 0; i < 50; ++i) {
    const rapl::RawSample s = reader.readRawRetrying(Domain::kPackage);
    // The simulated package never changes underneath, so every recovered
    // read is the exact true value.
    EXPECT_NEAR(static_cast<double>(s.value) * reader.unit().jouleQuantum(),
                7.5, 1e-4);
    totalRetries += s.retries;
  }
  EXPECT_GT(totalRetries, 0) << "plan with p=0.3 injected nothing in 50 reads";

  // Replaying the identical spec reproduces the identical retry counts.
  const FaultyMsrDevice dev2(pkg.device(), FaultPlan(spec));
  const rapl::RaplReader reader2(dev2, patient);
  EXPECT_EQ(reader2.unitReadRetries(), reader.unitReadRetries());
  int replayRetries = 0;
  for (int i = 0; i < 50; ++i) {
    replayRetries += reader2.readRawRetrying(Domain::kPackage).retries;
  }
  EXPECT_EQ(replayRetries, totalRetries);
}

// -------------------------------------------------- perf runner hardening

void burnWork(energy::SimMachine& machine) {
  machine.charge(energy::Op::kDoubleAlu, 1'000'000);
  machine.charge(energy::Op::kIntMod, 100'000);
}

TEST(PerfChaos, TransientOnlyPlanIsBitIdenticalToFaultFreeBaseline) {
  const energy::CostModel model = energy::CostModel::calibrated();
  perf::PerfRunner clean = perf::PerfRunner::exact();
  perf::PerfRunner chaotic = perf::PerfRunner::exact();
  // Gentle transient rate, single-read bursts: well inside the 4-attempt
  // budget, so every faulted read recovers the exact value. (The heavier
  // presets can exhaust the read budget; those go through the
  // measurement-level retry exercised by the experiment tests instead.)
  chaotic.setFaultPlan(fault::parseFaultPlan(
      "transient:seed=4,transient-prob=0.1,transient-burst=1"));

  int retried = 0;
  for (std::uint64_t ord = 0; ord < 20; ++ord) {
    const perf::PerfStat a = clean.statAt(ord, burnWork, model);
    const perf::PerfStat b = chaotic.statAt(ord, burnWork, model);
    EXPECT_DOUBLE_EQ(a.packageJoules, b.packageJoules) << "ordinal " << ord;
    EXPECT_DOUBLE_EQ(a.coreJoules, b.coreJoules);
    EXPECT_DOUBLE_EQ(a.dramJoules, b.dramJoules);
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
    EXPECT_LE(b.quality, MeasurementQuality::kRetried);
    retried += b.readRetries;
  }
  EXPECT_GT(retried, 0) << "transient-heavy plan never fired in 20 stats";
}

TEST(PerfChaos, MissingCoreDomainDegradesToPackageOnly) {
  const energy::CostModel model = energy::CostModel::calibrated();
  perf::PerfRunner clean = perf::PerfRunner::exact();
  perf::PerfRunner impaired = perf::PerfRunner::exact();
  impaired.setFaultPlan(fault::parseFaultPlan("no-core"));

  const perf::PerfStat a = clean.statAt(0, burnWork, model);
  const perf::PerfStat b = impaired.statAt(0, burnWork, model);
  EXPECT_TRUE(b.packageOnly);
  EXPECT_EQ(b.quality, MeasurementQuality::kDegraded);
  EXPECT_DOUBLE_EQ(b.packageJoules, a.packageJoules);  // still trustworthy
  EXPECT_DOUBLE_EQ(b.coreJoules, 0.0);                 // absent, not garbage
}

TEST(PerfChaos, MissingPackageDomainYieldsInvalidZeroedStat) {
  const energy::CostModel model = energy::CostModel::calibrated();
  perf::PerfRunner runner = perf::PerfRunner::exact();
  runner.setFaultPlan(fault::parseFaultPlan("no-package"));

  const perf::PerfStat s = runner.statAt(0, burnWork, model);
  EXPECT_EQ(s.quality, MeasurementQuality::kInvalid);
  EXPECT_DOUBLE_EQ(s.packageJoules, 0.0);
  EXPECT_DOUBLE_EQ(s.coreJoules, 0.0);
  EXPECT_GT(s.seconds, 0.0);  // timing comes from the clock, not the MSRs
}

// ------------------------------------------------ instrumenter hardening

TEST(InstrumenterChaos, RecordsSurviveFaultyDeviceWithQualityTags) {
  energy::SimMachine machine;
  const FaultSpec spec = fault::parseFaultPlan(
      "transient:seed=13,transient-prob=0.1,transient-burst=1");
  const FaultyMsrDevice dev(machine.msrDevice(), FaultPlan(spec));
  jvm::Instrumenter inst(machine, dev);

  const std::string methodName = "Chaos.method";
  const jvm::MethodRef method{0, methodName};
  for (int i = 0; i < 10; ++i) {
    inst.onEnter(method);
    machine.charge(energy::Op::kDoubleAlu, 10'000);
    inst.onExit(method);
  }
  ASSERT_EQ(inst.records().size(), 10u);
  int retried = 0;
  for (const auto& r : inst.records()) {
    EXPECT_LE(r.quality, MeasurementQuality::kRetried);
    EXPECT_GT(r.packageJoules, 0.0);
    retried += r.readRetries;
  }
  EXPECT_GT(retried, 0);
}

TEST(InstrumenterChaos, MissingDramDegradesRecordInsteadOfThrowing) {
  energy::SimMachine machine;
  const FaultSpec spec = fault::parseFaultPlan("no-dram");
  const FaultyMsrDevice dev(machine.msrDevice(), FaultPlan(spec));
  jvm::Instrumenter inst(machine, dev);

  const std::string methodName = "Chaos.method";
  const jvm::MethodRef method{0, methodName};
  inst.onEnter(method);
  machine.charge(energy::Op::kDoubleAlu, 10'000);
  inst.onExit(method);
  ASSERT_EQ(inst.records().size(), 1u);
  const jvm::MethodRecord& r = inst.records()[0];
  EXPECT_EQ(r.quality, MeasurementQuality::kDegraded);
  EXPECT_DOUBLE_EQ(r.dramJoules, 0.0);
  EXPECT_GT(r.packageJoules, 0.0);
}

TEST(InstrumenterChaos, FaultDeviceSeesTheFullPerRegisterReadSequence) {
  // A profiled program through a fault decorator: the reader must never
  // take its one-call read past the decorator, so the device sees the
  // power-unit read, then PKG/PP0/DRAM at every entry and exit, plus one
  // attempt per absorbed transient fault.
  const jlang::Program prog = jlang::Parser::parseProgram("t.mjava", R"(
    class Main {
      static int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
      static int work(int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) acc += fib(i % 6);
        return acc;
      }
      static void main(String[] args) {
        System.out.println(work(40));
      }
    }
  )");
  const auto profile = [&prog](const rapl::MsrDevice* dev,
                               energy::SimMachine& machine) {
    jvm::Interpreter vm(prog, machine);
    jvm::Instrumenter inst(machine,
                           dev != nullptr ? *dev : machine.msrDevice());
    vm.setHooks(&inst);
    vm.runMain();
    return inst.takeRecords();
  };
  energy::SimMachine cleanMachine;
  const std::vector<jvm::MethodRecord> clean = profile(nullptr, cleanMachine);

  const FaultSpec spec = fault::parseFaultPlan(
      "transient:seed=21,transient-prob=0.05,transient-burst=1");
  energy::SimMachine machine;
  const FaultyMsrDevice dev(machine.msrDevice(), FaultPlan(spec));
  const std::vector<jvm::MethodRecord> faulty = profile(&dev, machine);
  // The power-unit read's retries, from a twin device on the same plan.
  const FaultyMsrDevice twin(machine.msrDevice(), FaultPlan(spec));
  const int unitRetries = rapl::RaplReader(twin).unitReadRetries();

  ASSERT_EQ(faulty.size(), clean.size());
  std::uint64_t retries = 0;
  for (std::size_t i = 0; i < faulty.size(); ++i) {
    // Transient faults within the retry budget re-read an unchanged
    // register: the values are the clean run's, bit for bit.
    EXPECT_EQ(faulty[i].method, clean[i].method);
    EXPECT_EQ(faulty[i].packageJoules, clean[i].packageJoules);
    EXPECT_EQ(faulty[i].coreJoules, clean[i].coreJoules);
    EXPECT_EQ(faulty[i].dramJoules, clean[i].dramJoules);
    EXPECT_EQ(faulty[i].quality, faulty[i].readRetries > 0
                                     ? MeasurementQuality::kRetried
                                     : MeasurementQuality::kOk);
    retries += static_cast<std::uint64_t>(faulty[i].readRetries);
  }
  EXPECT_GT(retries, 0u) << "the plan injected nothing";
  EXPECT_EQ(dev.reads(), 1 + static_cast<std::uint64_t>(unitRetries) +
                             6 * faulty.size() + retries);
}

// -------------------------------------------------- experiment pipeline

experiments::WekaExperimentConfig chaosFastConfig() {
  experiments::WekaExperimentConfig cfg;
  cfg.instances = 400;
  cfg.folds = 5;
  cfg.runs = 4;
  cfg.corpusScale = 0.02;
  cfg.withNoise = false;
  cfg.forestTrees = 5;
  return cfg;
}

bool sameRow(const experiments::ClassifierResult& x,
             const experiments::ClassifierResult& y) {
  return x.kind == y.kind && x.changes == y.changes &&
         x.packageImprovement == y.packageImprovement &&
         x.cpuImprovement == y.cpuImprovement &&
         x.timeImprovement == y.timeImprovement &&
         x.accuracyBase == y.accuracyBase && x.accuracyOpt == y.accuracyOpt &&
         x.basePackageJoules == y.basePackageJoules &&
         x.optPackageJoules == y.optPackageJoules &&
         x.quality == y.quality && x.faultRetries == y.faultRetries &&
         x.flagged == y.flagged;
}

TEST(ExperimentChaos, RetryableFaultsLeaveScienceColumnsBitIdentical) {
  // One classifier end-to-end: the transient-only plan must not move a
  // single science bit relative to the fault-free baseline — only the
  // bookkeeping (quality tag, retry count) may differ.
  const auto baseline = experiments::runClassifierExperiment(
      ml::ClassifierKind::kNaiveBayes, chaosFastConfig());

  auto cfg = chaosFastConfig();
  cfg.faultPlan = fault::parseFaultPlan("transient:seed=8");
  const auto faulted = experiments::runClassifierExperiment(
      ml::ClassifierKind::kNaiveBayes, cfg);

  EXPECT_DOUBLE_EQ(faulted.packageImprovement, baseline.packageImprovement);
  EXPECT_DOUBLE_EQ(faulted.cpuImprovement, baseline.cpuImprovement);
  EXPECT_DOUBLE_EQ(faulted.timeImprovement, baseline.timeImprovement);
  EXPECT_DOUBLE_EQ(faulted.basePackageJoules, baseline.basePackageJoules);
  EXPECT_DOUBLE_EQ(faulted.optPackageJoules, baseline.optPackageJoules);
  EXPECT_DOUBLE_EQ(faulted.accuracyDrop, baseline.accuracyDrop);
  EXPECT_FALSE(faulted.flagged);
  EXPECT_LE(faulted.quality, MeasurementQuality::kRetried);
  EXPECT_GT(faulted.faultRetries, 0)
      << "the plan injected nothing — the assertion proved nothing";
}

// The probabilistic acceptance criterion: on the SAME seed, a fault plan
// that degrades measurement quality must STRICTLY widen the bootstrap
// interval. The transient-only plan is the controlled lever — it leaves
// every science value bit-identical to the fault-free run (pinned above),
// so the surviving rows and their resample streams are identical and the
// only difference is the quality tags driving the widen factor.
TEST(ExperimentChaos, DegradedQualityStrictlyWidensIntervalsOnSameSeed) {
  auto cleanCfg = chaosFastConfig();
  cleanCfg.withNoise = true;  // nonzero run-to-run variance to widen
  cleanCfg.intervals = true;
  cleanCfg.bootstrap.resamples = 80;
  const auto clean = experiments::runClassifierExperiment(
      ml::ClassifierKind::kNaiveBayes, cleanCfg);

  auto faultCfg = cleanCfg;
  faultCfg.faultPlan = fault::parseFaultPlan("transient:seed=8");
  const auto faulted = experiments::runClassifierExperiment(
      ml::ClassifierKind::kNaiveBayes, faultCfg);

  ASSERT_TRUE(clean.intervals.has_value());
  ASSERT_TRUE(faulted.intervals.has_value());
  const auto& a = *clean.intervals;
  const auto& b = *faulted.intervals;

  // Same science, same resamples — the pinned precondition.
  EXPECT_DOUBLE_EQ(faulted.basePackageJoules, clean.basePackageJoules);
  EXPECT_DOUBLE_EQ(faulted.optPackageJoules, clean.optPackageJoules);
  ASSERT_GT(b.retriedFraction, 0.0)
      << "the plan tagged no rows — the widening assertion proves nothing";
  EXPECT_GT(b.widenFactor, a.widenFactor);
  EXPECT_EQ(a.widenFactor, 1.0);

  // Strict widening of every interval the row reports.
  ASSERT_GT(a.basePackage.width(), 0.0) << "degenerate clean interval";
  EXPECT_GT(b.basePackage.width(), a.basePackage.width());
  EXPECT_GT(b.optPackage.width(), a.optPackage.width());
  EXPECT_GT(b.packageImprovement.width(), a.packageImprovement.width());

  // And the interval still brackets the (unchanged) point estimate.
  EXPECT_LE(b.basePackage.lo, faulted.basePackageJoules);
  EXPECT_GE(b.basePackage.hi, faulted.basePackageJoules);
}

TEST(ExperimentChaos, FaultPlanMatrixIsBitIdenticalAcrossThreadCounts) {
  // The tentpole determinism claim at matrix scale: chaos plan included,
  // thread count must not change a single bit of any row.
  auto cfg = chaosFastConfig();
  cfg.faultPlan = fault::parseFaultPlan("chaos:seed=31");

  auto serialCfg = cfg;
  serialCfg.parallel.threads = 1;
  const auto serial = experiments::runWekaExperiment(serialCfg);

  for (std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
    auto parCfg = cfg;
    parCfg.parallel.threads = threads;
    const auto parallel = experiments::runWekaExperiment(parCfg);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(sameRow(serial[i], parallel[i]))
          << "row " << i << " differs at " << threads << " threads";
    }
  }
}

TEST(ExperimentChaos, PermanentPackageFaultFlagsEveryRowWithoutCrashing) {
  auto cfg = chaosFastConfig();
  cfg.faultPlan = fault::parseFaultPlan("no-package");
  cfg.parallel.threads = 4;

  const auto rows = experiments::runWekaExperiment(cfg);
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(ml::kClassifierKindCount));
  for (const auto& r : rows) {
    EXPECT_TRUE(r.flagged);
    EXPECT_EQ(r.quality, MeasurementQuality::kInvalid);
    EXPECT_DOUBLE_EQ(r.packageImprovement, 0.0);  // zeroed, not garbage
    EXPECT_DOUBLE_EQ(r.cpuImprovement, 0.0);
    EXPECT_GT(r.changes, 0);  // the static pipeline still ran
  }
}

TEST(ExperimentChaos, ExhaustingPlanDeterministicAndFlaggedNotCrashed) {
  // `exhausting` bursts outlast the 4-attempt read budget AND the
  // measurement-level re-attempts, so some rows go invalid; the guarantee
  // is no crash, deterministic rows at every thread count, and flags on
  // exactly the rows whose final attempt still came back invalid.
  auto cfg = chaosFastConfig();
  cfg.faultPlan = fault::parseFaultPlan("exhausting:seed=2");

  auto serialCfg = cfg;
  serialCfg.parallel.threads = 1;
  const auto serial = experiments::runWekaExperiment(serialCfg);
  ASSERT_EQ(serial.size(), static_cast<std::size_t>(ml::kClassifierKindCount));

  int impaired = 0;
  for (const auto& r : serial) {
    if (r.quality != MeasurementQuality::kOk) ++impaired;
    if (r.flagged) {
      EXPECT_EQ(r.quality, MeasurementQuality::kInvalid);
      EXPECT_DOUBLE_EQ(r.packageImprovement, 0.0);
    }
  }
  EXPECT_GT(impaired, 0) << "exhausting plan left every row pristine";

  for (std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
    auto parCfg = cfg;
    parCfg.parallel.threads = threads;
    const auto parallel = experiments::runWekaExperiment(parCfg);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(sameRow(serial[i], parallel[i]))
          << "row " << i << " differs at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace jepo
