#include <gtest/gtest.h>

#include "perf/perf.hpp"
#include "stats/protocol.hpp"

namespace jepo::perf {
namespace {

void burnWork(energy::SimMachine& machine) {
  machine.charge(energy::Op::kDoubleAlu, 1'000'000);
  machine.charge(energy::Op::kIntMod, 100'000);
}

TEST(Perf, ExactRunnerIsDeterministic) {
  PerfRunner runner = PerfRunner::exact();
  const PerfStat a = runner.stat(burnWork);
  const PerfStat b = runner.stat(burnWork);
  EXPECT_DOUBLE_EQ(a.packageJoules, b.packageJoules);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_GT(a.packageJoules, 0.0);
  EXPECT_GT(a.coreJoules, 0.0);
  EXPECT_LT(a.coreJoules, a.packageJoules);
  EXPECT_GT(a.dramJoules, 0.0);
}

TEST(Perf, MeasurementMatchesMsrAccounting) {
  PerfRunner runner = PerfRunner::exact();
  const PerfStat s = runner.stat([](energy::SimMachine& m) {
    m.charge(energy::Op::kIntAlu, 5'000'000);
  });
  const energy::CostModel model = energy::CostModel::calibrated();
  const auto& c = model.cost(energy::Op::kIntAlu);
  const double ns = 5e6 * c.nanoseconds;
  const double pkgJ =
      (5e6 * c.packageNanojoules + ns * model.packageIdleWatts()) * 1e-9;
  EXPECT_NEAR(s.packageJoules, pkgJ, 1e-3);  // within MSR quantization
  EXPECT_NEAR(s.seconds, ns * 1e-9, 1e-12);
}

TEST(Perf, NoiseCreatesRunToRunSpread) {
  PerfRunner runner{PerfRunner::kDefaultNoise, 42};
  std::vector<double> values;
  for (int i = 0; i < 20; ++i) {
    values.push_back(runner.stat(burnWork).packageJoules);
  }
  double lo = values[0];
  double hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(hi / lo, 1.01);  // jitter visible
}

TEST(Perf, TukeyLoopRecoversTrueMeanUnderSpikes) {
  // Heavy spikes; the Section VIII protocol should scrub them and land
  // near the exact (noise-free) value.
  const double exact = PerfRunner::exact().stat(burnWork).packageJoules;

  // ~12% interference rate: about one spiked run per 10-run set, the
  // regime Tukey's fences handle reliably (3+ spikes of 10 would exceed
  // the method's breakdown point — as it would for the paper's authors).
  // Seed 13 yields two spikes among the first ten per-call noise streams
  // and clean re-measurements after (noise is per-ordinal since the runner
  // became shared-nothing, so the spike pattern is a property of the seed).
  PerfRunner noisy{PerfRunner::NoiseModel{0.01, 0.12, 1.8}, 13};
  const auto result = stats::measureWithTukeyLoop(
      10, [&] { return noisy.stat(burnWork).asRow(); }, 100);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.means[0], exact, exact * 0.05);

  // The naive mean over raw spiky runs is visibly worse.
  PerfRunner noisy2{PerfRunner::NoiseModel{0.01, 0.12, 1.8}, 13};
  double naive = 0.0;
  for (int i = 0; i < 10; ++i) {
    naive += noisy2.stat(burnWork).packageJoules;
  }
  naive /= 10.0;
  EXPECT_GT(std::fabs(naive - exact), std::fabs(result.means[0] - exact));
}

TEST(Perf, CustomCostModelIsHonored) {
  PerfRunner runner = PerfRunner::exact();
  energy::CostModel expensive = energy::CostModel::calibrated();
  expensive.cost(energy::Op::kIntAlu).packageNanojoules *= 10.0;
  const PerfStat cheap = runner.stat([](energy::SimMachine& m) {
    m.charge(energy::Op::kIntAlu, 1'000'000);
  });
  const PerfStat costly = runner.statAt(
      /*ordinal=*/1,
      [](energy::SimMachine& m) {
        m.charge(energy::Op::kIntAlu, 1'000'000);
      },
      expensive);
  EXPECT_GT(costly.packageJoules, cheap.packageJoules * 2.0);
}

}  // namespace
}  // namespace jepo::perf
