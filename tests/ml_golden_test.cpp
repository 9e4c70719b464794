// Golden pinning of the Table-IV classifier kernels' observables: for all
// ten classifiers in both styles, the stream workload's full per-op meter
// counts and its mean accuracy (as a hex float, so every bit is pinned).
//
// The kernels may be restructured freely as long as these bytes hold: the
// counts drive every simulated joule and second of Table IV, and in the
// optimized style their split between the original and the efficient op
// depends on the order of the runtime's charge calls (one shared carry
// chain), so a reordered charge shows here too.
//
// Regenerating (only when intentionally changing what a kernel charges or
// computes):
//   JEPO_CAPTURE_GOLDENS=1 ./ml_golden_test
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "experiments/weka_experiment.hpp"

#ifndef JEPO_REPO_DIR
#error "ml_golden_test needs -DJEPO_REPO_DIR=\"...\""
#endif

namespace jepo::experiments {
namespace {

constexpr const char* kGoldenPath =
    JEPO_REPO_DIR "/tests/goldens/ml_workloads.golden";

bool captureMode() {
  const char* v = std::getenv("JEPO_CAPTURE_GOLDENS");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

std::string hexFloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string computeGoldenDoc() {
  WekaExperimentConfig cfg;
  cfg.instances = 300;
  cfg.folds = 3;
  cfg.forestTrees = 3;
  cfg.corpusScale = 0.02;  // prep's change count is not pinned here
  // The dataset depends on the config only, not on the classifier.
  const detail::ClassifierPrep prep =
      detail::prepClassifier(ml::ClassifierKind::kJ48, cfg);

  std::ostringstream doc;
  doc << "# ml workload goldens — per-op meter counts and mean accuracy of\n"
         "# detail::runStyleWorkload for every classifier and style\n"
         "# (instances=300, folds=3, forestTrees=3, seed=2020).\n"
         "# regenerate: JEPO_CAPTURE_GOLDENS=1 ./ml_golden_test\n"
         "# ops:";
  for (std::size_t op = 0; op < energy::kOpCount; ++op) {
    doc << ' ' << energy::opName(static_cast<energy::Op>(op));
  }
  doc << '\n';
  for (int k = 0; k < ml::kClassifierKindCount; ++k) {
    const auto kind = static_cast<ml::ClassifierKind>(k);
    for (int style = 0; style < 2; ++style) {
      energy::SimMachine machine;
      const double accuracy =
          detail::runStyleWorkload(kind, style, *prep.data, cfg, machine);
      doc << ml::classifierName(kind) << " | "
          << (style == 0 ? "baseline" : "optimized") << " | "
          << hexFloat(accuracy) << " |";
      for (const std::uint64_t c : machine.meter().counts()) doc << ' ' << c;
      doc << '\n';
    }
  }
  return doc.str();
}

TEST(MlGolden, WorkloadCountsAndAccuracyMatchCapturedGolden) {
  const std::string doc = computeGoldenDoc();

  if (captureMode()) {
    std::ofstream out(kGoldenPath, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << doc;
    GTEST_SKIP() << "golden captured to " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden " << kGoldenPath
      << " — run JEPO_CAPTURE_GOLDENS=1 ./ml_golden_test";
  std::ostringstream captured;
  captured << in.rdbuf();
  EXPECT_EQ(doc, captured.str())
      << "a classifier kernel's charges or results drifted; regenerate "
         "only if the change is intentional";
}

}  // namespace
}  // namespace jepo::experiments
