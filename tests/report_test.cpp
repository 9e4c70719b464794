#include <gtest/gtest.h>

#include "data/airlines.hpp"
#include "ml/report.hpp"

namespace jepo::ml {
namespace {

// ------------------------------------------------------------- report

TEST(Report, CountsAndAccuracy) {
  EvaluationReport r(2);
  r.add(0, 0);
  r.add(0, 1);
  r.add(1, 1);
  r.add(1, 1);
  EXPECT_EQ(r.total(), 4u);
  EXPECT_EQ(r.correct(), 3u);
  EXPECT_DOUBLE_EQ(r.accuracy(), 0.75);
  EXPECT_EQ(r.confusion()[0][1], 1u);
  EXPECT_EQ(r.confusion()[1][1], 2u);
}

TEST(Report, PrecisionRecallF1) {
  EvaluationReport r(2);
  // class 1: TP=2, FP=1 (actual 0 predicted 1), FN=1 (actual 1 predicted 0)
  r.add(1, 1);
  r.add(1, 1);
  r.add(0, 1);
  r.add(1, 0);
  r.add(0, 0);
  EXPECT_DOUBLE_EQ(r.precision(1), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(r.recall(1), 2.0 / 3.0);
  EXPECT_NEAR(r.f1(1), 2.0 / 3.0, 1e-12);
}

TEST(Report, KappaZeroForChanceAgreement) {
  // Predictions independent of actual: kappa ~ 0.
  EvaluationReport r(2);
  r.add(0, 0);
  r.add(0, 1);
  r.add(1, 0);
  r.add(1, 1);
  EXPECT_NEAR(r.kappa(), 0.0, 1e-12);
  // Perfect agreement: kappa = 1.
  EvaluationReport p(2);
  p.add(0, 0);
  p.add(1, 1);
  EXPECT_DOUBLE_EQ(p.kappa(), 1.0);
}

TEST(Report, RejectsOutOfRangeClasses) {
  EvaluationReport r(2);
  EXPECT_THROW(r.add(2, 0), PreconditionError);
  EXPECT_THROW(r.add(0, -1), PreconditionError);
  EXPECT_THROW(r.accuracy(), PreconditionError);  // empty
}

TEST(Report, RenderIncludesMatrixAndKappa) {
  EvaluationReport r(2);
  r.add(0, 0);
  r.add(1, 1);
  r.add(1, 0);
  const Attribute cls = Attribute::nominal("Delay", {"0", "1"});
  const std::string out = r.render(cls);
  EXPECT_NE(out.find("Kappa"), std::string::npos);
  EXPECT_NE(out.find("Confusion matrix"), std::string::npos);
  EXPECT_NE(out.find("Precision"), std::string::npos);
}

TEST(Report, DetailedCrossValidationPoolsAllInstances) {
  data::AirlinesConfig cfg;
  cfg.instances = 400;
  const Instances data = data::generateAirlines(cfg);
  energy::SimMachine machine;
  MlRuntime rt(machine, CodeStyle::jepoOptimized());
  Rng rng(3);
  const EvaluationReport report = crossValidateDetailed(
      [&] {
        return makeClassifier(ClassifierKind::kNaiveBayes,
                              Precision::kDouble, rt, 7);
      },
      data, 5, rng);
  EXPECT_EQ(report.total(), data.numInstances());
  EXPECT_GT(report.accuracy(), 0.5);
  EXPECT_GT(report.kappa(), 0.0);  // better than chance
}

}  // namespace
}  // namespace jepo::ml
