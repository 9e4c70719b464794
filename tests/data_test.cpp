#include <gtest/gtest.h>

#include "data/airlines.hpp"
#include "ml/evaluation.hpp"

namespace jepo::data {
namespace {

using ml::Instances;

// -------------------------------------------------------------- airlines

TEST(Airlines, SchemaMatchesTableThree) {
  const Instances schema = airlinesSchema();
  ASSERT_EQ(schema.numAttributes(), 8u);  // Table III: 8 attributes

  EXPECT_EQ(schema.attribute(0).name(), "Airline");
  EXPECT_TRUE(schema.attribute(0).isNominal());
  EXPECT_EQ(schema.attribute(0).numLabels(), 18u);  // 18 airlines

  EXPECT_EQ(schema.attribute(1).name(), "Flight");
  EXPECT_TRUE(schema.attribute(1).isNumeric());

  EXPECT_EQ(schema.attribute(2).name(), "AirportFrom");
  EXPECT_EQ(schema.attribute(2).numLabels(), 293u);  // 293 airports
  EXPECT_EQ(schema.attribute(3).name(), "AirportTo");
  EXPECT_EQ(schema.attribute(3).numLabels(), 293u);

  EXPECT_EQ(schema.attribute(4).name(), "DayOfWeek");
  EXPECT_TRUE(schema.attribute(4).isNominal());

  EXPECT_EQ(schema.attribute(5).name(), "Time");
  EXPECT_TRUE(schema.attribute(5).isNumeric());
  EXPECT_EQ(schema.attribute(6).name(), "Length");
  EXPECT_TRUE(schema.attribute(6).isNumeric());

  // Class: binary Delay.
  EXPECT_EQ(schema.classIndex(), 7);
  EXPECT_EQ(schema.attribute(7).name(), "Delay");
  EXPECT_EQ(schema.numClasses(), 2u);

  // Counts by kind: 4 nominal features + 3 numeric + binary class.
  int nominal = 0;
  int numeric = 0;
  for (std::size_t a = 0; a < 7; ++a) {
    (schema.attribute(a).isNominal() ? nominal : numeric)++;
  }
  EXPECT_EQ(nominal, 4);
  EXPECT_EQ(numeric, 3);
}

TEST(Airlines, GeneratesRequestedInstanceCount) {
  AirlinesConfig cfg;
  cfg.instances = 1234;
  const Instances data = generateAirlines(cfg);
  EXPECT_EQ(data.numInstances(), 1234u);
}

TEST(Airlines, DefaultSizeMatchesMoa) {
  AirlinesConfig cfg;
  EXPECT_EQ(cfg.instances, 539'383u);  // Table III instance count
}

TEST(Airlines, DeterministicForSeed) {
  AirlinesConfig cfg;
  cfg.instances = 100;
  const Instances a = generateAirlines(cfg);
  const Instances b = generateAirlines(cfg);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(a.row(i), b.row(i));
  cfg.seed = 999;
  const Instances c = generateAirlines(cfg);
  int diffs = 0;
  for (std::size_t i = 0; i < 100; ++i) diffs += (a.row(i) != c.row(i));
  EXPECT_GT(diffs, 90);
}

TEST(Airlines, GeneratedDataCarriesTheTableThreeSchema) {
  const Instances schema = airlinesSchema();
  EXPECT_EQ(schema.numInstances(), 0u);
  AirlinesConfig cfg;
  cfg.instances = 10;
  const Instances data = generateAirlines(cfg);
  ASSERT_EQ(data.numAttributes(), schema.numAttributes());
  for (std::size_t a = 0; a < schema.numAttributes(); ++a) {
    EXPECT_EQ(data.attribute(a).name(), schema.attribute(a).name());
    EXPECT_EQ(data.attribute(a).kind(), schema.attribute(a).kind());
    ASSERT_EQ(data.attribute(a).numLabels(), schema.attribute(a).numLabels());
    for (std::size_t l = 0; l < schema.attribute(a).numLabels(); ++l) {
      EXPECT_EQ(data.attribute(a).label(l), schema.attribute(a).label(l));
    }
  }
  EXPECT_EQ(data.classIndex(), schema.classIndex());
}

TEST(Airlines, SmallerRunIsAPrefixOfALargerOne) {
  AirlinesConfig cfg;
  cfg.instances = 200;
  const Instances large = generateAirlines(cfg);
  cfg.instances = 50;
  const Instances small = generateAirlines(cfg);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(small.row(i), large.row(i));
}

TEST(Airlines, NoiseOnlyMovesTheClassLabel) {
  AirlinesConfig cfg;
  cfg.instances = 500;
  cfg.noise = 0.0;
  const Instances clean = generateAirlines(cfg);
  cfg.noise = 1.0;
  const Instances coinFlip = generateAirlines(cfg);
  int labelDiffs = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    for (std::size_t a = 0; a < 7; ++a) {
      EXPECT_EQ(clean.value(i, a), coinFlip.value(i, a));
    }
    labelDiffs += clean.classValue(i) != coinFlip.classValue(i);
  }
  EXPECT_GT(labelDiffs, 0);
}

TEST(Airlines, DelayRateIsBalancedish) {
  AirlinesConfig cfg;
  cfg.instances = 5000;
  const Instances data = generateAirlines(cfg);
  std::size_t delayed = 0;
  for (std::size_t i = 0; i < data.numInstances(); ++i) {
    delayed += data.classValue(i) == 1;
  }
  const double rate = static_cast<double>(delayed) / 5000.0;
  // Real MOA airlines is ~44.5% delayed; require a sane band.
  EXPECT_GT(rate, 0.30);
  EXPECT_LT(rate, 0.65);
}

TEST(Airlines, ValuesWithinDomains) {
  AirlinesConfig cfg;
  cfg.instances = 2000;
  const Instances data = generateAirlines(cfg);
  for (std::size_t i = 0; i < data.numInstances(); ++i) {
    EXPECT_GE(data.value(i, 1), 1.0);      // flight number
    EXPECT_LE(data.value(i, 1), 7500.0);
    EXPECT_GE(data.value(i, 5), 0.0);      // time of day
    EXPECT_LE(data.value(i, 5), 1440.0);
    EXPECT_GE(data.value(i, 6), 25.0);     // length
    EXPECT_LE(data.value(i, 6), 660.0);
    EXPECT_NE(data.value(i, 2), data.value(i, 3));  // from != to
  }
}

TEST(Airlines, LatentRuleIsLearnable) {
  AirlinesConfig cfg;
  cfg.instances = 3000;
  const Instances data = generateAirlines(cfg);
  Rng rng(1);
  const Instances sample = data.subsample(1500, rng);
  energy::SimMachine machine;
  ml::MlRuntime rt(machine, ml::CodeStyle::jepoOptimized());
  // NaiveBayes is the most sample-efficient of the ten on this schema;
  // tree learners need larger samples (covered in the Table IV bench).
  Rng cvRng(2);
  const double acc = ml::crossValidate(
      [&] {
        return ml::makeClassifier(ml::ClassifierKind::kNaiveBayes,
                                  ml::Precision::kDouble, rt, 5);
      },
      sample, 5, cvRng);
  // Above chance, below perfection — the realistic airline-delay band.
  EXPECT_GT(acc, sample.majorityClassFraction() + 0.02);
  EXPECT_LT(acc, 0.9);
}

}  // namespace
}  // namespace jepo::data
