#include <gtest/gtest.h>

#include <set>

#include "data/airlines.hpp"
#include "ml/evaluation.hpp"
#include "ml/classifier.hpp"
#include "ml/encoding.hpp"
#include "ml/tree.hpp"

namespace jepo::ml {
namespace {

// A small learnable dataset: two numeric features + one nominal, class
// depends on a simple rule with a little noise.
Instances makeToyData(std::size_t n, std::uint64_t seed) {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::numeric("x"));
  attrs.push_back(Attribute::numeric("y"));
  attrs.push_back(Attribute::nominal("color", {"red", "green", "blue"}));
  attrs.push_back(Attribute::nominal("label", {"neg", "pos"}));
  Instances data("toy", std::move(attrs), 3);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.nextDouble() * 10.0;
    const double y = rng.nextDouble() * 10.0;
    const auto color = static_cast<double>(rng.nextBelow(3));
    double score = (x > 5.0 ? 1.0 : -1.0) + (color == 2.0 ? 0.8 : -0.2) +
                   0.15 * (y - 5.0);
    if (rng.nextDouble() < 0.05) score = -score;  // 5% label noise
    data.addRow({x, y, color, score > 0 ? 1.0 : 0.0});
  }
  return data;
}

// ------------------------------------------------------------ dataset

TEST(Dataset, SchemaValidation) {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::numeric("x"));
  attrs.push_back(Attribute::nominal("c", {"a", "b"}));
  Instances data("d", attrs, 1);
  EXPECT_EQ(data.numClasses(), 2u);
  data.addRow({1.5, 0.0});
  EXPECT_THROW(data.addRow({1.0}), PreconditionError);        // width
  EXPECT_THROW(data.addRow({1.0, 5.0}), PreconditionError);   // label range
  EXPECT_THROW(Instances("d", attrs, 0), PreconditionError);  // numeric class
}

TEST(Dataset, FeatureIndicesSkipClass) {
  const Instances data = makeToyData(10, 1);
  EXPECT_EQ(data.featureIndices(), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Dataset, MajorityFraction) {
  std::vector<Attribute> attrs{Attribute::nominal("c", {"a", "b"})};
  Instances data("d", attrs, 0);
  data.addRow({0.0});
  data.addRow({0.0});
  data.addRow({0.0});
  data.addRow({1.0});
  EXPECT_DOUBLE_EQ(data.majorityClassFraction(), 0.75);
}

TEST(Dataset, SubsampleIsDeterministicAndSized) {
  const Instances data = makeToyData(100, 3);
  Rng r1(9);
  Rng r2(9);
  const Instances a = data.subsample(30, r1);
  const Instances b = data.subsample(30, r2);
  ASSERT_EQ(a.numInstances(), 30u);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(a.row(i), b.row(i));
  }
}

TEST(Dataset, StratifiedFoldsPartitionAndStratify) {
  const Instances data = makeToyData(200, 5);
  Rng rng(11);
  const auto folds = data.stratifiedFolds(10, rng);
  ASSERT_EQ(folds.size(), 10u);

  // Every instance appears in exactly one test fold.
  std::set<std::size_t> seen;
  for (const auto& f : folds) {
    for (std::size_t i : f.test) {
      EXPECT_TRUE(seen.insert(i).second) << "instance in two test folds";
    }
    EXPECT_EQ(f.train.size() + f.test.size(), data.numInstances());
  }
  EXPECT_EQ(seen.size(), data.numInstances());

  // Class ratio in each fold tracks the global ratio.
  const double global = data.majorityClassFraction();
  for (const auto& f : folds) {
    std::size_t majority = 0;
    std::vector<std::size_t> counts(data.numClasses(), 0);
    for (std::size_t i : f.test) {
      ++counts[static_cast<std::size_t>(data.classValue(i))];
    }
    majority = *std::max_element(counts.begin(), counts.end());
    const double frac = static_cast<double>(majority) /
                        static_cast<double>(f.test.size());
    EXPECT_NEAR(frac, global, 0.15);
  }
}

TEST(Dataset, NumericRanges) {
  const Instances data = makeToyData(50, 7);
  const auto ranges = data.numericRanges();
  EXPECT_GE(ranges[0].min, 0.0);
  EXPECT_LE(ranges[0].max, 10.0);
  EXPECT_LT(ranges[0].min, ranges[0].max);
}

TEST(Dataset, SubsampleCapsAtDatasetSizeWithoutRepeats) {
  const Instances data = makeToyData(40, 4);
  Rng rng(6);
  const Instances all = data.subsample(100, rng);
  ASSERT_EQ(all.numInstances(), 40u);
  // A permutation: every original row exactly once.
  std::multiset<std::vector<double>> want;
  std::multiset<std::vector<double>> got;
  for (std::size_t i = 0; i < 40; ++i) {
    want.insert(data.row(i));
    got.insert(all.row(i));
  }
  EXPECT_EQ(got, want);
}

TEST(Dataset, SelectMaterializesRowsInIndexOrder) {
  const Instances data = makeToyData(10, 8);
  const Instances out = data.select({3, 0, 3});
  ASSERT_EQ(out.numInstances(), 3u);
  EXPECT_EQ(out.row(0), data.row(3));
  EXPECT_EQ(out.row(1), data.row(0));
  EXPECT_EQ(out.row(2), data.row(3));
  EXPECT_EQ(out.numAttributes(), data.numAttributes());
  EXPECT_EQ(out.classIndex(), data.classIndex());
  EXPECT_THROW(data.select({10}), std::out_of_range);
}

TEST(Dataset, EmptyCopyKeepsSchemaWithoutRows) {
  const Instances data = makeToyData(10, 9);
  const Instances copy = data.emptyCopy();
  EXPECT_EQ(copy.numInstances(), 0u);
  ASSERT_EQ(copy.numAttributes(), data.numAttributes());
  for (std::size_t a = 0; a < data.numAttributes(); ++a) {
    EXPECT_EQ(copy.attribute(a).name(), data.attribute(a).name());
    EXPECT_EQ(copy.attribute(a).kind(), data.attribute(a).kind());
    EXPECT_EQ(copy.attribute(a).numLabels(), data.attribute(a).numLabels());
  }
  EXPECT_EQ(copy.classIndex(), data.classIndex());
  EXPECT_EQ(copy.numClasses(), 2u);
}

TEST(Dataset, StratifiedFoldsRejectTooFewFoldsOrInstances) {
  const Instances data = makeToyData(4, 10);
  Rng rng(1);
  EXPECT_THROW(data.stratifiedFolds(1, rng), PreconditionError);
  EXPECT_THROW(data.stratifiedFolds(5, rng), PreconditionError);
  EXPECT_EQ(data.stratifiedFolds(4, rng).size(), 4u);
}

// ------------------------------------------------------------ encoding

// x numeric (10/20/30), color nominal (r/g/b), class y last.
Instances tinyMixed() {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::numeric("x"));
  attrs.push_back(Attribute::nominal("color", {"r", "g", "b"}));
  attrs.push_back(Attribute::nominal("y", {"no", "yes"}));
  Instances d("tiny", attrs, 2);
  d.addRow({10.0, 0.0, 0.0});
  d.addRow({20.0, 1.0, 1.0});
  d.addRow({30.0, 2.0, 1.0});
  return d;
}

std::vector<SparseEncoder::Entry> encodeRow(const SparseEncoder& enc,
                                            const std::vector<double>& row) {
  energy::SimMachine machine;
  MlRuntime rt(machine, CodeStyle::javaBaseline());
  return enc.encode(row, rt);
}

TEST(SparseEncoder, NumericColumnsMapToUnitInterval) {
  const Instances data = tinyMixed();
  SparseEncoder enc;
  enc.fit(data);
  EXPECT_DOUBLE_EQ(encodeRow(enc, data.row(0))[0].value, 0.0);
  EXPECT_DOUBLE_EQ(encodeRow(enc, data.row(1))[0].value, 0.5);
  EXPECT_DOUBLE_EQ(encodeRow(enc, data.row(2))[0].value, 1.0);
  EXPECT_EQ(encodeRow(enc, data.row(2))[0].index, 0u);
}

TEST(SparseEncoder, ConstantNumericColumnEncodesAsZero) {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::numeric("x"));
  attrs.push_back(Attribute::nominal("y", {"no", "yes"}));
  Instances data("flat", attrs, 1);
  data.addRow({5.0, 0.0});
  data.addRow({5.0, 1.0});
  SparseEncoder enc;
  enc.fit(data);
  EXPECT_DOUBLE_EQ(encodeRow(enc, data.row(0))[0].value, 0.0);
  // A zero span never divides, whatever the value.
  EXPECT_DOUBLE_EQ(encodeRow(enc, {7.0, 0.0})[0].value, 0.0);
}

TEST(SparseEncoder, RangesComeFromTheFittedData) {
  SparseEncoder enc;
  enc.fit(tinyMixed());
  // Rows outside the fitted [10, 30] scale by the same line, unclamped.
  EXPECT_DOUBLE_EQ(encodeRow(enc, {100.0, 0.0, 0.0})[0].value, 4.5);
  EXPECT_DOUBLE_EQ(encodeRow(enc, {-50.0, 1.0, 1.0})[0].value, -3.0);
}

TEST(SparseEncoder, OneHotExpandsNonClassNominals) {
  const Instances data = tinyMixed();
  SparseEncoder enc;
  enc.fit(data);
  // x + 3 color indicators + bias; the class gets no feature.
  ASSERT_EQ(enc.numFeatures(), 5u);
  // Row 1 is color=g: one active entry per attribute, then the bias.
  const auto row = encodeRow(enc, data.row(1));
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[1].index, 2u);
  EXPECT_DOUBLE_EQ(row[1].value, 1.0);
  EXPECT_EQ(row[2].index, 4u);
  EXPECT_DOUBLE_EQ(row[2].value, 1.0);
  EXPECT_EQ(encodeRow(enc, data.row(0))[1].index, 1u);
  EXPECT_EQ(encodeRow(enc, data.row(2))[1].index, 3u);
}

TEST(SparseEncoder, ClassAttributeIsNeverEncoded) {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::nominal("y", {"no", "yes"}));
  attrs.push_back(Attribute::numeric("x"));
  attrs.push_back(Attribute::nominal("c", {"a", "b"}));
  Instances data("classFirst", attrs, 0);
  data.addRow({1.0, 0.0, 1.0});
  data.addRow({0.0, 4.0, 0.0});
  SparseEncoder enc;
  enc.fit(data);
  ASSERT_EQ(enc.numFeatures(), 4u);  // x + 2 indicators + bias
  const auto row = encodeRow(enc, data.row(0));
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].index, 0u);
  EXPECT_DOUBLE_EQ(row[0].value, 0.0);
  EXPECT_EQ(row[1].index, 2u);  // c=b
  EXPECT_EQ(row[2].index, 3u);  // bias
}

TEST(SparseEncoder, ChargesPerAttributeWorkInTheRuntimeStyle) {
  const Instances data = tinyMixed();
  SparseEncoder enc;
  enc.fit(data);

  energy::SimMachine base;
  MlRuntime baseRt(base, CodeStyle::javaBaseline());
  enc.encode(data.row(1), baseRt);
  EXPECT_EQ(base.meter().count(energy::Op::kArrayAccess), 2u);
  EXPECT_EQ(base.meter().count(energy::Op::kIntMod), 1u);
  EXPECT_EQ(base.meter().count(energy::Op::kDoubleAlu), 2u);

  energy::SimMachine opt;
  MlRuntime optRt(opt, CodeStyle::jepoOptimized());
  enc.encode(data.row(1), optRt);
  EXPECT_EQ(opt.meter().count(energy::Op::kArrayAccess), 2u);
  EXPECT_EQ(opt.meter().count(energy::Op::kIntMod), 0u);
  EXPECT_EQ(opt.meter().count(energy::Op::kIntAlu), 1u);
  EXPECT_EQ(opt.meter().count(energy::Op::kFloatAlu), 2u);
  EXPECT_EQ(opt.meter().count(energy::Op::kDoubleAlu), 0u);
}

// ------------------------------------------------- classifiers, generic

struct KindCase {
  ClassifierKind kind;
};

class ClassifierSuite : public ::testing::TestWithParam<ClassifierKind> {};

TEST_P(ClassifierSuite, BeatsMajorityBaselineOnToyData) {
  const Instances train = makeToyData(400, 21);
  const Instances test = makeToyData(200, 22);
  energy::SimMachine machine;
  MlRuntime rt(machine, CodeStyle::javaBaseline());
  auto clf = makeClassifier(GetParam(), Precision::kDouble, rt, 99);
  clf->train(train);
  const double acc = accuracy(*clf, test);
  EXPECT_GT(acc, test.majorityClassFraction() + 0.1)
      << clf->name() << " accuracy " << acc;
}

TEST_P(ClassifierSuite, DeterministicForSeed) {
  const Instances train = makeToyData(200, 31);
  const Instances test = makeToyData(50, 32);
  auto runOnce = [&] {
    energy::SimMachine machine;
    MlRuntime rt(machine, CodeStyle::javaBaseline());
    auto clf = makeClassifier(GetParam(), Precision::kDouble, rt, 123);
    clf->train(train);
    std::vector<int> preds;
    for (std::size_t i = 0; i < test.numInstances(); ++i) {
      preds.push_back(clf->predict(test.row(i)));
    }
    return preds;
  };
  EXPECT_EQ(runOnce(), runOnce());
}

TEST_P(ClassifierSuite, FloatPrecisionStaysClose) {
  const Instances train = makeToyData(300, 41);
  const Instances test = makeToyData(150, 42);
  energy::SimMachine machine;
  MlRuntime rt(machine, CodeStyle::javaBaseline());
  auto d = makeClassifier(GetParam(), Precision::kDouble, rt, 7);
  auto f = makeClassifier(GetParam(), Precision::kFloat, rt, 7);
  d->train(train);
  f->train(train);
  const double accD = accuracy(*d, test);
  const double accF = accuracy(*f, test);
  // The paper's worst observed drop is 0.48%; allow a loose 5% band here
  // (tiny toy data amplifies flips).
  EXPECT_NEAR(accD, accF, 0.05) << d->name();
}

TEST_P(ClassifierSuite, TrainingConsumesEnergy) {
  const Instances train = makeToyData(150, 51);
  energy::SimMachine machine;
  MlRuntime rt(machine, CodeStyle::javaBaseline());
  auto clf = makeClassifier(GetParam(), Precision::kDouble, rt, 3);
  clf->train(train);
  clf->predict(train.row(0));
  const auto sample = machine.sample();
  EXPECT_GT(sample.packageJoules, 0.0) << clf->name();
  EXPECT_GT(sample.seconds, 0.0);
}

// The Table IV mechanism: the optimized CodeStyle consumes strictly less
// energy for the same training work, with identical predictions.
TEST_P(ClassifierSuite, OptimizedStyleSavesEnergyWithSamePredictions) {
  const Instances train = makeToyData(250, 61);
  const Instances test = makeToyData(100, 62);

  auto measure = [&](CodeStyle style, std::vector<int>* preds) {
    energy::SimMachine machine;
    MlRuntime rt(machine, style);
    auto clf = makeClassifier(GetParam(), Precision::kDouble, rt, 17);
    clf->train(train);
    for (std::size_t i = 0; i < test.numInstances(); ++i) {
      preds->push_back(clf->predict(test.row(i)));
    }
    return machine.sample();
  };

  std::vector<int> basePreds;
  std::vector<int> optPreds;
  const auto base = measure(CodeStyle::javaBaseline(), &basePreds);
  const auto opt = measure(CodeStyle::jepoOptimized(), &optPreds);
  EXPECT_EQ(basePreds, optPreds) << "style changed predictions";
  EXPECT_LT(opt.packageJoules, base.packageJoules);
  EXPECT_LT(opt.seconds, base.seconds);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ClassifierSuite,
    ::testing::Values(ClassifierKind::kJ48, ClassifierKind::kRandomTree,
                      ClassifierKind::kRandomForest, ClassifierKind::kRepTree,
                      ClassifierKind::kNaiveBayes, ClassifierKind::kLogistic,
                      ClassifierKind::kSmo, ClassifierKind::kSgd,
                      ClassifierKind::kKStar, ClassifierKind::kIbk),
    [](const ::testing::TestParamInfo<ClassifierKind>& info) {
      std::string name(classifierName(info.param));
      name.erase(std::remove(name.begin(), name.end(), ' '), name.end());
      return name;
    });

// ------------------------------------------------- kernel edge cases
//
// Predictions and meter counts captured from the reference kernels. The
// counts are taken in both styles; the optimized one runs at a fractional
// exposure, whose shared carry chain makes the order of charges observable.

/// Nonzero meter counts as "op=count" pairs.
std::string chargedOps(energy::SimMachine& machine) {
  std::string out;
  const auto& counts = machine.meter().counts();
  for (std::size_t op = 0; op < counts.size(); ++op) {
    if (counts[op] == 0) continue;
    if (!out.empty()) out += ' ';
    out += std::string(energy::opName(static_cast<energy::Op>(op))) + '=' +
           std::to_string(counts[op]);
  }
  return out;
}

struct KernelRun {
  std::string predictions;  // one digit per query row
  std::string baselineOps;
  std::string optimizedOps;
};

/// `fit(rt)` returns a classifier trained against `rt`; it is fitted once
/// per style and asked for every query row.
template <typename Fit>
KernelRun runBothStyles(Fit fit, const std::vector<std::vector<double>>& queries,
                        ClassifierKind exposureOf) {
  KernelRun run;
  for (int style = 0; style < 2; ++style) {
    energy::SimMachine machine;
    MlRuntime rt(machine,
                 style == 0 ? CodeStyle::javaBaseline()
                            : CodeStyle::jepoOptimized(),
                 style == 0 ? StyleExposure::full()
                            : StyleExposure::forClassifier(
                                  static_cast<int>(exposureOf)));
    const std::unique_ptr<Classifier> clf = fit(rt);
    std::string predictions;
    for (const auto& q : queries) {
      predictions += static_cast<char>('0' + clf->predict(q));
    }
    if (style == 0) {
      run.predictions = predictions;
      run.baselineOps = chargedOps(machine);
    } else {
      EXPECT_EQ(predictions, run.predictions) << "style changed predictions";
      run.optimizedOps = chargedOps(machine);
    }
  }
  return run;
}

std::vector<std::vector<double>> rowsOf(const Instances& data) {
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < data.numInstances(); ++i) {
    rows.push_back(data.row(i));
  }
  return rows;
}

/// A bootstrap bag over `n` rows: n draws with replacement.
std::vector<std::size_t> bootstrapBag(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> bag(n);
  for (auto& i : bag) i = rng.nextBelow(n);
  return bag;
}

/// The forest's per-tree options (RandomTree over a random feature subset).
TreeOptions forestTreeOptions() {
  TreeOptions opts;
  opts.gainRatio = false;
  opts.randomFeatures = 2;
  opts.minLeaf = 1;
  return opts;
}

const KernelRun kBagTree{
    "011111011111111111111111111101111100111111101111110111111111",
    "int_mod=128 long_alu=134 double_alu=3040 double_math=525 "
    "static_access=14 array_access=1260 array_row_load=18 branch=308 "
    "ternary=351 loop_iter=326 call=14 string_compare_to_char=768",
    "int_alu=74 int_mod=94 long_alu=94 float_alu=904 double_alu=2136 "
    "float_math=144 double_math=381 local_access=5 static_access=9 "
    "array_access=1080 array_row_load=15 branch=325 ternary=244 "
    "loop_iter=236 call=14 string_equals_char=230 "
    "string_compare_to_char=538 arraycopy_per_elem=90"};

TEST(KernelEdges, ForestTreeOnMaterializedBagWithDuplicates) {
  const Instances data = makeToyData(60, 81);
  const std::vector<std::size_t> bag = bootstrapBag(data.numInstances(), 5);
  ASSERT_LT(std::set<std::size_t>(bag.begin(), bag.end()).size(), bag.size())
      << "the bag must repeat rows";
  const KernelRun run = runBothStyles(
      [&](MlRuntime& rt) {
        auto tree = std::make_unique<DecisionTree<double>>(
            rt, forestTreeOptions(), Rng(13), "RandomTree");
        tree->train(data.select(bag));
        return tree;
      },
      rowsOf(data), ClassifierKind::kRandomForest);
  EXPECT_EQ(run.predictions, kBagTree.predictions);
  EXPECT_EQ(run.baselineOps, kBagTree.baselineOps);
  EXPECT_EQ(run.optimizedOps, kBagTree.optimizedOps);
}

TEST(KernelEdges, ForestTreeOnIndexBagEqualsMaterializedBag) {
  const Instances data = makeToyData(60, 81);
  const std::vector<std::size_t> bag = bootstrapBag(data.numInstances(), 5);
  const KernelRun run = runBothStyles(
      [&](MlRuntime& rt) {
        auto tree = std::make_unique<DecisionTree<double>>(
            rt, forestTreeOptions(), Rng(13), "RandomTree");
        tree->trainOn(data, bag);
        return tree;
      },
      rowsOf(data), ClassifierKind::kRandomForest);
  EXPECT_EQ(run.predictions, kBagTree.predictions);
  EXPECT_EQ(run.baselineOps, kBagTree.baselineOps);
  EXPECT_EQ(run.optimizedOps, kBagTree.optimizedOps);
}

TEST(KernelEdges, PrunedTreeOnIndexBagEqualsMaterializedBag) {
  // Reduced-error pruning shuffles the rows it is given and prunes on a
  // materialised third: both must see the same rows in the same order.
  const Instances data = makeToyData(90, 83);
  const std::vector<std::size_t> bag = bootstrapBag(data.numInstances(), 7);
  TreeOptions opts;
  opts.gainRatio = false;
  opts.reducedErrorPrune = true;
  const auto fit = [&](bool byIndex) {
    return [&, byIndex](MlRuntime& rt) {
      auto tree = std::make_unique<DecisionTree<float>>(rt, opts, Rng(21),
                                                        "REPTree");
      if (byIndex) {
        tree->trainOn(data, bag);
      } else {
        tree->train(data.select(bag));
      }
      return tree;
    };
  };
  const KernelRun materialized =
      runBothStyles(fit(false), rowsOf(data), ClassifierKind::kRepTree);
  const KernelRun indexed =
      runBothStyles(fit(true), rowsOf(data), ClassifierKind::kRepTree);
  EXPECT_EQ(indexed.predictions, materialized.predictions);
  EXPECT_EQ(indexed.baselineOps, materialized.baselineOps);
  EXPECT_EQ(indexed.optimizedOps, materialized.optimizedOps);
}

/// Class b iff x >= 5, over x = 0..9, beside a numeric column fixed at 3.
Instances constantColumnData() {
  std::vector<Attribute> attrs{Attribute::numeric("c"),
                               Attribute::numeric("x"),
                               Attribute::nominal("label", {"a", "b"})};
  Instances data("const", std::move(attrs), 2);
  for (int x = 0; x < 10; ++x) {
    data.addRow({3.0, static_cast<double>(x), x >= 5 ? 1.0 : 0.0});
  }
  return data;
}

TEST(KernelEdges, IbkIgnoresAConstantNumericColumn) {
  const Instances data = constantColumnData();
  // A zero-span column normalises to 0 on both sides, whatever the query
  // holds there; the nearest neighbour is decided by x alone.
  const KernelRun run = runBothStyles(
      [&](MlRuntime& rt) {
        auto clf = makeClassifier(ClassifierKind::kIbk, Precision::kDouble,
                                  rt, 1);
        clf->train(data);
        return clf;
      },
      {{3.0, 2.2, 0.0}, {3.0, 7.6, 0.0}, {99.0, 3.9, 0.0}, {-5.0, 5.2, 0.0}},
      ClassifierKind::kIbk);
  EXPECT_EQ(run.predictions, "0101");
  EXPECT_EQ(run.baselineOps, "int_alu=80 long_alu=4 double_alu=480 array_access=220 "
            "branch=30 loop_iter=110");
  EXPECT_EQ(run.optimizedOps, "int_alu=81 long_alu=3 float_alu=136 double_alu=344 "
            "array_access=204 branch=22 loop_iter=102 "
            "arraycopy_per_elem=8");
}

TEST(KernelEdges, KStarOnATwoLabelNominal) {
  // flag agrees with the class on 8 of 10 rows; x carries no signal. With
  // two labels the change probability is (1 - pStay) / (m - 1) at m - 1 = 1.
  std::vector<Attribute> attrs{Attribute::nominal("flag", {"no", "yes"}),
                               Attribute::numeric("x"),
                               Attribute::nominal("label", {"neg", "pos"})};
  Instances data("flag", std::move(attrs), 2);
  const double flags[10] = {0, 0, 0, 0, 1, 1, 1, 1, 1, 0};
  const double labels[10] = {0, 0, 0, 1, 1, 1, 1, 1, 0, 0};
  for (int i = 0; i < 10; ++i) {
    data.addRow({flags[i], static_cast<double>(i % 3), labels[i]});
  }
  const KernelRun run = runBothStyles(
      [&](MlRuntime& rt) {
        auto clf = makeClassifier(ClassifierKind::kKStar, Precision::kDouble,
                                  rt, 1);
        clf->train(data);
        return clf;
      },
      {{0.0, 1.0, 0.0}, {1.0, 1.0, 0.0}, {1.0, 0.0, 0.0}, {0.0, 2.0, 0.0}},
      ClassifierKind::kKStar);
  EXPECT_EQ(run.predictions, "0110");
  EXPECT_EQ(run.baselineOps, "double_alu=160 double_math=80 array_access=220 branch=30 "
            "loop_iter=130 string_compare_to_char=240");
  EXPECT_EQ(run.optimizedOps, "float_alu=33 double_alu=127 float_math=21 double_math=59 "
            "array_access=206 branch=23 loop_iter=123 "
            "string_equals_char=52 string_compare_to_char=188 "
            "arraycopy_per_elem=7");
}

TEST(KernelEdges, LazyLearnersOnQueriesOutsideTheTrainingRange) {
  const Instances data = constantColumnData();
  // x far below and far above every training value: normalised IBk
  // distances leave [0, 1], KStar's exponential kernels grow large.
  const std::vector<std::vector<double>> queries{
      {3.0, -40.0, 0.0}, {3.0, 1e3, 0.0}, {3.0, -1e-9, 0.0}, {3.0, 9.5, 0.0}};
  for (const ClassifierKind kind :
       {ClassifierKind::kIbk, ClassifierKind::kKStar}) {
    const KernelRun run = runBothStyles(
        [&](MlRuntime& rt) {
          auto clf = makeClassifier(kind, Precision::kDouble, rt, 1);
          clf->train(data);
          return clf;
        },
        queries, kind);
    if (kind == ClassifierKind::kIbk) {
      EXPECT_EQ(run.predictions, "0101");
      EXPECT_EQ(run.baselineOps,
                "int_alu=80 long_alu=4 double_alu=480 array_access=220 "
                "branch=30 loop_iter=110");
      EXPECT_EQ(run.optimizedOps,
                "int_alu=81 long_alu=3 float_alu=136 double_alu=344 "
                "array_access=204 branch=22 loop_iter=102 "
                "arraycopy_per_elem=8");
    } else {
      // At x = 1000 every similarity underflows to 0, and the all-zero
      // class scores fall back to the first class.
      EXPECT_EQ(run.predictions, "0001");
      EXPECT_EQ(run.baselineOps,
                "double_alu=320 double_math=40 array_access=220 branch=30 "
                "loop_iter=130");
      EXPECT_EQ(run.optimizedOps,
                "float_alu=71 double_alu=249 float_math=9 double_math=31 "
                "array_access=206 branch=23 loop_iter=123 "
                "arraycopy_per_elem=7");
    }
  }
}

// ------------------------------------------------------------ evaluation

TEST(Evaluation, PerfectOnSeparableData) {
  std::vector<Attribute> attrs{Attribute::numeric("x"),
                               Attribute::nominal("c", {"a", "b"})};
  Instances data("sep", attrs, 1);
  for (int i = 0; i < 50; ++i) {
    data.addRow({static_cast<double>(i), i < 25 ? 0.0 : 1.0});
  }
  energy::SimMachine machine;
  MlRuntime rt(machine, CodeStyle::jepoOptimized());
  auto clf = makeClassifier(ClassifierKind::kJ48, Precision::kDouble, rt, 1);
  clf->train(data);
  EXPECT_DOUBLE_EQ(accuracy(*clf, data), 1.0);
}

TEST(Evaluation, CrossValidationRunsAllFolds) {
  const Instances data = makeToyData(200, 71);
  energy::SimMachine machine;
  MlRuntime rt(machine, CodeStyle::jepoOptimized());
  Rng rng(5);
  int built = 0;
  const double acc = crossValidate(
      [&] {
        ++built;
        return makeClassifier(ClassifierKind::kNaiveBayes, Precision::kDouble,
                              rt, 9);
      },
      data, 10, rng);
  EXPECT_EQ(built, 10);
  EXPECT_GT(acc, 0.5);
  EXPECT_LE(acc, 1.0);
}

TEST(Evaluation, PredictBeforeTrainThrows) {
  energy::SimMachine machine;
  MlRuntime rt(machine, CodeStyle::javaBaseline());
  auto clf = makeClassifier(ClassifierKind::kIbk, Precision::kDouble, rt, 1);
  EXPECT_THROW(clf->predict({1.0, 2.0, 0.0, 0.0}), PreconditionError);
}

TEST(Classifier, NamesMatchPaperTable) {
  EXPECT_EQ(classifierName(ClassifierKind::kJ48), "J48");
  EXPECT_EQ(classifierName(ClassifierKind::kRandomForest), "Random Forest");
  EXPECT_EQ(classifierName(ClassifierKind::kKStar), "KStar");
  EXPECT_EQ(classifierName(ClassifierKind::kIbk), "IBk");
}

}  // namespace
}  // namespace jepo::ml
