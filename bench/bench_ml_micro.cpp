// google-benchmark micro suite for the mini-WEKA: dataset generation,
// training and prediction throughput per classifier, and the CodeStyle
// metering overhead.
#include <benchmark/benchmark.h>

#include "bench_micro.hpp"
#include "data/airlines.hpp"
#include "ml/evaluation.hpp"

namespace {

using namespace jepo;

ml::Instances sampleData(std::size_t n) {
  data::AirlinesConfig cfg;
  cfg.instances = n;
  return data::generateAirlines(cfg);
}

void BM_GenerateAirlines(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    data::AirlinesConfig cfg;
    cfg.instances = n;
    benchmark::DoNotOptimize(data::generateAirlines(cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GenerateAirlines)->Arg(1000)->Arg(10000);

template <ml::ClassifierKind Kind>
void BM_Train(benchmark::State& state) {
  const ml::Instances data = sampleData(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    energy::SimMachine machine;
    ml::MlRuntime rt(machine, ml::CodeStyle::javaBaseline());
    auto clf = ml::makeClassifier(Kind, ml::Precision::kDouble, rt, 7);
    clf->train(data);
    benchmark::DoNotOptimize(clf.get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Train<ml::ClassifierKind::kJ48>)->Arg(500);
BENCHMARK(BM_Train<ml::ClassifierKind::kRandomTree>)->Arg(500);
BENCHMARK(BM_Train<ml::ClassifierKind::kRandomForest>)->Arg(500);
BENCHMARK(BM_Train<ml::ClassifierKind::kRepTree>)->Arg(500);
BENCHMARK(BM_Train<ml::ClassifierKind::kNaiveBayes>)->Arg(500);
BENCHMARK(BM_Train<ml::ClassifierKind::kLogistic>)->Arg(500);
BENCHMARK(BM_Train<ml::ClassifierKind::kSgd>)->Arg(500);
BENCHMARK(BM_Train<ml::ClassifierKind::kSmo>)->Arg(500);

/// One prediction per iteration, cycling through the training rows. The
/// optimized twin is Table IV's optimized stream: the JEPO style at the
/// classifier's calibrated exposure, in float.
void predictRows(benchmark::State& state, ml::ClassifierKind kind,
                 bool optimized) {
  const ml::Instances data = sampleData(500);
  energy::SimMachine machine;
  ml::MlRuntime rt(machine,
                   optimized ? ml::CodeStyle::jepoOptimized()
                             : ml::CodeStyle::javaBaseline(),
                   optimized ? ml::StyleExposure::forClassifier(
                                   static_cast<int>(kind))
                             : ml::StyleExposure::full());
  auto clf = ml::makeClassifier(
      kind, optimized ? ml::Precision::kFloat : ml::Precision::kDouble, rt,
      7);
  clf->train(data);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clf->predict(data.row(i)));
    i = (i + 1) % data.numInstances();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_PredictIbk(benchmark::State& state) {
  predictRows(state, ml::ClassifierKind::kIbk, false);
}
BENCHMARK(BM_PredictIbk);

void BM_PredictIbkOptimized(benchmark::State& state) {
  predictRows(state, ml::ClassifierKind::kIbk, true);
}
BENCHMARK(BM_PredictIbkOptimized);

void BM_PredictKStar(benchmark::State& state) {
  predictRows(state, ml::ClassifierKind::kKStar, false);
}
BENCHMARK(BM_PredictKStar);

void BM_PredictKStarOptimized(benchmark::State& state) {
  predictRows(state, ml::ClassifierKind::kKStar, true);
}
BENCHMARK(BM_PredictKStarOptimized);

void BM_CrossValidateNaiveBayes(benchmark::State& state) {
  const ml::Instances data = sampleData(400);
  for (auto _ : state) {
    energy::SimMachine machine;
    ml::MlRuntime rt(machine, ml::CodeStyle::jepoOptimized());
    Rng rng(3);
    benchmark::DoNotOptimize(ml::crossValidate(
        [&] {
          return ml::makeClassifier(ml::ClassifierKind::kNaiveBayes,
                                    ml::Precision::kDouble, rt, 7);
        },
        data, 10, rng));
  }
}
BENCHMARK(BM_CrossValidateNaiveBayes);

void BM_StratifiedFolds(benchmark::State& state) {
  const ml::Instances data = sampleData(5000);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(data.stratifiedFolds(10, rng));
  }
}
BENCHMARK(BM_StratifiedFolds);

}  // namespace

int main(int argc, char** argv) {
  return jepo::bench::microMain("bench_ml_micro", argc, argv);
}
