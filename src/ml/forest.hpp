// RandomForest: bagging over RandomTrees (WEKA's RandomForest = bagged
// RandomTree with random feature selection per node).
#pragma once

#include <memory>

#include "ml/tree.hpp"

namespace jepo::ml {

struct ForestOptions {
  int numTrees = 10;       // WEKA defaults to 100; benches scale this
  int randomFeatures = 0;  // 0: ceil(log2(F) + 1), the WEKA default
};

template <typename Real>
class RandomForest final : public Classifier {
 public:
  RandomForest(MlRuntime& runtime, ForestOptions options, Rng rng);

  void train(const Instances& data) override;
  int predict(const std::vector<double>& row) const override;
  std::string name() const override { return "RandomForest"; }

 private:
  MlRuntime* rt_;
  ForestOptions options_;
  Rng rng_;
  std::vector<std::unique_ptr<DecisionTree<Real>>> trees_;
  std::size_t numClasses_ = 0;
};

extern template class RandomForest<float>;
extern template class RandomForest<double>;

}  // namespace jepo::ml
