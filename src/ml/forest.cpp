#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>

namespace jepo::ml {

template <typename Real>
RandomForest<Real>::RandomForest(MlRuntime& runtime, ForestOptions options,
                                 Rng rng)
    : rt_(&runtime), options_(options), rng_(rng) {}

template <typename Real>
void RandomForest<Real>::train(const Instances& data) {
  JEPO_REQUIRE(options_.numTrees > 0, "forest needs at least one tree");
  trees_.clear();
  numClasses_ = data.numClasses();

  int k = options_.randomFeatures;
  if (k <= 0) {
    const double f = static_cast<double>(data.featureIndices().size());
    k = static_cast<int>(std::ceil(std::log2(std::max(2.0, f)) + 1.0));
  }

  const std::size_t n = data.numInstances();
  for (int t = 0; t < options_.numTrees; ++t) {
    // Bootstrap sample (n draws with replacement).
    std::vector<std::size_t> sample(n);
    for (std::size_t i = 0; i < n; ++i) sample[i] = rng_.nextBelow(n);
    rt_->buckets(n);     // reservoir slotting of the bootstrap draws
    rt_->bufferCopy(n);  // materializing the bag

    TreeOptions treeOpts;
    treeOpts.gainRatio = false;  // RandomTree uses plain info gain
    treeOpts.randomFeatures = k;
    treeOpts.minLeaf = 1;
    auto tree = std::make_unique<DecisionTree<Real>>(
        *rt_, treeOpts, rng_.split(), "RandomTree");
    // WEKA copies the bag (charged above); the tree reads it by index.
    tree->trainOn(data, std::move(sample));
    trees_.push_back(std::move(tree));
  }
}

template <typename Real>
int RandomForest<Real>::predict(const std::vector<double>& row) const {
  JEPO_REQUIRE(!trees_.empty(), "predict before train");
  std::vector<int> votes(numClasses_, 0);
  for (const auto& tree : trees_) {
    ++votes[static_cast<std::size_t>(tree->predict(row))];
    rt_->counterOps(1);
  }
  rt_->selections(votes.size());
  return static_cast<int>(std::distance(
      votes.begin(), std::max_element(votes.begin(), votes.end())));
}

template class RandomForest<float>;
template class RandomForest<double>;

}  // namespace jepo::ml
