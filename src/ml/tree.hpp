// Decision-tree machinery shared by J48 (C4.5), RandomTree and REPTree.
//
// One templated implementation covers the three classifiers through
// TreeOptions: J48 uses gain ratio + C4.5 pessimistic (confidence) pruning;
// RandomTree considers a random feature subset per node and does not prune;
// REPTree uses plain information gain plus reduced-error pruning on a
// held-out third of the training data — the algorithms named in §VIII.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/classifier.hpp"
#include "support/rng.hpp"

namespace jepo::ml {

struct TreeOptions {
  bool gainRatio = true;          // false: plain information gain
  int randomFeatures = 0;         // >0: evaluate only K random features/node
  int minLeaf = 2;                // minimum instances per leaf
  bool pessimisticPrune = false;  // C4.5 confidence-based pruning (CF=0.25)
  bool reducedErrorPrune = false; // prune on a held-out 1/3
  int maxDepth = 0;               // 0 = unlimited
};

template <typename Real>
class DecisionTree final : public Classifier {
 public:
  DecisionTree(MlRuntime& runtime, TreeOptions options, Rng rng,
               std::string displayName);

  void train(const Instances& data) override;
  /// Trains on the rows of `data` that `rows` lists, repeats included: the
  /// tree train(data.select(rows)) grows, without copying the rows.
  void trainOn(const Instances& data, std::vector<std::size_t> rows);
  int predict(const std::vector<double>& row) const override;
  std::string name() const override { return displayName_; }

 private:
  struct Node {
    int attr = -1;  // -1: leaf
    Real threshold = Real(0);  // numeric split: value <= threshold -> child 0
    bool numericSplit = false;
    std::vector<int> children;
    std::vector<Real> dist;  // class counts seen at this node
    int majority = 0;
  };

  int buildNode(const Instances& data, std::vector<std::size_t>& indices,
                int depth);
  int makeLeaf(const Instances& data,
               const std::vector<std::size_t>& indices);

  struct SplitChoice {
    int attr = -1;
    Real threshold = Real(0);
    bool numeric = false;
    Real score = Real(-1);
  };
  SplitChoice findBestSplit(const Instances& data,
                            const std::vector<std::size_t>& indices);
  Real entropyOf(const std::vector<Real>& counts, Real total) const;

  void pruneReducedError(const Instances& pruneSet);
  void prunePessimistic();
  // Returns (#errors on subtree, #instances) for reduced-error pruning.
  std::pair<double, double> pruneWalk(int nodeIdx, const Instances& pruneSet,
                                      std::vector<std::vector<std::size_t>>&
                                          nodeInstances);

  int predictFrom(int nodeIdx, const std::vector<double>& row) const;

  MlRuntime* rt_;
  TreeOptions options_;
  Rng rng_;
  std::string displayName_;
  std::vector<Node> nodes_;
  int root_ = -1;
  std::size_t numClasses_ = 0;
};

extern template class DecisionTree<float>;
extern template class DecisionTree<double>;

}  // namespace jepo::ml
