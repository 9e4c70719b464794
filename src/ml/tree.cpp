#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace jepo::ml {

namespace {

/// C4.5 pessimistic error: upper confidence bound on the error rate of a
/// node that misclassifies e of n instances (CF = 0.25 → z = 0.6925).
double pessimisticErrors(double e, double n) {
  if (n <= 0.0) return 0.0;
  constexpr double z = 0.6925;
  const double f = e / n;
  const double z2 = z * z;
  const double upper =
      (f + z2 / (2 * n) +
       z * std::sqrt(f / n - f * f / n + z2 / (4 * n * n))) /
      (1 + z2 / n);
  return upper * n;
}

}  // namespace

template <typename Real>
DecisionTree<Real>::DecisionTree(MlRuntime& runtime, TreeOptions options,
                                 Rng rng, std::string displayName)
    : rt_(&runtime),
      options_(options),
      rng_(rng),
      displayName_(std::move(displayName)) {}

template <typename Real>
Real DecisionTree<Real>::entropyOf(const std::vector<Real>& counts,
                                   Real total) const {
  if (total <= Real(0)) return Real(0);
  Real h = Real(0);
  for (Real c : counts) {
    if (c <= Real(0)) continue;
    const Real p = c / total;
    h -= p * Real(std::log(static_cast<double>(p)));
  }
  rt_->mathCalls(counts.size());
  rt_->flops(3 * counts.size());
  return h;
}

template <typename Real>
typename DecisionTree<Real>::SplitChoice DecisionTree<Real>::findBestSplit(
    const Instances& data, const std::vector<std::size_t>& indices) {
  const std::size_t n = indices.size();
  const std::size_t classes = numClasses_;

  // Parent distribution.
  std::vector<Real> parent(classes, Real(0));
  for (std::size_t i : indices) {
    parent[static_cast<std::size_t>(data.classValue(i))] += Real(1);
  }
  rt_->arrayOps(n);
  rt_->counterOps(n);
  const Real parentH = entropyOf(parent, Real(n));

  // Candidate features (all, or a random subset for RandomTree/forests).
  std::vector<std::size_t> features = data.featureIndices();
  if (options_.randomFeatures > 0 &&
      static_cast<std::size_t>(options_.randomFeatures) < features.size()) {
    for (std::size_t i = features.size(); i > 1; --i) {
      std::swap(features[i - 1], features[rng_.nextBelow(i)]);
    }
    features.resize(static_cast<std::size_t>(options_.randomFeatures));
  }

  // Candidate per attribute: corrected gain + split info; the winner is
  // chosen afterwards (C4.5 applies the gain ratio only among attributes
  // with at least average gain, which stops low-splitInfo noise attributes
  // from gaming the ratio).
  struct Candidate {
    int attr = -1;
    Real threshold = Real(0);
    bool numeric = false;
    Real gain = Real(-1);
    Real splitInfo = Real(1);
  };
  std::vector<Candidate> candidates;

  for (std::size_t attr : features) {
    rt_->configReads(1);  // per-split option lookups (minLeaf, CF, ...)
    const Attribute& a = data.attribute(attr);
    if (a.isNominal()) {
      const std::size_t labels = a.numLabels();
      // labels x classes contingency table.
      std::vector<Real> table(labels * classes, Real(0));
      std::vector<Real> labelTotals(labels, Real(0));
      for (std::size_t i : indices) {
        const auto lbl = static_cast<std::size_t>(data.value(i, attr));
        table[lbl * classes + static_cast<std::size_t>(data.classValue(i))] +=
            Real(1);
        labelTotals[lbl] += Real(1);
        rt_->buckets(1);  // label -> bucket index
        rt_->keyCompare(6);  // matching the nominal label key
      }
      rt_->matrixSweep(labels, classes);
      Real childH = Real(0);
      Real splitInfo = Real(0);
      for (std::size_t l = 0; l < labels; ++l) {
        if (labelTotals[l] <= Real(0)) continue;
        std::vector<Real> row(table.begin() + static_cast<std::ptrdiff_t>(
                                                  l * classes),
                              table.begin() + static_cast<std::ptrdiff_t>(
                                                  (l + 1) * classes));
        childH += labelTotals[l] / Real(n) * entropyOf(row, labelTotals[l]);
        const Real p = labelTotals[l] / Real(n);
        splitInfo -= p * Real(std::log(static_cast<double>(p)));
        rt_->flops(4);
      }
      Real gain = parentH - childH;
      // Chi-square correction: splitting random data over k cells yields
      // spurious gain ~ (k-1)(c-1)/(2n) nats; without this, 293-label
      // attributes (airports) win every split by overfitting.
      gain -= Real(labels - 1) * Real(classes - 1) / Real(2 * n);
      rt_->flops(3);
      if (splitInfo <= Real(1e-8)) continue;
      candidates.push_back(Candidate{static_cast<int>(attr), Real(0), false,
                                     gain, splitInfo});
    } else {
      // Numeric: gather (value, class) once, sort by value, scan boundary
      // thresholds. Class counts are read only where the value changes,
      // so the order among equal values does not affect the split.
      struct Keyed {
        double value;
        int cls;
      };
      std::vector<Keyed> sorted;
      sorted.reserve(n);
      for (std::size_t i : indices) {
        sorted.push_back(Keyed{data.value(i, attr), data.classValue(i)});
      }
      std::sort(sorted.begin(), sorted.end(),
                [](const Keyed& x, const Keyed& y) {
                  return x.value < y.value;
                });
      rt_->flops(static_cast<std::uint64_t>(
          static_cast<double>(n) *
          std::max(1.0, std::log2(static_cast<double>(std::max<std::size_t>(
                            n, 2))))));
      rt_->bufferCopy(n);  // working copy of the index array

      std::vector<Real> left(classes, Real(0));
      std::vector<Real> right = parent;
      Real bestLocal = Real(-1);
      Real bestThr = Real(0);
      Real bestSplitInfo = Real(1);
      for (std::size_t k = 0; k + 1 < n; ++k) {
        const auto cls = static_cast<std::size_t>(sorted[k].cls);
        left[cls] += Real(1);
        right[cls] -= Real(1);
        rt_->arrayOps(2);
        rt_->selections(1);  // boundary check
        const double v = sorted[k].value;
        const double vNext = sorted[k + 1].value;
        if (v >= vNext) continue;  // not a class boundary candidate
        const Real nl = Real(k + 1);
        const Real nr = Real(n - k - 1);
        const Real childH = nl / Real(n) * entropyOf(left, nl) +
                            nr / Real(n) * entropyOf(right, nr);
        const Real gain = parentH - childH;
        rt_->flops(6);
        if (gain > bestLocal) {
          bestLocal = gain;
          bestThr = Real((v + vNext) / 2.0);
          const Real pl = nl / Real(n);
          const Real pr = nr / Real(n);
          bestSplitInfo = -pl * Real(std::log(static_cast<double>(pl))) -
                          pr * Real(std::log(static_cast<double>(pr)));
          rt_->mathCalls(2);
        }
      }
      if (bestLocal <= Real(0)) continue;
      // C4.5's MDL correction for numeric attributes: charge the choice of
      // threshold log(candidates)/n nats.
      bestLocal -= Real(std::log(static_cast<double>(std::max<std::size_t>(
                       2, n - 1)))) /
                   Real(n);
      rt_->mathCalls(1);
      candidates.push_back(Candidate{static_cast<int>(attr), bestThr, true,
                                     bestLocal, bestSplitInfo});
    }
  }

  // Winner selection. Plain info-gain trees take the best corrected gain;
  // gain-ratio trees (C4.5) take the best ratio among candidates with at
  // least average gain.
  SplitChoice best;
  if (candidates.empty()) return best;
  if (!options_.gainRatio) {
    for (const auto& c : candidates) {
      if (c.gain > best.score) {
        best = SplitChoice{c.attr, c.threshold, c.numeric, c.gain};
      }
    }
    return best;
  }
  Real avgGain = Real(0);
  for (const auto& c : candidates) avgGain += c.gain;
  avgGain /= Real(candidates.size());
  rt_->flops(candidates.size() + 1);
  for (const auto& c : candidates) {
    if (c.gain + Real(1e-9) < avgGain || c.gain <= Real(0)) continue;
    const Real ratio = c.gain / c.splitInfo;
    rt_->flopDivs(1);
    if (ratio > best.score) {
      best = SplitChoice{c.attr, c.threshold, c.numeric, ratio};
    }
  }
  return best;
}

template <typename Real>
int DecisionTree<Real>::makeLeaf(const Instances& data,
                                 const std::vector<std::size_t>& indices) {
  Node node;
  node.dist.assign(numClasses_, Real(0));
  for (std::size_t i : indices) {
    node.dist[static_cast<std::size_t>(data.classValue(i))] += Real(1);
  }
  node.majority = static_cast<int>(std::distance(
      node.dist.begin(), std::max_element(node.dist.begin(), node.dist.end())));
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size() - 1);
}

template <typename Real>
int DecisionTree<Real>::buildNode(const Instances& data,
                                  std::vector<std::size_t>& indices,
                                  int depth) {
  rt_->calls(1);
  const std::size_t n = indices.size();
  // Stop: small node, pure node, or depth cap.
  bool pure = true;
  const int firstClass = n == 0 ? 0 : data.classValue(indices[0]);
  for (std::size_t i : indices) {
    if (data.classValue(i) != firstClass) {
      pure = false;
      break;
    }
  }
  if (n < static_cast<std::size_t>(2 * options_.minLeaf) || pure ||
      (options_.maxDepth > 0 && depth >= options_.maxDepth)) {
    return makeLeaf(data, indices);
  }

  const SplitChoice split = findBestSplit(data, indices);
  if (split.attr < 0 || split.score <= Real(1e-9)) {
    return makeLeaf(data, indices);
  }

  // Partition.
  const Attribute& a = data.attribute(static_cast<std::size_t>(split.attr));
  std::vector<std::vector<std::size_t>> parts;
  if (split.numeric) {
    parts.resize(2);
    for (std::size_t i : indices) {
      const bool goLeft =
          Real(data.value(i, static_cast<std::size_t>(split.attr))) <=
          split.threshold;
      parts[goLeft ? 0 : 1].push_back(i);
      rt_->selections(1);
    }
  } else {
    parts.resize(a.numLabels());
    for (std::size_t i : indices) {
      parts[static_cast<std::size_t>(
                data.value(i, static_cast<std::size_t>(split.attr)))]
          .push_back(i);
      rt_->buckets(1);
    }
  }
  rt_->bufferCopy(n);

  // Degenerate partitions become leaves.
  std::size_t nonEmpty = 0;
  for (const auto& p : parts) nonEmpty += !p.empty();
  if (nonEmpty < 2) return makeLeaf(data, indices);

  const int me = makeLeaf(data, indices);  // records dist/majority
  std::vector<int> children;
  children.reserve(parts.size());
  for (auto& p : parts) {
    if (p.empty()) {
      // Empty branch predicts the parent majority.
      Node leaf;
      leaf.dist = nodes_[static_cast<std::size_t>(me)].dist;
      leaf.majority = nodes_[static_cast<std::size_t>(me)].majority;
      nodes_.push_back(std::move(leaf));
      children.push_back(static_cast<int>(nodes_.size() - 1));
    } else {
      children.push_back(buildNode(data, p, depth + 1));
    }
  }
  Node& node = nodes_[static_cast<std::size_t>(me)];
  node.attr = split.attr;
  node.numericSplit = split.numeric;
  node.threshold = split.threshold;
  node.children = std::move(children);
  return me;
}

template <typename Real>
void DecisionTree<Real>::train(const Instances& data) {
  std::vector<std::size_t> all(data.numInstances());
  std::iota(all.begin(), all.end(), 0);
  trainOn(data, std::move(all));
}

template <typename Real>
void DecisionTree<Real>::trainOn(const Instances& data,
                                 std::vector<std::size_t> rows) {
  JEPO_REQUIRE(!rows.empty(), "empty training set");
  nodes_.clear();
  numClasses_ = data.numClasses();

  if (options_.reducedErrorPrune && rows.size() >= 10) {
    // Grow on 2/3, prune on 1/3 (WEKA REPTree numFolds=3).
    for (std::size_t i = rows.size(); i > 1; --i) {
      std::swap(rows[i - 1], rows[rng_.nextBelow(i)]);
    }
    const std::size_t growN = rows.size() * 2 / 3;
    std::vector<std::size_t> grow(rows.begin(),
                                  rows.begin() + static_cast<std::ptrdiff_t>(
                                                     growN));
    std::vector<std::size_t> prune(rows.begin() + static_cast<std::ptrdiff_t>(
                                                      growN),
                                   rows.end());
    root_ = buildNode(data, grow, 0);
    pruneReducedError(data.select(prune));
  } else {
    root_ = buildNode(data, rows, 0);
    if (options_.pessimisticPrune) prunePessimistic();
  }
}

template <typename Real>
void DecisionTree<Real>::pruneReducedError(const Instances& pruneSet) {
  // Route prune instances to every node on their path.
  std::vector<std::vector<std::size_t>> nodeInstances(nodes_.size());
  for (std::size_t i = 0; i < pruneSet.numInstances(); ++i) {
    int cur = root_;
    for (;;) {
      nodeInstances[static_cast<std::size_t>(cur)].push_back(i);
      const Node& node = nodes_[static_cast<std::size_t>(cur)];
      if (node.attr < 0) break;
      const double v = pruneSet.value(i, static_cast<std::size_t>(node.attr));
      if (node.numericSplit) {
        cur = node.children[Real(v) <= node.threshold ? 0 : 1];
      } else {
        const auto lbl = static_cast<std::size_t>(v);
        cur = lbl < node.children.size() ? node.children[lbl]
                                         : node.children[0];
      }
      rt_->selections(1);
    }
  }
  pruneWalk(root_, pruneSet, nodeInstances);
}

template <typename Real>
std::pair<double, double> DecisionTree<Real>::pruneWalk(
    int nodeIdx, const Instances& pruneSet,
    std::vector<std::vector<std::size_t>>& nodeInstances) {
  Node& node = nodes_[static_cast<std::size_t>(nodeIdx)];
  const auto& here = nodeInstances[static_cast<std::size_t>(nodeIdx)];
  double leafErrors = 0.0;
  for (std::size_t i : here) {
    leafErrors += pruneSet.classValue(i) != node.majority;
  }
  rt_->counterOps(here.size());
  if (node.attr < 0) return {leafErrors, static_cast<double>(here.size())};

  double subtreeErrors = 0.0;
  for (int child : node.children) {
    subtreeErrors += pruneWalk(child, pruneSet, nodeInstances).first;
  }
  if (leafErrors <= subtreeErrors) {
    // Collapse: predicting the majority here is no worse on held-out data.
    node.attr = -1;
    node.children.clear();
    return {leafErrors, static_cast<double>(here.size())};
  }
  return {subtreeErrors, static_cast<double>(here.size())};
}

template <typename Real>
void DecisionTree<Real>::prunePessimistic() {
  // Bottom-up over the node vector (children always have larger indices
  // except the parent-first makeLeaf order; a reverse pass converges here
  // because child indices are strictly greater than their parent's).
  for (std::size_t k = nodes_.size(); k-- > 0;) {
    Node& node = nodes_[k];
    if (node.attr < 0) continue;
    const double n =
        static_cast<double>(std::accumulate(node.dist.begin(),
                                            node.dist.end(), Real(0)));
    const double e =
        n - static_cast<double>(node.dist[static_cast<std::size_t>(
                node.majority)]);
    const double leafEst = pessimisticErrors(e, n);
    double subtreeEst = 0.0;
    for (int child : node.children) {
      const Node& c = nodes_[static_cast<std::size_t>(child)];
      const double cn = static_cast<double>(
          std::accumulate(c.dist.begin(), c.dist.end(), Real(0)));
      const double ce =
          cn - static_cast<double>(c.dist[static_cast<std::size_t>(
                   c.majority)]);
      subtreeEst += pessimisticErrors(ce, cn);
      rt_->mathCalls(1);
    }
    if (leafEst <= subtreeEst + 0.1) {
      node.attr = -1;
      node.children.clear();
    }
  }
}

template <typename Real>
int DecisionTree<Real>::predictFrom(int nodeIdx,
                                    const std::vector<double>& row) const {
  const Node* node = &nodes_[static_cast<std::size_t>(nodeIdx)];
  while (node->attr >= 0) {
    const double v = row.at(static_cast<std::size_t>(node->attr));
    rt_->selections(1);
    rt_->arrayOps(1);
    if (node->numericSplit) {
      node = &nodes_[static_cast<std::size_t>(
          node->children[Real(v) <= node->threshold ? 0 : 1])];
    } else {
      const auto lbl = static_cast<std::size_t>(v);
      const int next = lbl < node->children.size()
                           ? node->children[lbl]
                           : node->children[0];
      rt_->keyCompare(6);
      node = &nodes_[static_cast<std::size_t>(next)];
    }
  }
  return node->majority;
}

template <typename Real>
int DecisionTree<Real>::predict(const std::vector<double>& row) const {
  JEPO_REQUIRE(root_ >= 0, "predict before train");
  return predictFrom(root_, row);
}

template class DecisionTree<float>;
template class DecisionTree<double>;

}  // namespace jepo::ml
