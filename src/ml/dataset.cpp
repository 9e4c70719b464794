#include "ml/dataset.hpp"

#include <algorithm>
#include <numeric>

namespace jepo::ml {

Instances::Instances(std::string relation, std::vector<Attribute> attributes,
                     int classIndex)
    : relation_(std::move(relation)),
      attributes_(std::move(attributes)),
      classIndex_(classIndex) {
  JEPO_REQUIRE(classIndex_ >= 0 &&
                   static_cast<std::size_t>(classIndex_) < attributes_.size(),
               "class index out of range");
  JEPO_REQUIRE(attributes_[static_cast<std::size_t>(classIndex_)].isNominal(),
               "class attribute must be nominal");
}

void Instances::addRow(std::vector<double> row) {
  JEPO_REQUIRE(row.size() == attributes_.size(),
               "row width does not match schema");
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (attributes_[i].isNominal()) {
      const auto v = static_cast<std::int64_t>(row[i]);
      JEPO_REQUIRE(v >= 0 && static_cast<std::size_t>(v) <
                                 attributes_[i].numLabels(),
                   "nominal value out of range for " + attributes_[i].name());
    }
  }
  rows_.push_back(std::move(row));
}

std::vector<std::size_t> Instances::featureIndices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < attributes_.size(); ++i) {
    if (static_cast<int>(i) != classIndex_) out.push_back(i);
  }
  return out;
}

double Instances::majorityClassFraction() const {
  if (rows_.empty()) return 0.0;
  std::vector<std::size_t> counts(numClasses(), 0);
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    ++counts[static_cast<std::size_t>(classValue(i))];
  }
  const std::size_t best = *std::max_element(counts.begin(), counts.end());
  return static_cast<double>(best) / static_cast<double>(rows_.size());
}

Instances Instances::subsample(std::size_t n, Rng& rng) const {
  std::vector<std::size_t> idx(rows_.size());
  std::iota(idx.begin(), idx.end(), 0);
  // Fisher-Yates with our deterministic generator.
  for (std::size_t i = idx.size(); i > 1; --i) {
    std::swap(idx[i - 1], idx[rng.nextBelow(i)]);
  }
  idx.resize(std::min(n, idx.size()));
  return select(idx);
}

std::vector<Instances::Fold> Instances::stratifiedFolds(std::size_t k,
                                                        Rng& rng) const {
  JEPO_REQUIRE(k >= 2, "need at least two folds");
  JEPO_REQUIRE(rows_.size() >= k, "fewer instances than folds");

  // Bucket shuffled indices by class, then deal them round-robin so each
  // fold receives the same class mix.
  std::vector<std::vector<std::size_t>> byClass(numClasses());
  std::vector<std::size_t> idx(rows_.size());
  std::iota(idx.begin(), idx.end(), 0);
  for (std::size_t i = idx.size(); i > 1; --i) {
    std::swap(idx[i - 1], idx[rng.nextBelow(i)]);
  }
  for (std::size_t i : idx) {
    byClass[static_cast<std::size_t>(classValue(i))].push_back(i);
  }

  std::vector<std::vector<std::size_t>> testSets(k);
  std::size_t dealt = 0;
  for (const auto& bucket : byClass) {
    for (std::size_t i : bucket) {
      testSets[dealt % k].push_back(i);
      ++dealt;
    }
  }

  std::vector<Fold> folds(k);
  for (std::size_t f = 0; f < k; ++f) {
    folds[f].test = testSets[f];
    for (std::size_t g = 0; g < k; ++g) {
      if (g == f) continue;
      folds[f].train.insert(folds[f].train.end(), testSets[g].begin(),
                            testSets[g].end());
    }
  }
  return folds;
}

Instances Instances::select(const std::vector<std::size_t>& indices) const {
  Instances out = emptyCopy();
  for (std::size_t i : indices) out.addRow(rows_.at(i));
  return out;
}

std::vector<Instances::NumericRange> Instances::numericRanges() const {
  std::vector<NumericRange> out(attributes_.size());
  for (std::size_t a = 0; a < attributes_.size(); ++a) {
    if (!attributes_[a].isNumeric() || rows_.empty()) continue;
    double lo = rows_[0][a];
    double hi = rows_[0][a];
    for (const auto& r : rows_) {
      lo = std::min(lo, r[a]);
      hi = std::max(hi, r[a]);
    }
    out[a] = NumericRange{lo, hi};
  }
  return out;
}

}  // namespace jepo::ml
