// WEKA-style dataset model: attributes (numeric or nominal), instances,
// and the stratified fold machinery Section VIII's evaluation uses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace jepo::ml {

enum class AttrKind : int { kNumeric, kNominal };

class Attribute {
 public:
  static Attribute numeric(std::string name) {
    Attribute a;
    a.name_ = std::move(name);
    a.kind_ = AttrKind::kNumeric;
    return a;
  }
  static Attribute nominal(std::string name, std::vector<std::string> labels) {
    JEPO_REQUIRE(!labels.empty(), "nominal attribute needs labels");
    Attribute a;
    a.name_ = std::move(name);
    a.kind_ = AttrKind::kNominal;
    a.labels_ = std::move(labels);
    return a;
  }

  const std::string& name() const noexcept { return name_; }
  AttrKind kind() const noexcept { return kind_; }
  bool isNominal() const noexcept { return kind_ == AttrKind::kNominal; }
  bool isNumeric() const noexcept { return kind_ == AttrKind::kNumeric; }

  /// Distinct labels of a nominal attribute.
  std::size_t numLabels() const noexcept { return labels_.size(); }
  const std::string& label(std::size_t i) const { return labels_.at(i); }

 private:
  std::string name_;
  AttrKind kind_ = AttrKind::kNumeric;
  std::vector<std::string> labels_;
};

/// A dataset: schema + dense rows. Nominal values are stored as label
/// indices (doubles, WEKA-style), numeric values as themselves.
class Instances {
 public:
  Instances(std::string relation, std::vector<Attribute> attributes,
            int classIndex);

  std::size_t numAttributes() const noexcept { return attributes_.size(); }
  std::size_t numInstances() const noexcept { return rows_.size(); }
  int classIndex() const noexcept { return classIndex_; }
  const Attribute& attribute(std::size_t i) const {
    return attributes_.at(i);
  }
  const Attribute& classAttribute() const {
    return attributes_.at(static_cast<std::size_t>(classIndex_));
  }
  std::size_t numClasses() const { return classAttribute().numLabels(); }

  void addRow(std::vector<double> row);
  const std::vector<double>& row(std::size_t i) const { return rows_.at(i); }
  double value(std::size_t row, std::size_t attr) const {
    return rows_.at(row).at(attr);
  }
  int classValue(std::size_t row) const {
    return static_cast<int>(
        rows_.at(row).at(static_cast<std::size_t>(classIndex_)));
  }

  /// Indices of non-class attributes, in order.
  std::vector<std::size_t> featureIndices() const;

  /// Fraction of instances in the most common class (baseline accuracy).
  double majorityClassFraction() const;

  /// An empty dataset with the same schema.
  Instances emptyCopy() const { return Instances(relation_, attributes_, classIndex_); }

  /// Deterministic shuffle + truncation to the first n rows (the paper
  /// reduces MOA to 10,000 instances for heap reasons).
  Instances subsample(std::size_t n, Rng& rng) const;

  /// Stratified k-fold split: returns, per fold, {trainIdx, testIdx}. Every
  /// instance appears in exactly one test fold; class ratios are preserved
  /// per fold as closely as counts allow.
  struct Fold {
    std::vector<std::size_t> train;
    std::vector<std::size_t> test;
  };
  std::vector<Fold> stratifiedFolds(std::size_t k, Rng& rng) const;

  /// Materialize a subset by row indices.
  Instances select(const std::vector<std::size_t>& indices) const;

  /// Per-attribute min/max over numeric attributes (for normalization).
  struct NumericRange {
    double min = 0.0;
    double max = 0.0;
  };
  std::vector<NumericRange> numericRanges() const;

 private:
  std::string relation_;
  std::vector<Attribute> attributes_;
  int classIndex_;
  std::vector<std::vector<double>> rows_;
};

}  // namespace jepo::ml
