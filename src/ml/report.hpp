// Full WEKA-style evaluation report: confusion matrix, per-class precision
// / recall / F1, overall accuracy and Cohen's kappa — what `weka.classifiers
// .Evaluation` prints after cross-validation.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ml/classifier.hpp"

namespace jepo::ml {

class EvaluationReport {
 public:
  explicit EvaluationReport(std::size_t numClasses);

  /// Record one prediction.
  void add(int actual, int predicted);

  std::size_t total() const noexcept { return total_; }
  std::size_t correct() const noexcept { return correct_; }
  double accuracy() const;

  /// confusion()[actual][predicted]
  const std::vector<std::vector<std::size_t>>& confusion() const noexcept {
    return matrix_;
  }

  double precision(std::size_t cls) const;  // TP / (TP + FP)
  double recall(std::size_t cls) const;     // TP / (TP + FN)
  double f1(std::size_t cls) const;
  double kappa() const;  // Cohen's kappa vs chance agreement

  /// WEKA-flavoured text render (summary + per-class table + matrix).
  std::string render(const Attribute& classAttr) const;

 private:
  std::vector<std::vector<std::size_t>> matrix_;
  std::size_t total_ = 0;
  std::size_t correct_ = 0;
};

/// Stratified k-fold CV accumulating one pooled report over all folds.
EvaluationReport crossValidateDetailed(
    const std::function<std::unique_ptr<Classifier>()>& factory,
    const Instances& data, std::size_t folds, Rng& rng);

}  // namespace jepo::ml
