#include "ml/report.hpp"

#include "support/strings.hpp"
#include "support/table.hpp"

namespace jepo::ml {

EvaluationReport::EvaluationReport(std::size_t numClasses)
    : matrix_(numClasses, std::vector<std::size_t>(numClasses, 0)) {
  JEPO_REQUIRE(numClasses >= 2, "need at least two classes");
}

void EvaluationReport::add(int actual, int predicted) {
  JEPO_REQUIRE(actual >= 0 &&
                   static_cast<std::size_t>(actual) < matrix_.size(),
               "actual class out of range");
  JEPO_REQUIRE(predicted >= 0 &&
                   static_cast<std::size_t>(predicted) < matrix_.size(),
               "predicted class out of range");
  ++matrix_[static_cast<std::size_t>(actual)]
           [static_cast<std::size_t>(predicted)];
  ++total_;
  correct_ += actual == predicted;
}

double EvaluationReport::accuracy() const {
  JEPO_REQUIRE(total_ > 0, "empty report");
  return static_cast<double>(correct_) / static_cast<double>(total_);
}

double EvaluationReport::precision(std::size_t cls) const {
  std::size_t tp = matrix_.at(cls)[cls];
  std::size_t predicted = 0;
  for (const auto& row : matrix_) predicted += row[cls];
  return predicted == 0 ? 0.0
                        : static_cast<double>(tp) /
                              static_cast<double>(predicted);
}

double EvaluationReport::recall(std::size_t cls) const {
  std::size_t tp = matrix_.at(cls)[cls];
  std::size_t actual = 0;
  for (std::size_t p = 0; p < matrix_.size(); ++p) actual += matrix_[cls][p];
  return actual == 0 ? 0.0
                     : static_cast<double>(tp) / static_cast<double>(actual);
}

double EvaluationReport::f1(std::size_t cls) const {
  const double p = precision(cls);
  const double r = recall(cls);
  return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

double EvaluationReport::kappa() const {
  JEPO_REQUIRE(total_ > 0, "empty report");
  const double n = static_cast<double>(total_);
  const double po = accuracy();
  double pe = 0.0;
  for (std::size_t c = 0; c < matrix_.size(); ++c) {
    std::size_t actual = 0;
    std::size_t predicted = 0;
    for (std::size_t p = 0; p < matrix_.size(); ++p) {
      actual += matrix_[c][p];
      predicted += matrix_[p][c];
    }
    pe += (static_cast<double>(actual) / n) *
          (static_cast<double>(predicted) / n);
  }
  return pe >= 1.0 ? 0.0 : (po - pe) / (1.0 - pe);
}

std::string EvaluationReport::render(const Attribute& classAttr) const {
  std::string out;
  out += "Correctly classified: " + std::to_string(correct_) + " / " +
         std::to_string(total_) + "  (" + fixed(accuracy() * 100.0, 2) +
         "%)\n";
  out += "Kappa statistic:      " + fixed(kappa(), 4) + "\n\n";

  TextTable perClass({"Class", "Precision", "Recall", "F1"},
                     {Align::kLeft, Align::kRight, Align::kRight,
                      Align::kRight});
  for (std::size_t c = 0; c < matrix_.size(); ++c) {
    perClass.addRow({classAttr.label(c), fixed(precision(c), 3),
                     fixed(recall(c), 3), fixed(f1(c), 3)});
  }
  out += perClass.render() + "\nConfusion matrix (rows = actual):\n";

  std::vector<std::string> header = {""};
  for (std::size_t c = 0; c < matrix_.size(); ++c) {
    header.push_back("-> " + classAttr.label(c));
  }
  TextTable matrix(header);
  for (std::size_t a = 0; a < matrix_.size(); ++a) {
    std::vector<std::string> row = {classAttr.label(a)};
    for (std::size_t p = 0; p < matrix_.size(); ++p) {
      row.push_back(std::to_string(matrix_[a][p]));
    }
    matrix.addRow(std::move(row));
  }
  out += matrix.render();
  return out;
}

EvaluationReport crossValidateDetailed(
    const std::function<std::unique_ptr<Classifier>()>& factory,
    const Instances& data, std::size_t folds, Rng& rng) {
  EvaluationReport report(data.numClasses());
  for (const auto& fold : data.stratifiedFolds(folds, rng)) {
    const Instances train = data.select(fold.train);
    const Instances test = data.select(fold.test);
    auto classifier = factory();
    classifier->train(train);
    for (std::size_t i = 0; i < test.numInstances(); ++i) {
      report.add(test.classValue(i), classifier->predict(test.row(i)));
    }
  }
  return report;
}

}  // namespace jepo::ml
