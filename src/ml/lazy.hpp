// Lazy (instance-based) classifiers:
//  - IBk: k-nearest-neighbour with normalized Euclidean distance over
//    numeric attributes and 0/1 overlap over nominal ones (k=1, WEKA's
//    default).
//  - KStar: nearest-neighbour with an entropic, transformation-based
//    similarity (Cleary & Trigg). The per-attribute transformation
//    probability is an exponential kernel for numerics (scale set from the
//    mean absolute deviation and the blend parameter) and a stay/change
//    mixture for nominals; instance similarity is the product, and the
//    predicted class maximizes summed similarity.
#pragma once

#include "ml/classifier.hpp"

namespace jepo::ml {

struct IbkOptions {
  int k = 1;
};

template <typename Real>
class Ibk final : public Classifier {
 public:
  Ibk(MlRuntime& runtime, IbkOptions options)
      : rt_(&runtime), options_(options) {}

  void train(const Instances& data) override;
  int predict(const std::vector<double>& row) const override;
  std::string name() const override { return "IBk"; }

 private:
  /// A feature's value as the distance reads it: a nominal label index as
  /// stored, a numeric value normalised by its training range.
  double normalised(std::size_t feature, double v) const;

  MlRuntime* rt_;
  IbkOptions options_;
  std::vector<std::size_t> featureIdx_;
  std::vector<bool> isNominal_;                // per feature
  std::vector<Instances::NumericRange> ranges_;  // per feature
  std::vector<double> features_;  // row-major, featureIdx_.size() per row
  std::vector<int> labels_;
  std::size_t numClasses_ = 0;
};

struct KStarOptions {
  double blend = 0.2;  // WEKA's global blend (20%)
};

template <typename Real>
class KStar final : public Classifier {
 public:
  KStar(MlRuntime& runtime, KStarOptions options)
      : rt_(&runtime), options_(options) {}

  void train(const Instances& data) override;
  int predict(const std::vector<double>& row) const override;
  std::string name() const override { return "KStar"; }

 private:
  MlRuntime* rt_;
  KStarOptions options_;
  std::vector<std::size_t> featureIdx_;
  // Per feature:
  std::vector<bool> isNominal_;
  std::vector<Real> scale_;      // numeric: exponential kernel scale
  std::vector<Real> logStay_;    // nominal: log P(no transform)
  std::vector<Real> logChange_;  // nominal: log P(to one other label)
  std::vector<double> features_;  // row-major, featureIdx_.size() per row
  std::vector<int> labels_;
  std::size_t numClasses_ = 0;
};

extern template class Ibk<float>;
extern template class Ibk<double>;
extern template class KStar<float>;
extern template class KStar<double>;

}  // namespace jepo::ml
