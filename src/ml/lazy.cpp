#include "ml/lazy.hpp"

#include <algorithm>
#include <cmath>

namespace jepo::ml {

// ---------------------------------------------------------------------- IBk

template <typename Real>
double Ibk<Real>::normalised(std::size_t feature, double v) const {
  if (isNominal_[feature]) return v;
  const auto& r = ranges_[feature];
  const double span = r.max - r.min;
  return span > 0 ? (v - r.min) / span : 0.0;
}

template <typename Real>
void Ibk<Real>::train(const Instances& data) {
  JEPO_REQUIRE(data.numInstances() > 0, "empty training set");
  numClasses_ = data.numClasses();
  featureIdx_ = data.featureIndices();
  const std::vector<Instances::NumericRange> ranges = data.numericRanges();
  isNominal_.clear();
  ranges_.clear();
  for (std::size_t a : featureIdx_) {
    isNominal_.push_back(data.attribute(a).isNominal());
    ranges_.push_back(ranges[a]);
  }
  const std::size_t n = data.numInstances();
  features_.clear();
  features_.reserve(n * featureIdx_.size());
  labels_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<double>& row = data.row(i);
    for (std::size_t f = 0; f < featureIdx_.size(); ++f) {
      features_.push_back(normalised(f, row[featureIdx_[f]]));
    }
    labels_.push_back(data.classValue(i));
  }
  // Lazy learner: training is storage (plus the buffer traffic).
  rt_->bufferCopy(n * data.numAttributes());
}

template <typename Real>
int Ibk<Real>::predict(const std::vector<double>& row) const {
  JEPO_REQUIRE(!labels_.empty(), "predict before train");
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(options_.k));
  const std::size_t width = featureIdx_.size();
  std::vector<double> query(width);
  for (std::size_t f = 0; f < width; ++f) {
    query[f] = normalised(f, row[featureIdx_[f]]);
  }

  // Max-heap over the current k best (distance, label) pairs.
  std::vector<std::pair<Real, int>> best;
  best.reserve(k + 1);

  for (std::size_t i = 0; i < labels_.size(); ++i) {
    const double* t = features_.data() + i * width;
    Real d = Real(0);
    for (std::size_t f = 0; f < width; ++f) {
      if (isNominal_[f]) {
        d += query[f] == t[f] ? Real(0) : Real(1);
        rt_->keyCompare(6);  // nominal labels compared as keys
        rt_->selections(1);
      } else {
        const Real diff = Real(query[f] - t[f]);
        d += diff * diff;
        rt_->flops(6);
      }
      rt_->arrayOps(2);
    }
    rt_->loopIters(width);
    best.emplace_back(d, labels_[i]);
    std::push_heap(best.begin(), best.end());
    if (best.size() > k) {
      std::pop_heap(best.begin(), best.end());
      best.pop_back();
    }
    rt_->intOps(2);
  }

  std::vector<int> votes(numClasses_, 0);
  for (const auto& [d, label] : best) {
    ++votes[static_cast<std::size_t>(label)];
    rt_->counterOps(1);
  }
  return static_cast<int>(std::distance(
      votes.begin(), std::max_element(votes.begin(), votes.end())));
}

// -------------------------------------------------------------------- KStar

template <typename Real>
void KStar<Real>::train(const Instances& data) {
  JEPO_REQUIRE(data.numInstances() > 0, "empty training set");
  numClasses_ = data.numClasses();
  featureIdx_ = data.featureIndices();
  const std::size_t width = featureIdx_.size();
  isNominal_.assign(width, false);
  scale_.assign(width, Real(1));
  logStay_.assign(width, Real(0));
  logChange_.assign(width, Real(0));

  const std::size_t n = data.numInstances();
  for (std::size_t f = 0; f < width; ++f) {
    const std::size_t a = featureIdx_[f];
    const Attribute& attr = data.attribute(a);
    isNominal_[f] = attr.isNominal();
    if (attr.isNominal()) {
      // Stay probability from the blend: with blend b and m labels, the
      // chance a value transforms to a specific other label is
      // b / (m - 1); staying costs (1 - b).
      const auto m = static_cast<double>(std::max<std::size_t>(
          2, attr.numLabels()));
      const auto pStay = static_cast<double>(Real(1.0 - options_.blend));
      logStay_[f] = Real(std::log(pStay));
      logChange_[f] = Real(std::log((1.0 - pStay) / (m - 1.0)));
    } else {
      // Scale from the mean absolute deviation around the mean.
      double mean = 0.0;
      for (std::size_t i = 0; i < n; ++i) mean += data.value(i, a);
      mean /= static_cast<double>(n);
      double mad = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        mad += std::fabs(data.value(i, a) - mean);
      }
      mad /= static_cast<double>(n);
      scale_[f] = Real(std::max(1e-6, mad * options_.blend / 0.5));
      rt_->flops(4 * n);
    }
    rt_->loopIters(n);
  }

  features_.clear();
  features_.reserve(n * width);
  labels_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<double>& row = data.row(i);
    for (std::size_t a : featureIdx_) features_.push_back(row[a]);
    labels_.push_back(data.classValue(i));
  }
  rt_->bufferCopy(n * data.numAttributes());
}

template <typename Real>
int KStar<Real>::predict(const std::vector<double>& row) const {
  JEPO_REQUIRE(!labels_.empty(), "predict before train");
  const std::size_t width = featureIdx_.size();
  std::vector<double> query(width);
  for (std::size_t f = 0; f < width; ++f) query[f] = row[featureIdx_[f]];
  std::vector<Real> classScore(numClasses_, Real(0));

  for (std::size_t i = 0; i < labels_.size(); ++i) {
    const double* t = features_.data() + i * width;
    // log-similarity: sum of per-attribute log transformation probs.
    Real logSim = Real(0);
    for (std::size_t f = 0; f < width; ++f) {
      if (isNominal_[f]) {
        logSim += query[f] == t[f] ? logStay_[f] : logChange_[f];
        rt_->keyCompare(6);
        rt_->mathCalls(1);
      } else {
        const Real dist = Real(std::fabs(query[f] - t[f]));
        logSim -= dist / scale_[f];
        rt_->flops(3);
      }
      rt_->arrayOps(2);
    }
    classScore[static_cast<std::size_t>(labels_[i])] +=
        Real(std::exp(static_cast<double>(logSim)));
    rt_->mathCalls(1);
    rt_->loopIters(width);
  }

  return static_cast<int>(std::distance(
      classScore.begin(),
      std::max_element(classScore.begin(), classScore.end())));
}

template class Ibk<float>;
template class Ibk<double>;
template class KStar<float>;
template class KStar<double>;

}  // namespace jepo::ml
