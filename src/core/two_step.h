// Two-step prediction (paper Experiment 3, Fig. 14).
//
// Step 1: a base one-model KCCA predictor classifies the incoming query as
// feather / golf ball / bowling ball by majority vote of its nearest
// neighbors' measured elapsed times (Predictor::Classify: the vote alone,
// without the metric prediction).
// Step 2: a per-category KCCA model (trained only on that category's
// queries) produces the metric predictions. Categories with too few
// training queries fall back to the base model.
#pragma once

#include <map>
#include <memory>

#include "core/predictor.h"

namespace qpp::core {

class TwoStepPredictor {
 public:
  explicit TwoStepPredictor(PredictorConfig config = {});

  /// Trains the base model on all examples and a per-category model on each
  /// category with at least `min_category_size` members.
  void Train(const std::vector<ml::TrainingExample>& examples,
             size_t min_category_size = 12);
  bool trained() const { return trained_; }

  Prediction Predict(const linalg::Vector& query_features) const;

  const Predictor& base() const { return base_; }
  /// True if a dedicated second-step model exists for the category.
  bool HasCategoryModel(workload::QueryType type) const;
  /// The dedicated second-step model for `type`, or null when that
  /// category fell back to the base model (too few training members).
  /// Lets fabric::PublishTwoStep publish each expert into its own group.
  const Predictor* CategoryModel(workload::QueryType type) const;

 private:
  PredictorConfig config_;
  Predictor base_;
  std::map<workload::QueryType, std::unique_ptr<Predictor>> per_type_;
  bool trained_ = false;
};

}  // namespace qpp::core
