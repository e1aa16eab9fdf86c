#include "core/two_step.h"

#include "common/check.h"

namespace qpp::core {

TwoStepPredictor::TwoStepPredictor(PredictorConfig config)
    : config_(config), base_(config) {}

void TwoStepPredictor::Train(const std::vector<ml::TrainingExample>& examples,
                             size_t min_category_size) {
  base_.Train(examples);

  std::map<workload::QueryType, std::vector<ml::TrainingExample>> by_type;
  for (const ml::TrainingExample& ex : examples) {
    by_type[workload::ClassifyElapsed(ex.metrics.elapsed_seconds)].push_back(
        ex);
  }
  per_type_.clear();
  for (auto& [type, members] : by_type) {
    if (members.size() < std::max(min_category_size,
                                  config_.k_neighbors + 1)) {
      continue;  // too small: fall back to the base model at predict time
    }
    PredictorConfig cfg = config_;
    // Small per-category training sets: the exact KCCA solver is both
    // affordable and more accurate than a truncated ICD basis.
    if (members.size() <= cfg.kcca.exact_threshold) {
      cfg.kcca.solver = ml::KccaSolver::kExact;
    }
    auto model = std::make_unique<Predictor>(cfg);
    model->Train(members);
    per_type_[type] = std::move(model);
  }
  trained_ = true;
}

Prediction TwoStepPredictor::Predict(
    const linalg::Vector& query_features) const {
  QPP_CHECK_MSG(trained_, "Predict before Train");
  const workload::QueryType type = base_.Classify(query_features);
  const auto it = per_type_.find(type);
  if (it == per_type_.end()) return base_.Predict(query_features);
  Prediction second = it->second->Predict(query_features);
  second.predicted_type = type;
  return second;
}

bool TwoStepPredictor::HasCategoryModel(workload::QueryType type) const {
  return per_type_.count(type) > 0;
}

const Predictor* TwoStepPredictor::CategoryModel(
    workload::QueryType type) const {
  const auto it = per_type_.find(type);
  return it != per_type_.end() ? it->second.get() : nullptr;
}

}  // namespace qpp::core
