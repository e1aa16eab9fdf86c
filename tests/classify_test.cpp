// Predictor::Classify against Predict on the paper's own data. Classify runs
// only what the category vote reads (preprocess, projection, the
// projection-space neighbor search, the vote), so its answer must equal
// Predict(x).predicted_type for every input, in every configuration the vote
// can be computed under. The probes are every distinct plan of the seed-42
// Experiment-1 candidate pool that the training split holds out — the
// plans the serving front door classifies.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "core/predictor.h"
#include "ml/feature_vector.h"
#include "workload/pools.h"

namespace qpp {
namespace {

const bench::PaperExperiment& Exp() {
  static const bench::PaperExperiment exp = bench::BuildPaperExperiment(42);
  return exp;
}

const std::vector<linalg::Vector>& HeldOutPlans() {
  static const std::vector<linalg::Vector> plans = [] {
    const bench::PaperExperiment& exp = Exp();
    const std::set<size_t> train(exp.split.train.begin(),
                                 exp.split.train.end());
    std::set<linalg::Vector> seen;
    std::vector<linalg::Vector> out;
    for (size_t i = 0; i < exp.data.pools.queries.size(); ++i) {
      if (train.count(i) > 0) continue;
      linalg::Vector f = ml::PlanFeatureVector(exp.data.pools.queries[i].plan);
      if (seen.insert(f).second) out.push_back(std::move(f));
    }
    return out;
  }();
  return plans;
}

/// Classify(x) == Predict(x).predicted_type on every held-out plan. `model`
/// answers Classify; `reference` answers Predict (the same model, or the
/// one it was saved from).
void ExpectClassifyMatchesPredict(const core::Predictor& model,
                                  const core::Predictor& reference) {
  const std::vector<linalg::Vector>& plans = HeldOutPlans();
  ASSERT_GT(plans.size(), 10000u) << "held-out set lost coverage";
  size_t mismatches = 0;
  std::set<workload::QueryType> seen;
  for (size_t i = 0; i < plans.size(); ++i) {
    const workload::QueryType got = model.Classify(plans[i]);
    const workload::QueryType want = reference.Predict(plans[i]).predicted_type;
    seen.insert(got);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "plan " << i << ": Classify "
                    << workload::QueryTypeName(got) << " vs Predict "
                    << workload::QueryTypeName(want);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << plans.size() << " plans";
  // The vote must actually be exercised beyond the majority category.
  EXPECT_GE(seen.size(), 2u);
}

core::Predictor Trained(const core::PredictorConfig& config) {
  core::Predictor model(config);
  model.Train(Exp().train);
  return model;
}

TEST(ClassifyTest, DefaultConfigMatchesPredict) {
  const core::Predictor model = Trained({});
  ExpectClassifyMatchesPredict(model, model);
}

TEST(ClassifyTest, BruteForceSearchMatchesPredict) {
  core::PredictorConfig config;
  config.use_knn_index = false;
  const core::Predictor model = Trained(config);
  ExpectClassifyMatchesPredict(model, model);
}

TEST(ClassifyTest, CosineDistanceMatchesPredict) {
  core::PredictorConfig config;
  config.distance = ml::DistanceKind::kCosine;
  const core::Predictor model = Trained(config);
  ExpectClassifyMatchesPredict(model, model);
}

TEST(ClassifyTest, RegressionModelMatchesPredict) {
  core::PredictorConfig config;
  config.model = core::ModelKind::kRegression;
  const core::Predictor model = Trained(config);
  ExpectClassifyMatchesPredict(model, model);
}

TEST(ClassifyTest, LoadedModelMatchesSavedModel) {
  const core::Predictor saved = Trained({});
  std::ostringstream os;
  saved.Save(&os);
  std::istringstream is(os.str());
  const core::Predictor loaded = core::Predictor::Load(&is);
  ExpectClassifyMatchesPredict(loaded, saved);
}

TEST(ClassifyTest, RequiresATrainedModel) {
  const core::Predictor untrained;
  EXPECT_THROW(untrained.Classify(linalg::Vector(ml::kPlanFeatureDims, 0.0)),
               CheckFailure);
}

}  // namespace
}  // namespace qpp
