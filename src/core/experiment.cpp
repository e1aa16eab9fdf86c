#include "core/experiment.h"

#include <sstream>

#include "catalog/retailbank.h"
#include "catalog/tpcds.h"
#include "common/str_util.h"
#include "ml/risk.h"
#include "optimizer/optimizer.h"
#include "workload/generator.h"
#include "workload/problem_templates.h"
#include "workload/retailbank_templates.h"
#include "workload/tpcds_templates.h"

namespace qpp::core {

ExperimentData BuildTpcdsExperiment(const ExperimentOptions& options) {
  ExperimentData data;
  data.catalog = std::make_shared<catalog::Catalog>(
      catalog::MakeTpcdsCatalog(options.scale_factor));
  data.config = options.config;
  data.world_seed = options.world_seed;

  // Candidate template mix.
  std::vector<workload::QueryTemplate> mix;
  const std::vector<workload::QueryTemplate> tpcds =
      workload::TpcdsTemplates();
  const std::vector<workload::QueryTemplate> problem =
      workload::ProblemTemplates();
  for (size_t r = 0; r < kTpcdsTemplateRepeat; ++r) {
    mix.insert(mix.end(), tpcds.begin(), tpcds.end());
  }
  for (size_t r = 0; r < kProblemTemplateRepeat; ++r) {
    mix.insert(mix.end(), problem.begin(), problem.end());
  }

  const std::vector<workload::GeneratedQuery> queries =
      workload::GenerateWorkload(mix, options.num_candidates, options.seed);

  optimizer::OptimizerOptions opt_options;
  opt_options.world_seed = options.world_seed;
  opt_options.nodes_used = options.config.nodes_used;
  const optimizer::Optimizer opt(data.catalog.get(), opt_options);
  const engine::ExecutionSimulator sim(data.catalog.get(), options.config);

  data.pools = workload::BuildPools(queries, opt, sim,
                                    &data.num_failed_plans);
  return data;
}

ExperimentData BuildRetailBankExperiment(size_t num_queries, uint64_t seed,
                                         const engine::SystemConfig& config) {
  ExperimentData data;
  data.catalog = std::make_shared<catalog::Catalog>(
      catalog::MakeRetailBankCatalog());
  data.config = config;
  data.world_seed = optimizer::kDefaultWorldSeed;

  const std::vector<workload::GeneratedQuery> queries =
      workload::GenerateWorkload(workload::RetailBankTemplates(), num_queries,
                                 seed);
  optimizer::OptimizerOptions opt_options;
  opt_options.nodes_used = config.nodes_used;
  const optimizer::Optimizer opt(data.catalog.get(), opt_options);
  const engine::ExecutionSimulator sim(data.catalog.get(), config);
  data.pools =
      workload::BuildPools(queries, opt, sim, &data.num_failed_plans);
  return data;
}

std::vector<ml::TrainingExample> MakeExamples(
    const workload::QueryPools& pools, const std::vector<size_t>& indices) {
  std::vector<ml::TrainingExample> out;
  out.reserve(indices.size());
  for (size_t idx : indices) {
    QPP_CHECK(idx < pools.queries.size());
    ml::TrainingExample ex;
    ex.query_features = ml::PlanFeatureVector(pools.queries[idx].plan);
    ex.metrics = pools.queries[idx].metrics;
    out.push_back(std::move(ex));
  }
  return out;
}

std::vector<ml::TrainingExample> MakeAllExamples(
    const workload::QueryPools& pools) {
  std::vector<size_t> indices(pools.queries.size());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  return MakeExamples(pools, indices);
}

std::vector<MetricEvaluation> EvaluatePredictions(
    const PredictFn& predict, const std::vector<ml::TrainingExample>& test) {
  QPP_CHECK(!test.empty());
  const auto names = engine::QueryMetrics::MetricNames();
  std::vector<MetricEvaluation> evals(names.size());
  for (size_t m = 0; m < names.size(); ++m) {
    evals[m].metric = names[m];
    evals[m].predicted.reserve(test.size());
    evals[m].actual.reserve(test.size());
  }
  for (const ml::TrainingExample& ex : test) {
    const linalg::Vector pred = predict(ex.query_features).ToVector();
    const linalg::Vector act = ex.metrics.ToVector();
    for (size_t m = 0; m < names.size(); ++m) {
      evals[m].predicted.push_back(pred[m]);
      evals[m].actual.push_back(act[m]);
    }
  }
  for (MetricEvaluation& e : evals) {
    e.risk = ml::PredictiveRisk(e.predicted, e.actual);
    e.risk_drop1 =
        ml::PredictiveRiskDroppingOutliers(e.predicted, e.actual, 1);
    e.within20 = ml::FractionWithinRelative(e.predicted, e.actual, 0.20);
  }
  return evals;
}

std::string RiskTable(const std::vector<MetricEvaluation>& evals) {
  std::ostringstream os;
  os << StrFormat("%-18s %10s %12s %10s\n", "metric", "risk", "risk(-1out)",
                  "within20%");
  for (const MetricEvaluation& e : evals) {
    os << StrFormat("%-18s %10s %12s %9.0f%%\n", e.metric.c_str(),
                    ml::FormatRisk(e.risk).c_str(),
                    ml::FormatRisk(e.risk_drop1).c_str(), e.within20 * 100.0);
  }
  return os.str();
}

}  // namespace qpp::core
