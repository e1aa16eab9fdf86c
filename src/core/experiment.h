// Shared experiment harness: builds the paper's workloads, pools, splits,
// and evaluation reports. Used by the bench binaries (one per paper table /
// figure) and by the integration tests, so every experiment is driven
// through the same code path.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/predictor.h"
#include "engine/simulator.h"
#include "ml/feature_vector.h"
#include "workload/pools.h"

namespace qpp::core {

/// Weight of problem templates relative to TPC-DS templates in the
/// candidate mix: each TPC-DS template appears kTpcdsTemplateRepeat times and
/// each problem template kProblemTemplateRepeat times (the paper needed many
/// problem-template instantiations to populate the golf/bowling pools).
inline constexpr size_t kTpcdsTemplateRepeat = 3;
inline constexpr size_t kProblemTemplateRepeat = 2;

struct ExperimentOptions {
  /// Number of candidate queries instantiated before pooling.
  size_t num_candidates = 3200;
  uint64_t seed = 42;
  /// Hidden-data-truth seed shared by optimizer estimate/true models.
  uint64_t world_seed = optimizer::kDefaultWorldSeed;
  engine::SystemConfig config = engine::SystemConfig::Neoview4();
  double scale_factor = 1.0;
};

struct ExperimentData {
  std::shared_ptr<catalog::Catalog> catalog;
  engine::SystemConfig config;
  uint64_t world_seed = 0;
  workload::QueryPools pools;
  size_t num_failed_plans = 0;
};

/// Generates the TPC-DS (+ problem) candidate workload, plans and runs
/// every query on the configured system, and pools by elapsed time.
ExperimentData BuildTpcdsExperiment(const ExperimentOptions& options);

/// Generates the customer (retailbank) workload for Experiment 4.
ExperimentData BuildRetailBankExperiment(size_t num_queries, uint64_t seed,
                                         const engine::SystemConfig& config);

/// Extracts plan-feature training examples for the given pool indices.
std::vector<ml::TrainingExample> MakeExamples(
    const workload::QueryPools& pools, const std::vector<size_t>& indices);

/// Plan-feature example for every query in the pools.
std::vector<ml::TrainingExample> MakeAllExamples(
    const workload::QueryPools& pools);

/// Per-metric evaluation of a prediction function over a test set.
struct MetricEvaluation {
  std::string metric;
  double risk = 0.0;            ///< predictive risk (NaN = Null)
  double risk_drop1 = 0.0;      ///< risk after dropping the worst outlier
  double within20 = 0.0;        ///< fraction within 20% relative error
  linalg::Vector predicted;
  linalg::Vector actual;
};

using PredictFn = std::function<engine::QueryMetrics(const linalg::Vector&)>;

std::vector<MetricEvaluation> EvaluatePredictions(
    const PredictFn& predict, const std::vector<ml::TrainingExample>& test);

/// Renders the per-metric risk table (the recurring shape of the paper's
/// Tables I-III and Fig. 16 rows).
std::string RiskTable(const std::vector<MetricEvaluation>& evals);

}  // namespace qpp::core
