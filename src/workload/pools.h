// Query pools: run candidate queries on a calibration configuration and
// categorize them by elapsed time, exactly as the paper's Fig. 2 does.
//
// Boundaries follow the paper:
//   feather       elapsed < 3 minutes
//   golf ball     3 minutes <= elapsed < 30 minutes
//   bowling ball  30 minutes <= elapsed <= 2 hours
//   wrecking ball longer than 2 hours (excluded from training/test pools)
//
// The paper stresses that these boundaries are arbitrary conveniences, not
// something the approach depends on; we keep them for report parity.
#pragma once

#include <cstddef>
#include <iterator>
#include <string>
#include <vector>

#include "engine/metrics.h"
#include "engine/simulator.h"
#include "optimizer/optimizer.h"
#include "workload/generator.h"

namespace qpp::workload {

enum class QueryType { kFeather, kGolfBall, kBowlingBall, kWreckingBall };

/// The pool set, in enum order: Fig. 2's rows, the fabric's expert groups
/// and every per-pool array follow it.
inline constexpr QueryType kQueryTypes[] = {
    QueryType::kFeather, QueryType::kGolfBall, QueryType::kBowlingBall,
    QueryType::kWreckingBall};
inline constexpr size_t kNumQueryTypes = std::size(kQueryTypes);
/// `t`'s position in kQueryTypes, for arrays indexed by pool.
constexpr size_t QueryTypeIndex(QueryType t) { return static_cast<size_t>(t); }

const char* QueryTypeName(QueryType t);

/// Elapsed-time classification per the Fig. 2 boundaries.
QueryType ClassifyElapsed(double seconds);

/// A fully-prepared query: SQL, plan, measured (simulated) metrics, type.
struct PooledQuery {
  GeneratedQuery query;
  optimizer::PhysicalPlan plan;
  engine::QueryMetrics metrics;
  QueryType type = QueryType::kFeather;
};

/// Per-category summary in the shape of the paper's Fig. 2 table.
struct PoolSummary {
  QueryType type;
  size_t count = 0;
  double mean_elapsed = 0.0;
  double min_elapsed = 0.0;
  double max_elapsed = 0.0;
};

struct QueryPools {
  std::vector<PooledQuery> queries;  ///< all (incl. wrecking balls)

  std::vector<const PooledQuery*> OfType(QueryType t) const;
  std::vector<PoolSummary> Summaries() const;
  /// Fig. 2-style table rendering.
  std::string ToTable() const;
};

/// Plans and "runs" every generated query; queries that fail to plan (none
/// should, with shipped templates) are skipped with a count reported via
/// `num_failed`.
QueryPools BuildPools(const std::vector<GeneratedQuery>& queries,
                      const optimizer::Optimizer& opt,
                      const engine::ExecutionSimulator& sim,
                      size_t* num_failed = nullptr);

/// Draws a train/test mix by type, paper-style: e.g. Experiment 1 trains on
/// 767 feathers + 230 golf balls + 30 bowling balls and tests on 45/7/9.
/// Returns indices into pools.queries. Deterministic under `seed`; training
/// and test sets are disjoint.
struct TrainTestSplit {
  std::vector<size_t> train;
  std::vector<size_t> test;
};
TrainTestSplit SampleSplit(const QueryPools& pools, size_t train_feathers,
                           size_t train_golf, size_t train_bowling,
                           size_t test_feathers, size_t test_golf,
                           size_t test_bowling, uint64_t seed);

}  // namespace qpp::workload
