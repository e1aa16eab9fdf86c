#include "workload/pools.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/str_util.h"

namespace qpp::workload {

const char* QueryTypeName(QueryType t) {
  switch (t) {
    case QueryType::kFeather: return "feather";
    case QueryType::kGolfBall: return "golf ball";
    case QueryType::kBowlingBall: return "bowling ball";
    case QueryType::kWreckingBall: return "wrecking ball";
  }
  return "?";
}

QueryType ClassifyElapsed(double seconds) {
  if (seconds < 180.0) return QueryType::kFeather;
  if (seconds < 1800.0) return QueryType::kGolfBall;
  if (seconds <= 7200.0) return QueryType::kBowlingBall;
  return QueryType::kWreckingBall;
}

std::vector<const PooledQuery*> QueryPools::OfType(QueryType t) const {
  std::vector<const PooledQuery*> out;
  for (const PooledQuery& q : queries) {
    if (q.type == t) out.push_back(&q);
  }
  return out;
}

std::vector<PoolSummary> QueryPools::Summaries() const {
  std::vector<PoolSummary> out;
  for (const QueryType t : kQueryTypes) {
    PoolSummary s;
    s.type = t;
    s.min_elapsed = std::numeric_limits<double>::infinity();
    double total = 0.0;
    for (const PooledQuery& q : queries) {
      if (q.type != t) continue;
      s.count += 1;
      total += q.metrics.elapsed_seconds;
      s.min_elapsed = std::min(s.min_elapsed, q.metrics.elapsed_seconds);
      s.max_elapsed = std::max(s.max_elapsed, q.metrics.elapsed_seconds);
    }
    if (s.count == 0) s.min_elapsed = 0.0;
    s.mean_elapsed = s.count > 0 ? total / static_cast<double>(s.count) : 0.0;
    out.push_back(s);
  }
  return out;
}

std::string QueryPools::ToTable() const {
  std::ostringstream os;
  os << StrFormat("%-14s %9s %14s %14s %14s\n", "query type", "instances",
                  "mean", "minimum", "maximum");
  for (const PoolSummary& s : Summaries()) {
    os << StrFormat("%-14s %9zu %14s %14s %14s\n", QueryTypeName(s.type),
                    s.count, FormatDuration(s.mean_elapsed).c_str(),
                    FormatDuration(s.min_elapsed).c_str(),
                    FormatDuration(s.max_elapsed).c_str());
  }
  return os.str();
}

QueryPools BuildPools(const std::vector<GeneratedQuery>& queries,
                      const optimizer::Optimizer& opt,
                      const engine::ExecutionSimulator& sim,
                      size_t* num_failed) {
  QueryPools pools;
  size_t failed = 0;
  for (const GeneratedQuery& q : queries) {
    Result<optimizer::PhysicalPlan> plan = opt.Plan(q.sql);
    if (!plan.ok()) {
      ++failed;
      continue;
    }
    PooledQuery pq;
    pq.query = q;
    pq.plan = std::move(plan).value();
    pq.metrics = sim.Execute(pq.plan);
    pq.type = ClassifyElapsed(pq.metrics.elapsed_seconds);
    pools.queries.push_back(std::move(pq));
  }
  if (num_failed != nullptr) *num_failed = failed;
  return pools;
}

TrainTestSplit SampleSplit(const QueryPools& pools, size_t train_feathers,
                           size_t train_golf, size_t train_bowling,
                           size_t test_feathers, size_t test_golf,
                           size_t test_bowling, uint64_t seed) {
  Rng rng(seed);
  TrainTestSplit split;

  const auto sample = [&](QueryType type, size_t n_train, size_t n_test) {
    std::vector<size_t> indices;
    for (size_t i = 0; i < pools.queries.size(); ++i) {
      if (pools.queries[i].type == type) indices.push_back(i);
    }
    QPP_CHECK_MSG(indices.size() >= n_train + n_test,
                  "pool too small for requested split: "
                      << QueryTypeName(type) << " has " << indices.size()
                      << ", need " << (n_train + n_test));
    const std::vector<size_t> perm = rng.Permutation(indices.size());
    for (size_t k = 0; k < n_train; ++k) {
      split.train.push_back(indices[perm[k]]);
    }
    for (size_t k = 0; k < n_test; ++k) {
      split.test.push_back(indices[perm[n_train + k]]);
    }
  };

  sample(QueryType::kFeather, train_feathers, test_feathers);
  sample(QueryType::kGolfBall, train_golf, test_golf);
  sample(QueryType::kBowlingBall, train_bowling, test_bowling);
  return split;
}

}  // namespace qpp::workload
