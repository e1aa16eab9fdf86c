// White-box tests of the execution simulator's cost model: each operator's
// resource math is verified against hand computation on synthetic plans.
// These pin down the quantitative behavior the learning experiments rely
// on (quadratic nested loops, spill thresholds, message arithmetic).
#include <gtest/gtest.h>

#include <cmath>

#include "catalog/tpcds.h"
#include "engine/simulator.h"
#include "optimizer/physical_plan.h"

namespace qpp::engine {
namespace {

using optimizer::PhysOp;
using optimizer::PhysicalNode;
using optimizer::PhysicalPlan;

/// Builds a leaf scan node over `table` with the given true output rows.
std::unique_ptr<PhysicalNode> Scan(const std::string& table, double in_rows,
                                   double out_rows, double width) {
  auto node = std::make_unique<PhysicalNode>(PhysOp::kFileScan);
  node->table = table;
  node->est_input_rows = node->true_input_rows = in_rows;
  node->est_rows = node->true_rows = out_rows;
  node->row_width = width;
  return node;
}

std::unique_ptr<PhysicalNode> Wrap(PhysOp op,
                                   std::unique_ptr<PhysicalNode> child,
                                   double out_rows) {
  auto node = std::make_unique<PhysicalNode>(op);
  node->est_input_rows = node->true_input_rows = child->true_rows;
  node->est_rows = node->true_rows = out_rows;
  node->row_width = child->row_width;
  node->children.push_back(std::move(child));
  return node;
}

PhysicalPlan MakePlan(std::unique_ptr<PhysicalNode> body, uint64_t hash) {
  auto exchange = Wrap(PhysOp::kExchange, std::move(body), 1.0);
  exchange->true_rows = exchange->children[0]->true_rows;
  exchange->est_rows = exchange->true_rows;
  auto root = Wrap(PhysOp::kRoot, std::move(exchange), 1.0);
  PhysicalPlan plan;
  plan.root = std::move(root);
  plan.query_hash = hash;
  return plan;
}

class SimulatorModelTest : public ::testing::Test {
 protected:
  SimulatorModelTest()
      : catalog_(catalog::MakeTpcdsCatalog(1.0)),
        config_(SystemConfig::Neoview4()),
        sim_(&catalog_, SystemConfig::Neoview4()) {}

  catalog::Catalog catalog_;
  SystemConfig config_;
  ExecutionSimulator sim_;
};

TEST_F(SimulatorModelTest, NestedJoinCostIsQuadratic) {
  // Doubling BOTH nested-join inputs quadruples the pair count; with CPU
  // dominating, elapsed scales ~4x (within noise and fixed overheads).
  const auto build = [&](double rows) {
    auto left = Scan("item", rows, rows, 40.0);
    auto right = Scan("item", rows, rows, 40.0);
    auto join = std::make_unique<PhysicalNode>(PhysOp::kNestedJoin);
    join->true_input_rows = join->est_input_rows = 2.0 * rows;
    join->true_rows = join->est_rows = 1.0;  // tiny output: isolate pair cost
    join->row_width = 80.0;
    join->children.push_back(std::move(left));
    join->children.push_back(std::move(right));
    return MakePlan(std::move(join), 1234);
  };
  const double t1 = sim_.Execute(build(40000)).elapsed_seconds;
  const double t2 = sim_.Execute(build(80000)).elapsed_seconds;
  EXPECT_GT(t2 / t1, 3.0);
  EXPECT_LT(t2 / t1, 5.0);
}

TEST_F(SimulatorModelTest, HashJoinCostIsLinear) {
  const auto build = [&](double rows) {
    auto probe = Scan("item", rows, rows, 40.0);
    auto hash_build = Scan("item", rows, rows, 40.0);
    auto join = std::make_unique<PhysicalNode>(PhysOp::kHashJoin);
    join->true_input_rows = join->est_input_rows = 2.0 * rows;
    join->true_rows = join->est_rows = rows;
    join->row_width = 80.0;
    join->children.push_back(std::move(probe));
    join->children.push_back(std::move(hash_build));
    return MakePlan(std::move(join), 99);
  };
  // Stay below the spill threshold in both cases.
  const double t1 = sim_.Execute(build(100000)).elapsed_seconds;
  const double t2 = sim_.Execute(build(200000)).elapsed_seconds;
  EXPECT_GT(t2 / t1, 1.5);
  EXPECT_LT(t2 / t1, 2.6);
}

TEST_F(SimulatorModelTest, HashJoinSpillsPastWorkMemory) {
  // Build-side bytes per node beyond WorkMemBytes() triggers grace-join
  // I/O; below the threshold there is none.
  const double work_mem = config_.WorkMemBytes();
  const double width = 100.0;
  const double fit_rows = 0.5 * work_mem * config_.nodes_used / width;
  const double spill_rows = 4.0 * work_mem * config_.nodes_used / width;
  const auto build = [&](double rows) {
    auto probe = Scan("item", 1000.0, 1000.0, width);
    auto hash_build = Scan("item", rows, rows, width);
    auto join = std::make_unique<PhysicalNode>(PhysOp::kHashJoin);
    join->true_input_rows = join->est_input_rows = rows + 1000.0;
    join->true_rows = join->est_rows = 10.0;
    join->row_width = width;
    join->children.push_back(std::move(probe));
    join->children.push_back(std::move(hash_build));
    return MakePlan(std::move(join), 7);
  };
  EXPECT_EQ(sim_.Execute(build(fit_rows)).disk_ios, 0.0);
  EXPECT_GT(sim_.Execute(build(spill_rows)).disk_ios, 0.0);
}

TEST_F(SimulatorModelTest, ExternalSortSpills) {
  const double work_mem = config_.WorkMemBytes();
  const double width = 64.0;
  const double spill_rows = 3.0 * work_mem * config_.nodes_used / width;
  auto scan = Scan("item", spill_rows, spill_rows, width);
  auto sort = Wrap(PhysOp::kSort, std::move(scan), spill_rows);
  const QueryMetrics m = sim_.Execute(MakePlan(std::move(sort), 8));
  EXPECT_GT(m.disk_ios, 0.0);
}

TEST_F(SimulatorModelTest, ScanIoDependsOnCacheOnly) {
  // item (small) is cached: zero I/O regardless of how many rows qualify.
  auto cached = MakePlan(Scan("item", 18000, 18000, 60.0), 5);
  EXPECT_EQ(sim_.Execute(cached).disk_ios, 0.0);
  // On the memory-starved 4-of-32 configuration the same store_sales scan
  // pays pages proportional to the table (not the qualifying rows).
  const ExecutionSimulator starved(&catalog_, SystemConfig::Neoview32(4));
  const auto& ss = *catalog_.FindTable("store_sales");
  const double pages = ss.row_count * ss.RowWidthBytes() /
                       (SystemConfig::Neoview32(4).page_kb * 1024.0);
  auto narrow = MakePlan(Scan("store_sales", ss.row_count, 10.0, 60.0), 6);
  auto wide = MakePlan(Scan("store_sales", ss.row_count, 1e6, 60.0), 6);
  const double io_narrow = starved.Execute(narrow).disk_ios;
  const double io_wide = starved.Execute(wide).disk_ios;
  EXPECT_EQ(io_narrow, io_wide);
  EXPECT_NEAR(io_narrow, std::floor(pages), 1.0);
}

TEST_F(SimulatorModelTest, ExchangeMessageArithmetic) {
  const double rows = 50000.0;
  const double width = 80.0;
  auto scan = Scan("item", rows, rows, width);
  auto exchange = Wrap(PhysOp::kExchange, std::move(scan), rows);
  // MakePlan adds another exchange (to coordinator) with the same rows.
  const QueryMetrics m = sim_.Execute(MakePlan(std::move(exchange), 9));
  const double bytes_per_exchange = rows * width;
  EXPECT_NEAR(m.message_bytes, 2.0 * bytes_per_exchange, 1.0);
  const double per_exchange_msgs =
      std::ceil(bytes_per_exchange / (config_.msg_size_kb * 1024.0)) +
      config_.nodes_used * (config_.nodes_used - 1);
  EXPECT_NEAR(m.message_count, 2.0 * per_exchange_msgs, 2.0);
}

TEST_F(SimulatorModelTest, BroadcastMultipliesByNodeCount) {
  const double rows = 10000.0;
  const double width = 50.0;
  auto scan = Scan("item", rows, rows, width);
  auto split = std::make_unique<PhysicalNode>(PhysOp::kSplit);
  split->broadcast = true;
  split->true_input_rows = split->est_input_rows = rows;
  split->true_rows = split->est_rows = rows;
  split->row_width = width;
  split->children.push_back(std::move(scan));
  const QueryMetrics m = sim_.Execute(MakePlan(std::move(split), 10));
  // Split ships rows*width*P; the final exchange ships rows*width once.
  EXPECT_NEAR(m.message_bytes,
              rows * width * (config_.nodes_used + 1.0), 1.0);
}

TEST_F(SimulatorModelTest, NoiseIsBoundedAndSeeded) {
  auto make = [&](uint64_t hash) {
    return MakePlan(Scan("store_sales", 2880404, 2880404, 60.0), hash);
  };
  const double base = sim_.Execute(make(1)).elapsed_seconds;
  double lo = base, hi = base;
  for (uint64_t h = 2; h < 40; ++h) {
    const double t = sim_.Execute(make(h)).elapsed_seconds;
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  // Same plan, different query hashes: only noise+skew differ — bounded
  // within ~25%.
  EXPECT_LT(hi / lo, 1.25);
  // And identical hash -> identical time.
  EXPECT_EQ(sim_.Execute(make(17)).elapsed_seconds,
            sim_.Execute(make(17)).elapsed_seconds);
}

TEST_F(SimulatorModelTest, GroupByCostsScaleWithInputNotOutput) {
  const auto build = [&](double in_rows, double groups) {
    auto scan = Scan("item", in_rows, in_rows, 40.0);
    auto agg = Wrap(PhysOp::kHashGroupBy, std::move(scan), groups);
    agg->num_group_cols = 1;
    agg->num_aggs = 1;
    return MakePlan(std::move(agg), 11);
  };
  const double t_many_groups = sim_.Execute(build(1e6, 5e5)).elapsed_seconds;
  const double t_few_groups = sim_.Execute(build(1e6, 10)).elapsed_seconds;
  const double t_less_input = sim_.Execute(build(2e5, 10)).elapsed_seconds;
  // Output group count barely matters; input rows dominate.
  EXPECT_NEAR(t_many_groups / t_few_groups, 1.0, 0.25);
  EXPECT_GT(t_few_groups / t_less_input, 2.0);
}

TEST_F(SimulatorModelTest, TopNCheaperThanFullSort) {
  const double rows = 2e6;
  const auto build = [&](PhysOp op, double out) {
    auto scan = Scan("store_sales", rows, rows, 60.0);
    auto node = Wrap(op, std::move(scan), out);
    return MakePlan(std::move(node), 12);
  };
  const double t_sort =
      sim_.Execute(build(PhysOp::kSort, rows)).elapsed_seconds;
  const double t_topn =
      sim_.Execute(build(PhysOp::kTopN, 100.0)).elapsed_seconds;
  EXPECT_LT(t_topn, t_sort);
}

TEST_F(SimulatorModelTest, CpuAggregatesAcrossOperators) {
  // Adding a row-preserving filter strictly adds CPU (identical plan
  // downstream, same rows shipped to the coordinator).
  auto scan = Scan("item", 18000, 18000, 40.0);
  const QueryMetrics one = sim_.Execute(MakePlan(std::move(scan), 13));
  auto scan2 = Scan("item", 18000, 18000, 40.0);
  auto filter = Wrap(PhysOp::kFilter, std::move(scan2), 18000.0);
  filter->num_predicates = 2;
  const QueryMetrics two = sim_.Execute(MakePlan(std::move(filter), 13));
  EXPECT_GT(two.cpu_seconds, one.cpu_seconds);
}

}  // namespace
}  // namespace qpp::engine
