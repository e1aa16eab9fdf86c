// Tests for optimizer/: binding, cardinality models, join ordering,
// physical plan shape, and the abstract cost model.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "catalog/tpcds.h"
#include "optimizer/cardinality.h"
#include "optimizer/cost_model.h"
#include "optimizer/join_order.h"
#include "optimizer/logical_plan.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"

namespace qpp::optimizer {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : catalog_(catalog::MakeTpcdsCatalog(1.0)) {}

  LogicalPlan Bind(const std::string& sql) {
    auto stmt = sql::Parse(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().message();
    auto plan = BuildLogicalPlan(*stmt.value(), catalog_);
    EXPECT_TRUE(plan.ok()) << plan.status().message();
    return std::move(plan).value();
  }

  PhysicalPlan Plan(const std::string& sql, int nodes = 4) {
    OptimizerOptions opts;
    opts.nodes_used = nodes;
    Optimizer opt(&catalog_, opts);
    auto plan = opt.Plan(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().message();
    return std::move(plan).value();
  }

  size_t CountOps(const PhysicalPlan& plan, PhysOp op) {
    size_t n = 0;
    plan.Visit([&](const PhysicalNode& node) {
      if (node.op == op) ++n;
    });
    return n;
  }

  catalog::Catalog catalog_;
};

TEST_F(OptimizerTest, BindPushesSelectionsAndJoins) {
  const LogicalPlan plan = Bind(
      "SELECT i_brand FROM store_sales, item "
      "WHERE ss_item_sk = i_item_sk AND i_category_id = 3 "
      "AND ss_quantity > 10");
  ASSERT_EQ(plan.relations.size(), 2u);
  EXPECT_EQ(plan.relations[0].table, "store_sales");
  EXPECT_EQ(plan.relations[0].selections.size(), 1u);  // ss_quantity > 10
  EXPECT_EQ(plan.relations[1].selections.size(), 1u);  // i_category_id = 3
  ASSERT_EQ(plan.joins.size(), 1u);
  EXPECT_TRUE(plan.joins[0].equi);
  EXPECT_FALSE(plan.joins[0].semi);
}

TEST_F(OptimizerTest, BindRejectsUnknownTableAndColumn) {
  auto stmt = sql::Parse("SELECT x FROM nonexistent").value();
  EXPECT_FALSE(BuildLogicalPlan(*stmt, catalog_).ok());
  auto stmt2 =
      sql::Parse("SELECT 1 FROM item WHERE bogus_column = 3").value();
  EXPECT_FALSE(BuildLogicalPlan(*stmt2, catalog_).ok());
}

TEST_F(OptimizerTest, BindResolvesAliases) {
  const LogicalPlan plan = Bind(
      "SELECT COUNT(*) FROM store_sales a, store_sales b "
      "WHERE a.ss_item_sk = b.ss_item_sk");
  ASSERT_EQ(plan.relations.size(), 2u);
  EXPECT_EQ(plan.relations[0].alias, "a");
  ASSERT_EQ(plan.joins.size(), 1u);
}

TEST_F(OptimizerTest, InSubqueryBecomesSemiJoinedDerivedRelation) {
  const LogicalPlan plan = Bind(
      "SELECT COUNT(*) FROM customer WHERE c_customer_sk IN "
      "(SELECT ss_customer_sk FROM store_sales WHERE ss_quantity > 50)");
  ASSERT_EQ(plan.relations.size(), 2u);
  EXPECT_TRUE(plan.relations[1].IsDerived());
  ASSERT_EQ(plan.joins.size(), 1u);
  EXPECT_TRUE(plan.joins[0].semi);
  EXPECT_EQ(plan.joins[0].left_rel, 0u);
  EXPECT_EQ(plan.joins[0].right_rel, 1u);
}

TEST_F(OptimizerTest, CorrelatedExistsPromotedToSemiJoin) {
  const LogicalPlan plan = Bind(
      "SELECT COUNT(*) FROM item WHERE EXISTS "
      "(SELECT sr_item_sk FROM store_returns "
      "WHERE sr_item_sk = i_item_sk AND sr_return_quantity > 10)");
  ASSERT_EQ(plan.relations.size(), 2u);
  ASSERT_EQ(plan.joins.size(), 1u);
  EXPECT_TRUE(plan.joins[0].semi);
  // The correlated predicate must have left the derived plan.
  const LogicalPlan& sub = *plan.relations[1].derived;
  EXPECT_EQ(sub.relations[0].selections.size(), 1u);  // quantity filter only
}

TEST_F(OptimizerTest, GroupSortLimitShape) {
  const LogicalPlan plan = Bind(
      "SELECT d_year, COUNT(*), SUM(ss_net_paid) FROM store_sales, date_dim "
      "WHERE ss_sold_date_sk = d_date_sk GROUP BY d_year "
      "ORDER BY d_year LIMIT 10");
  EXPECT_EQ(plan.num_group_columns, 1u);
  EXPECT_EQ(plan.num_aggregates, 2u);
  EXPECT_EQ(plan.num_sort_columns, 1u);
  EXPECT_EQ(plan.limit, 10);
  ASSERT_EQ(plan.group_column_refs.size(), 1u);
  EXPECT_EQ(plan.group_column_refs[0].second, "d_year");
}

// --- cardinality ---------------------------------------------------------

class CardinalityTest : public OptimizerTest {};

TEST_F(CardinalityTest, EqualityOnHighNdvColumnIsOneOverNdv) {
  // ss_ticket_number's domain exceeds the histogram limit, so the
  // estimator falls back to the uniform 1/NDV rule.
  const LogicalPlan plan =
      Bind("SELECT 1 FROM store_sales WHERE ss_ticket_number = 123");
  CardinalityModel model(1);
  const double est = model.RelationSelectivity(plan.relations[0]).estimate;
  const double ndv =
      catalog_.FindTable("store_sales")->FindColumn("ss_ticket_number")->ndv;
  EXPECT_NEAR(est, 1.0 / ndv, 1e-12);
}

TEST_F(CardinalityTest, EqualityOnLowNdvColumnIsHistogramBacked) {
  // d_moy has 12 distinct values: the histogram knows each constant's
  // frequency, so the estimate tracks the per-constant truth closely and
  // is NOT exactly 1/NDV.
  const LogicalPlan plan =
      Bind("SELECT 1 FROM date_dim WHERE d_moy = 5");
  CardinalityModel model(1);
  const double est = model.RelationSelectivity(plan.relations[0]).estimate;
  const double truth =
      model.RelationSelectivity(plan.relations[0]).truth;
  EXPECT_GT(est, 0.0);
  EXPECT_LE(est, 1.0);
  EXPECT_LT(std::abs(std::log(est / truth)), 0.4);  // close to truth
}

TEST_F(CardinalityTest, BetweenSelectivityNearRangeFraction) {
  const LogicalPlan plan = Bind(
      "SELECT 1 FROM date_dim WHERE d_year BETWEEN 1950 AND 1970");
  CardinalityModel model(1);
  const double est = model.RelationSelectivity(plan.relations[0]).estimate;
  // Range histograms keep the estimate near the uniform width fraction
  // (truth deviates mildly; estimate tracks truth).
  const double uniform = 20.0 / 200.0;
  EXPECT_LT(std::abs(std::log(est / uniform)), 0.6);
  const double truth =
      model.RelationSelectivity(plan.relations[0]).truth;
  EXPECT_LT(std::abs(std::log(est / truth)), 0.3);
}

TEST_F(CardinalityTest, TrueSelectivityDeterministicAndClamped) {
  const LogicalPlan plan =
      Bind("SELECT 1 FROM item WHERE i_category_id = 7");
  CardinalityModel m1(99), m2(99), m3(7);
  const double t1 = m1.RelationSelectivity(plan.relations[0]).truth;
  const double t2 = m2.RelationSelectivity(plan.relations[0]).truth;
  const double t3 = m3.RelationSelectivity(plan.relations[0]).truth;
  EXPECT_EQ(t1, t2);              // same world seed -> identical truth
  EXPECT_NE(t1, t3);              // different world -> different truth
  EXPECT_GT(t1, 0.0);
  EXPECT_LE(t1, 1.0);
}

TEST_F(CardinalityTest, SamePredicateSameTruthAcrossQueries) {
  const LogicalPlan p1 = Bind("SELECT 1 FROM item WHERE i_category_id = 7");
  const LogicalPlan p2 =
      Bind("SELECT i_brand FROM item WHERE i_category_id = 7");
  CardinalityModel model(5);
  EXPECT_EQ(
      model.SelectionSelectivity(*catalog_.FindTable("item"),
                                 p1.relations[0].selections[0])
          .truth,
      model.SelectionSelectivity(*catalog_.FindTable("item"),
                                 p2.relations[0].selections[0])
          .truth);
}

TEST_F(CardinalityTest, JoinCardinalityUsesMaxNdv) {
  CardinalityModel model(1);
  BoundJoin join;
  join.equi = true;
  join.semantic_key = "k";
  const double out = model.JoinOutputCardinality(
      1000.0, 2000.0, {&join}, {100.0}, {500.0}, CardMode::kEstimate);
  EXPECT_NEAR(out, 1000.0 * 2000.0 / 500.0, 1e-9);
}

TEST_F(CardinalityTest, SemiJoinCapsAtLeftCardinality) {
  CardinalityModel model(1);
  BoundJoin join;
  join.equi = true;
  join.semi = true;
  join.semantic_key = "semi";
  const double out = model.JoinOutputCardinality(
      50.0, 1e9, {&join}, {10.0}, {10.0}, CardMode::kEstimate);
  EXPECT_LE(out, 50.0);
}

TEST_F(CardinalityTest, GroupCardinalityBounded) {
  CardinalityModel model(1);
  EXPECT_EQ(model.GroupCardinality(1e6, {12.0, 10.0}, CardMode::kEstimate,
                                   "g"),
            120.0);
  EXPECT_EQ(model.GroupCardinality(50.0, {12.0, 10.0}, CardMode::kEstimate,
                                   "g"),
            50.0);
  // True mode stays within input.
  EXPECT_LE(model.GroupCardinality(50.0, {1000.0}, CardMode::kTrue, "g"),
            50.0);
}

// --- join ordering --------------------------------------------------------

TEST_F(OptimizerTest, JoinOrderIsPermutationRespectingSemiConstraints) {
  const LogicalPlan plan = Bind(
      "SELECT COUNT(*) FROM customer WHERE c_birth_year > 1970 "
      "AND c_customer_sk IN (SELECT ss_customer_sk FROM store_sales)");
  CardinalityModel model(1);
  std::vector<double> cards;
  for (const auto& rel : plan.relations) {
    cards.push_back(rel.IsDerived() ? 1e5 : 100.0);
  }
  const JoinOrder order = OrderJoins(
      plan, model, cards,
      std::vector<JoinEdgeNdv>(plan.joins.size(), JoinEdgeNdv{100.0, 100.0}));
  ASSERT_EQ(order.sequence.size(), plan.relations.size());
  std::set<size_t> seen(order.sequence.begin(), order.sequence.end());
  EXPECT_EQ(seen.size(), order.sequence.size());
  // The semi-joined derived relation (index 1) must come after customer (0).
  size_t pos0 = 0, pos1 = 0;
  for (size_t i = 0; i < order.sequence.size(); ++i) {
    if (order.sequence[i] == 0) pos0 = i;
    if (order.sequence[i] == 1) pos1 = i;
  }
  EXPECT_LT(pos0, pos1);
}

TEST_F(OptimizerTest, JoinOrderPrefersSelectiveDimensionFirst) {
  // Joining item (18k rows, filtered) before the fact table keeps
  // intermediates small; DP should start from a small relation.
  const LogicalPlan plan = Bind(
      "SELECT COUNT(*) FROM store_sales, item, date_dim "
      "WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk "
      "AND i_category_id = 3 AND d_year = 2000");
  CardinalityModel model(1);
  std::vector<double> cards;
  for (const auto& rel : plan.relations) {
    cards.push_back(model.RelationCardinality(rel).estimate);
  }
  const JoinOrder order =
      OrderJoins(plan, model, cards, JoinEdgeNdvs(plan, cards));
  // store_sales (index 0) must not be the seed: orders with identical
  // intermediates tie on join cost, and the seed-cardinality term breaks
  // the tie toward the filtered dimension tables.
  EXPECT_NE(order.sequence[0], 0u);
}

// --- physical plans -------------------------------------------------------

TEST_F(OptimizerTest, PlanShapeRootExchangeScan) {
  const PhysicalPlan plan = Plan("SELECT i_brand FROM item");
  ASSERT_NE(plan.root, nullptr);
  EXPECT_EQ(plan.root->op, PhysOp::kRoot);
  ASSERT_EQ(plan.root->children.size(), 1u);
  EXPECT_EQ(plan.root->children[0]->op, PhysOp::kExchange);
  EXPECT_EQ(CountOps(plan, PhysOp::kFileScan), 1u);
  EXPECT_EQ(CountOps(plan, PhysOp::kPartitionAccess), 1u);
}

TEST_F(OptimizerTest, NonEquiJoinUsesNestedLoopsWithBroadcast) {
  const PhysicalPlan plan = Plan(
      "SELECT COUNT(*) FROM store_sales, store_returns "
      "WHERE ss_ext_sales_price > sr_return_amt");
  EXPECT_EQ(CountOps(plan, PhysOp::kNestedJoin), 1u);
  EXPECT_EQ(CountOps(plan, PhysOp::kSplit), 1u);
  EXPECT_EQ(CountOps(plan, PhysOp::kHashJoin), 0u);
}

TEST_F(OptimizerTest, LargeEquiJoinUsesHashJoinWithExchanges) {
  const PhysicalPlan plan = Plan(
      "SELECT COUNT(*) FROM store_sales, customer "
      "WHERE ss_customer_sk = c_customer_sk");
  EXPECT_EQ(CountOps(plan, PhysOp::kHashJoin), 1u);
  // Repartition both inputs + final exchange to coordinator.
  EXPECT_GE(CountOps(plan, PhysOp::kExchange), 3u);
}

TEST_F(OptimizerTest, SmallDimensionBroadcastsThroughNestedJoin) {
  const PhysicalPlan plan = Plan(
      "SELECT COUNT(*) FROM store_sales, store "
      "WHERE ss_store_sk = s_store_sk");
  EXPECT_EQ(CountOps(plan, PhysOp::kNestedJoin), 1u);
}

TEST_F(OptimizerTest, ColocatedKeysUseMergeJoin) {
  // store_sales is partitioned on ss_item_sk and item on i_item_sk; the
  // first join on exactly those keys is co-located. At 4 nodes item's
  // estimate exceeds kBroadcastRowBudget / 4 rows, so it is not broadcast.
  OptimizerOptions opts;
  opts.nodes_used = 4;
  Optimizer opt(&catalog_, opts);
  const auto plan = opt.Plan(
      "SELECT COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk");
  ASSERT_TRUE(plan.ok());
  size_t merges = 0;
  plan.value().Visit([&](const PhysicalNode& n) {
    if (n.op == PhysOp::kMergeJoin) ++merges;
  });
  EXPECT_EQ(merges, 1u);
}

TEST_F(OptimizerTest, AggregationEmitsPartialAndFinal) {
  const PhysicalPlan plan = Plan(
      "SELECT d_year, COUNT(*) FROM store_sales, date_dim "
      "WHERE ss_sold_date_sk = d_date_sk GROUP BY d_year");
  EXPECT_EQ(CountOps(plan, PhysOp::kHashGroupBy), 2u);
}

TEST_F(OptimizerTest, OrderByLimitBecomesTopN) {
  const PhysicalPlan topn = Plan(
      "SELECT i_item_sk FROM item ORDER BY i_item_sk LIMIT 5");
  EXPECT_EQ(CountOps(topn, PhysOp::kTopN), 1u);
  EXPECT_LE(topn.root->true_rows, 5.0);
  const PhysicalPlan sort =
      Plan("SELECT i_item_sk FROM item ORDER BY i_item_sk");
  EXPECT_EQ(CountOps(sort, PhysOp::kSort), 1u);
}

TEST_F(OptimizerTest, EstimatedAndTrueCardinalitiesBothPropagate) {
  const PhysicalPlan plan = Plan(
      "SELECT COUNT(*) FROM store_sales, item "
      "WHERE ss_item_sk = i_item_sk AND i_category_id = 3");
  plan.Visit([&](const PhysicalNode& n) {
    EXPECT_GE(n.est_rows, 0.0);
    EXPECT_GE(n.true_rows, 0.0);
  });
  // records accessed = both table scans' inputs.
  EXPECT_NEAR(plan.TrueRecordsAccessed(), 2880404.0 + 18000.0, 1.0);
  EXPECT_LE(plan.TrueRecordsUsed(), plan.TrueRecordsAccessed());
}

TEST_F(OptimizerTest, PlanDependsOnParallelismDegree) {
  // catalog_page (11718 rows) fits the broadcast budget at 4 nodes
  // (50000/4 = 12500) but not at 32 (1562), so the physical join flips.
  const std::string sql =
      "SELECT COUNT(*) FROM catalog_sales, catalog_page "
      "WHERE cs_catalog_page_sk = cp_catalog_page_sk";
  const PhysicalPlan p4 = Plan(sql, 4);
  const PhysicalPlan p32 = Plan(sql, 32);
  EXPECT_EQ(CountOps(p4, PhysOp::kNestedJoin), 1u);
  EXPECT_EQ(CountOps(p32, PhysOp::kNestedJoin), 0u);
  EXPECT_EQ(CountOps(p32, PhysOp::kHashJoin), 1u);
}

TEST_F(OptimizerTest, PlanIsDeterministic) {
  const std::string sql =
      "SELECT d_year, COUNT(*) FROM store_sales, date_dim "
      "WHERE ss_sold_date_sk = d_date_sk GROUP BY d_year";
  const PhysicalPlan a = Plan(sql);
  const PhysicalPlan b = Plan(sql);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.optimizer_cost, b.optimizer_cost);
}

TEST_F(OptimizerTest, PlanToStringMentionsOperators) {
  const PhysicalPlan plan = Plan(
      "SELECT COUNT(*) FROM store_sales, store_returns "
      "WHERE ss_ext_sales_price > sr_return_amt");
  const std::string text = plan.ToString();
  EXPECT_NE(text.find("nested_join"), std::string::npos);
  EXPECT_NE(text.find("file_scan [ store_sales ]"), std::string::npos);
  EXPECT_NE(text.find("root"), std::string::npos);
}

TEST_F(OptimizerTest, ToDotRendersValidGraph) {
  const PhysicalPlan plan = Plan(
      "SELECT COUNT(*) FROM store_sales, item WHERE ss_item_sk = i_item_sk");
  const std::string dot = plan.ToDot("g");
  EXPECT_EQ(dot.find("digraph g {"), 0u);
  EXPECT_NE(dot.find("file_scan"), std::string::npos);
  EXPECT_NE(dot.find("store_sales"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
  // One node line per plan node.
  size_t nodes = 0;
  plan.Visit([&](const PhysicalNode&) { ++nodes; });
  size_t boxes = 0;
  for (size_t pos = dot.find("shape=box"); pos != std::string::npos;
       pos = dot.find("shape=box", pos + 1)) {
    ++boxes;
  }
  EXPECT_EQ(boxes, nodes);
  // No raw newlines inside labels (DOT requires the two-character escape).
  EXPECT_EQ(dot.find("[shape=box, label=\"root\nexchange"),
            std::string::npos);
}

// --- cost model -----------------------------------------------------------

TEST_F(OptimizerTest, CostModelRespondsToWeights) {
  const PhysicalPlan plan = Plan(
      "SELECT COUNT(*) FROM store_sales, customer "
      "WHERE ss_customer_sk = c_customer_sk");
  CostModelWeights base;
  CostModelWeights heavy_join = base;
  heavy_join.hash_join *= 10.0;
  CostModelWeights heavy_scan = base;
  heavy_scan.scan *= 10.0;
  const double c0 = EstimatePlanCost(*plan.root, base);
  EXPECT_GT(EstimatePlanCost(*plan.root, heavy_join), c0);
  EXPECT_GT(EstimatePlanCost(*plan.root, heavy_scan), c0);
  // Scaling the output factor scales the cost linearly.
  CostModelWeights scaled = base;
  scaled.output_scale *= 2.0;
  EXPECT_NEAR(EstimatePlanCost(*plan.root, scaled), 2.0 * c0, 1e-9);
}

TEST_F(OptimizerTest, CostPositiveAndMonotoneInWindowWidth) {
  const PhysicalPlan narrow = Plan(
      "SELECT COUNT(*) FROM store_sales "
      "WHERE ss_sold_date_sk BETWEEN 2451000 AND 2451010");
  const PhysicalPlan wide = Plan(
      "SELECT COUNT(*) FROM store_sales "
      "WHERE ss_sold_date_sk BETWEEN 2451000 AND 2452500");
  EXPECT_GT(narrow.optimizer_cost, 0.0);
  // Same scan input; wider range -> more downstream rows -> higher cost.
  EXPECT_GT(wide.optimizer_cost, narrow.optimizer_cost);
}

TEST_F(OptimizerTest, CostUsesCompileTimeKnowledgeOnly) {
  OptimizerOptions o1, o2;
  o1.world_seed = 1;
  o2.world_seed = 2;
  Optimizer opt1(&catalog_, o1), opt2(&catalog_, o2);
  // High-NDV predicate: outside histogram coverage, so the estimate (and
  // hence the cost) is identical across hidden worlds.
  const std::string uncovered =
      "SELECT COUNT(*) FROM store_sales WHERE ss_ticket_number = 123";
  EXPECT_EQ(opt1.Plan(uncovered).value().optimizer_cost,
            opt2.Plan(uncovered).value().optimizer_cost);
  // Low-NDV predicate: histogram knowledge differs per world (histograms
  // are built from the data), so costs may legitimately differ — but the
  // cost is a pure function of (catalog, world seed, SQL).
  const std::string covered =
      "SELECT COUNT(*) FROM item WHERE i_category_id = 3";
  Optimizer opt1b(&catalog_, o1);
  EXPECT_EQ(opt1.Plan(covered).value().optimizer_cost,
            opt1b.Plan(covered).value().optimizer_cost);
}

}  // namespace
}  // namespace qpp::optimizer
