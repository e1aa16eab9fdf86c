#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/str_util.h"
#include "optimizer/cost_model.h"
#include "optimizer/join_order.h"
#include "sql/parser.h"

namespace qpp::optimizer {

namespace {

std::unique_ptr<PhysicalNode> WrapExchange(std::unique_ptr<PhysicalNode> child,
                                           const std::string& detail) {
  auto ex = std::make_unique<PhysicalNode>(PhysOp::kExchange);
  ex->est_rows = child->est_rows;
  ex->true_rows = child->true_rows;
  ex->est_input_rows = child->est_rows;
  ex->true_input_rows = child->true_rows;
  ex->row_width = child->row_width;
  ex->detail = detail;
  ex->children.push_back(std::move(child));
  return ex;
}

std::unique_ptr<PhysicalNode> WrapSplit(std::unique_ptr<PhysicalNode> child) {
  auto split = std::make_unique<PhysicalNode>(PhysOp::kSplit);
  split->est_rows = child->est_rows;
  split->true_rows = child->true_rows;
  split->est_input_rows = child->est_rows;
  split->true_input_rows = child->true_rows;
  split->row_width = child->row_width;
  split->broadcast = true;
  split->detail = "broadcast";
  split->children.push_back(std::move(child));
  return split;
}

}  // namespace

Optimizer::Optimizer(const catalog::Catalog* catalog,
                     OptimizerOptions options)
    : catalog_(catalog),
      options_(options),
      cards_(options.world_seed) {
  QPP_CHECK(catalog != nullptr);
  QPP_CHECK(options_.nodes_used >= 1);
}

Result<PhysicalPlan> Optimizer::Plan(const std::string& sql_text) const {
  Result<std::shared_ptr<sql::SelectStmt>> stmt = sql::Parse(sql_text);
  if (!stmt.ok()) return stmt.status();
  return Plan(*stmt.value(), sql_text);
}

Result<PhysicalPlan> Optimizer::Plan(const sql::SelectStmt& stmt,
                                     const std::string& sql_text) const {
  Result<LogicalPlan> logical = BuildLogicalPlan(stmt, *catalog_);
  if (!logical.ok()) return logical.status();

  Fragment frag = PlanLogical(logical.value());

  // Plain LIMIT without ORDER BY caps the result directly.
  if (logical.value().limit && logical.value().num_sort_columns == 0) {
    const double cap = static_cast<double>(*logical.value().limit);
    frag.est_rows = std::min(frag.est_rows, cap);
    frag.true_rows = std::min(frag.true_rows, cap);
    frag.node->est_rows = std::min(frag.node->est_rows, cap);
    frag.node->true_rows = std::min(frag.node->true_rows, cap);
  }

  // Final exchange to the coordinator + root composition.
  auto exchange = WrapExchange(std::move(frag.node), "to coordinator");
  auto root = std::make_unique<PhysicalNode>(PhysOp::kRoot);
  root->est_rows = frag.est_rows;
  root->true_rows = frag.true_rows;
  root->est_input_rows = frag.est_rows;
  root->true_input_rows = frag.true_rows;
  root->row_width = frag.width;
  root->children.push_back(std::move(exchange));

  PhysicalPlan plan;
  plan.root = std::move(root);
  plan.sql = sql_text;
  plan.query_hash = HashString64(sql_text);
  plan.optimizer_cost = EstimatePlanCost(*plan.root);
  return plan;
}

Optimizer::Fragment Optimizer::PlanRelation(const LogicalPlan& plan,
                                            size_t rel_index) const {
  const LogicalRelation& rel = plan.relations[rel_index];
  if (rel.IsDerived()) {
    return PlanLogical(*rel.derived);
  }
  const catalog::Table& table = *rel.catalog_table;

  Fragment frag;
  auto scan = std::make_unique<PhysicalNode>(PhysOp::kFileScan);
  scan->table = table.name;
  scan->est_input_rows = table.row_count;
  scan->true_input_rows = table.row_count;
  const DualValue rows = cards_.RelationCardinality(rel);
  scan->est_rows = rows.estimate;
  scan->true_rows = rows.truth;
  // Scans project a subset of columns; 60% of the stored width is a
  // representative projection footprint.
  scan->row_width = std::max(8.0, table.RowWidthBytes() * 0.6);
  scan->num_predicates = rel.selections.size();
  if (rel.alias != rel.table) scan->detail = rel.alias;

  auto part = std::make_unique<PhysicalNode>(PhysOp::kPartitionAccess);
  part->est_rows = scan->est_rows;
  part->true_rows = scan->true_rows;
  part->est_input_rows = scan->est_rows;
  part->true_input_rows = scan->true_rows;
  part->row_width = scan->row_width;

  frag.est_rows = scan->est_rows;
  frag.true_rows = scan->true_rows;
  frag.width = scan->row_width;
  part->children.push_back(std::move(scan));
  frag.node = std::move(part);
  return frag;
}

Optimizer::Fragment Optimizer::PlanLogical(const LogicalPlan& plan) const {
  QPP_CHECK(!plan.relations.empty());

  // 1. Leaf fragments.
  std::vector<Fragment> leaves;
  leaves.reserve(plan.relations.size());
  std::vector<double> est_cards;
  est_cards.reserve(plan.relations.size());
  for (size_t i = 0; i < plan.relations.size(); ++i) {
    leaves.push_back(PlanRelation(plan, i));
    est_cards.push_back(leaves.back().est_rows);
  }

  // 2. Join order.
  const std::vector<JoinEdgeNdv> edge_ndvs = JoinEdgeNdvs(plan, est_cards);
  const JoinOrder order = OrderJoins(plan, cards_, est_cards, edge_ndvs);

  // 3. Left-deep join tree.
  std::vector<bool> joined(plan.relations.size(), false);
  const auto in_set = [&](size_t i) { return joined[i]; };

  Fragment acc = std::move(leaves[order.sequence[0]]);
  joined[order.sequence[0]] = true;

  // Merge joins require co-located scans on partitioning keys; only the
  // first join in the pipeline can exploit that.
  bool acc_is_colocated_scan = !plan.relations[order.sequence[0]].IsDerived();

  EdgeBundle bundle;
  for (size_t step = 1; step < order.sequence.size(); ++step) {
    const size_t r = order.sequence[step];
    Fragment inner = std::move(leaves[r]);
    CollectJoinEdges(plan, r, in_set, edge_ndvs, &bundle);

    const double est_out = cards_.JoinOutputCardinality(
        acc.est_rows, inner.est_rows, bundle.edges, bundle.set_ndvs,
        bundle.rel_ndvs, CardMode::kEstimate);
    const double true_out = cards_.JoinOutputCardinality(
        acc.true_rows, inner.true_rows, bundle.edges, bundle.set_ndvs,
        bundle.rel_ndvs, CardMode::kTrue);

    bool all_equi = !bundle.edges.empty();
    bool any_semi = false;
    for (const BoundJoin* e : bundle.edges) {
      all_equi = all_equi && e->equi;
      any_semi = any_semi || e->semi;
    }

    // Physical join selection. The broadcast side of a nested-loop join is
    // whichever input is smaller; swapping is legal except for semi joins
    // (their filtered side must stay on the outer/left).
    PhysOp join_op;
    const double broadcast_limit = kBroadcastRowBudget / options_.nodes_used;
    const bool can_swap = !any_semi;
    const double small_side =
        can_swap ? std::min(acc.est_rows, inner.est_rows) : inner.est_rows;
    bool use_merge = false;
    if (all_equi && acc_is_colocated_scan && step == 1 &&
        bundle.edges.size() == 1 && !plan.relations[r].IsDerived()) {
      const BoundJoin& e = *bundle.edges[0];
      const catalog::Table* lt = plan.relations[e.left_rel].catalog_table;
      const catalog::Table* rt = plan.relations[e.right_rel].catalog_table;
      use_merge =
          lt != nullptr && rt != nullptr &&
          EqualsIgnoreCaseAscii(e.left_column, lt->partitioning_column) &&
          EqualsIgnoreCaseAscii(e.right_column, rt->partitioning_column);
    }
    if (!all_equi) {
      join_op = PhysOp::kNestedJoin;
    } else if (use_merge) {
      join_op = PhysOp::kMergeJoin;
    } else if (small_side <= broadcast_limit) {
      join_op = PhysOp::kNestedJoin;
    } else {
      join_op = PhysOp::kHashJoin;
    }
    // For nested joins, make the smaller input the broadcast inner.
    const bool swap_sides = join_op == PhysOp::kNestedJoin && can_swap &&
                            acc.est_rows < inner.est_rows;

    auto join = std::make_unique<PhysicalNode>(join_op);
    join->semi = any_semi;
    join->est_rows = est_out;
    join->true_rows = true_out;
    join->est_input_rows = acc.est_rows + inner.est_rows;
    join->true_input_rows = acc.true_rows + inner.true_rows;
    join->row_width =
        any_semi ? acc.width : std::min(acc.width + inner.width, 512.0);
    if (bundle.edges.empty()) join->detail = "cross";

    std::unique_ptr<PhysicalNode> left = std::move(acc.node);
    std::unique_ptr<PhysicalNode> right = std::move(inner.node);
    if (swap_sides) std::swap(left, right);
    if (join_op == PhysOp::kNestedJoin) {
      right = WrapSplit(std::move(right));
    } else if (join_op == PhysOp::kHashJoin) {
      left = WrapExchange(std::move(left), "repartition");
      right = WrapExchange(std::move(right), "repartition");
    }
    join->children.push_back(std::move(left));
    join->children.push_back(std::move(right));

    acc.node = std::move(join);
    acc.est_rows = est_out;
    acc.true_rows = true_out;
    acc.width = acc.node->row_width;
    acc_is_colocated_scan = false;
    joined[r] = true;
  }

  // 4. Residual post-join filters (multi-relation OR trees, HAVING, ...).
  if (plan.num_residual_predicates > 0) {
    const double sel = std::pow(CardinalityModel::kResidualSelectivity,
                                static_cast<double>(plan.num_residual_predicates));
    auto filter = std::make_unique<PhysicalNode>(PhysOp::kFilter);
    filter->num_predicates = plan.num_residual_predicates;
    filter->est_input_rows = acc.est_rows;
    filter->true_input_rows = acc.true_rows;
    filter->est_rows = std::max(1.0, acc.est_rows * sel);
    filter->true_rows = acc.true_rows * sel;
    filter->row_width = acc.width;
    filter->children.push_back(std::move(acc.node));
    acc.node = std::move(filter);
    acc.est_rows = acc.node->est_rows;
    acc.true_rows = acc.node->true_rows;
  }

  // 5. Aggregation.
  if (plan.num_group_columns > 0) {
    std::vector<double> group_ndvs;
    std::string key = "groupby";
    for (const auto& [rel, column] : plan.group_column_refs) {
      group_ndvs.push_back(EffectiveNdv(plan, rel, column, est_cards));
      key += "|" + plan.relations[rel].alias + "." + column;
    }
    // Columns we failed to resolve still reduce cardinality; assume a
    // mid-sized domain for each.
    while (group_ndvs.size() < plan.num_group_columns) {
      group_ndvs.push_back(1000.0);
    }
    const double est_groups = cards_.GroupCardinality(
        acc.est_rows, group_ndvs, CardMode::kEstimate, key);
    const double true_groups = cards_.GroupCardinality(
        acc.true_rows, group_ndvs, CardMode::kTrue, key);
    const double agg_width =
        8.0 * static_cast<double>(plan.num_group_columns +
                                  std::max<size_t>(plan.num_aggregates, 1));

    // Partial (per-node) aggregation...
    auto partial = std::make_unique<PhysicalNode>(PhysOp::kHashGroupBy);
    partial->detail = "partial";
    partial->num_group_cols = plan.num_group_columns;
    partial->num_aggs = plan.num_aggregates;
    partial->est_input_rows = acc.est_rows;
    partial->true_input_rows = acc.true_rows;
    partial->est_rows =
        std::min(acc.est_rows, est_groups * options_.nodes_used);
    partial->true_rows =
        std::min(acc.true_rows, true_groups * options_.nodes_used);
    partial->row_width = agg_width;
    partial->children.push_back(std::move(acc.node));

    // ...repartitioned on the grouping keys...
    auto exchange = WrapExchange(std::move(partial), "hash on group keys");

    // ...then final aggregation.
    auto final_agg = std::make_unique<PhysicalNode>(PhysOp::kHashGroupBy);
    final_agg->detail = "final";
    final_agg->num_group_cols = plan.num_group_columns;
    final_agg->num_aggs = plan.num_aggregates;
    final_agg->est_input_rows = exchange->est_rows;
    final_agg->true_input_rows = exchange->true_rows;
    final_agg->est_rows = est_groups;
    final_agg->true_rows = std::min(true_groups, exchange->true_rows);
    final_agg->row_width = agg_width;
    final_agg->children.push_back(std::move(exchange));

    acc.est_rows = final_agg->est_rows;
    acc.true_rows = final_agg->true_rows;
    acc.width = agg_width;
    acc.node = std::move(final_agg);
  } else if (plan.num_aggregates > 0) {
    auto agg = std::make_unique<PhysicalNode>(PhysOp::kScalarAgg);
    agg->num_aggs = plan.num_aggregates;
    agg->est_input_rows = acc.est_rows;
    agg->true_input_rows = acc.true_rows;
    agg->est_rows = 1.0;
    agg->true_rows = 1.0;
    agg->row_width = 8.0 * static_cast<double>(plan.num_aggregates);
    agg->children.push_back(std::move(acc.node));
    acc.est_rows = 1.0;
    acc.true_rows = 1.0;
    acc.width = agg->row_width;
    acc.node = std::move(agg);
  } else if (plan.distinct) {
    auto dist = std::make_unique<PhysicalNode>(PhysOp::kHashGroupBy);
    dist->detail = "distinct";
    dist->num_group_cols = 1;
    dist->est_input_rows = acc.est_rows;
    dist->true_input_rows = acc.true_rows;
    dist->est_rows = std::max(1.0, std::pow(acc.est_rows, 0.85));
    dist->true_rows = std::max(0.0, std::pow(acc.true_rows, 0.85));
    dist->row_width = acc.width;
    dist->children.push_back(std::move(acc.node));
    acc.est_rows = dist->est_rows;
    acc.true_rows = dist->true_rows;
    acc.node = std::move(dist);
  }

  // 6. Ordering.
  if (plan.num_sort_columns > 0) {
    if (plan.limit) {
      const double cap = static_cast<double>(*plan.limit);
      auto topn = std::make_unique<PhysicalNode>(PhysOp::kTopN);
      topn->detail = StrFormat("limit %lld",
                               static_cast<long long>(*plan.limit));
      topn->est_input_rows = acc.est_rows;
      topn->true_input_rows = acc.true_rows;
      topn->est_rows = std::min(acc.est_rows, cap);
      topn->true_rows = std::min(acc.true_rows, cap);
      topn->row_width = acc.width;
      topn->children.push_back(std::move(acc.node));
      acc.est_rows = topn->est_rows;
      acc.true_rows = topn->true_rows;
      acc.node = std::move(topn);
    } else {
      auto sort = std::make_unique<PhysicalNode>(PhysOp::kSort);
      sort->detail =
          StrFormat("%zu sort columns", plan.num_sort_columns);
      sort->est_input_rows = acc.est_rows;
      sort->true_input_rows = acc.true_rows;
      sort->est_rows = acc.est_rows;
      sort->true_rows = acc.true_rows;
      sort->row_width = acc.width;
      sort->children.push_back(std::move(acc.node));
      acc.node = WrapExchange(std::move(sort), "merge sorted streams");
    }
  }
  return acc;
}

}  // namespace qpp::optimizer
