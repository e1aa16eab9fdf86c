#include "optimizer/logical_plan.h"

#include "common/str_util.h"

namespace qpp::optimizer {

namespace {

using sql::Expr;
using sql::ExprKind;
using sql::SelectStmt;

/// Resolution scope: the relations of one query level, plus the enclosing
/// level's scope for correlated references.
struct Scope {
  const std::vector<LogicalRelation>* relations = nullptr;
  const Scope* outer = nullptr;  ///< enclosing query scope (for correlation)

  /// Resolves a column reference to (relation index, is_outer). Returns
  /// false when unresolvable. Qualified references match a FROM entry's
  /// effective name; unqualified ones the first FROM table owning the
  /// column. Derived relations are never matched by name.
  bool Resolve(const Expr& col, size_t* rel, bool* is_outer) const {
    *is_outer = false;
    for (size_t i = 0; i < relations->size(); ++i) {
      const LogicalRelation& r = (*relations)[i];
      if (r.IsDerived()) continue;
      if (col.table.empty()
              ? r.catalog_table->FindColumn(col.column) != nullptr
              : r.alias == col.table) {
        *rel = i;
        return true;
      }
    }
    if (outer != nullptr && outer->Resolve(col, rel, is_outer)) {
      *is_outer = true;
      return true;
    }
    return false;
  }
};

/// The distinct relations an expression references: how many, and the
/// first two (a conjunct over more than two is residual whatever they are).
struct RelSet {
  size_t count = 0;
  size_t first = 0;
  size_t second = 0;

  void Insert(size_t r) {
    if ((count >= 1 && r == first) || (count >= 2 && r == second)) return;
    if (count == 0) first = r;
    if (count == 1) second = r;
    ++count;
  }
};

/// Collects the relations referenced by an expression (this scope only);
/// `has_outer_ref` records references that resolve in an enclosing scope.
/// Returns false on unresolvable column references.
bool CollectRelations(const Expr& e, const Scope& scope, RelSet* rels,
                      bool* has_outer_ref, std::string* error) {
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      size_t rel;
      bool is_outer;
      if (!scope.Resolve(e, &rel, &is_outer)) {
        *error = "unresolvable column: " + e.ToString();
        return false;
      }
      if (is_outer) {
        *has_outer_ref = true;
      } else {
        rels->Insert(rel);
      }
      return true;
    }
    case ExprKind::kLiteral:
    case ExprKind::kStar:
      return true;
    case ExprKind::kInSubquery:
    case ExprKind::kExists:
      // Subqueries are classified separately before this is called.
      if (e.left != nullptr &&
          !CollectRelations(*e.left, scope, rels, has_outer_ref, error)) {
        return false;
      }
      return true;
    default:
      for (const Expr* child :
           {e.left.get(), e.right.get(), e.lo.get(), e.hi.get()}) {
        if (child != nullptr &&
            !CollectRelations(*child, scope, rels, has_outer_ref, error)) {
          return false;
        }
      }
      for (const Expr& member : e.list) {
        if (!CollectRelations(member, scope, rels, has_outer_ref, error)) {
          return false;
        }
      }
      return true;
  }
}

const Expr* FirstColumnRef(const Expr& e) {
  if (e.kind == ExprKind::kColumnRef) return &e;
  for (const Expr* child :
       {e.left.get(), e.right.get(), e.lo.get(), e.hi.get()}) {
    if (child != nullptr) {
      const Expr* c = FirstColumnRef(*child);
      if (c != nullptr) return c;
    }
  }
  return nullptr;
}

size_t CountAggregates(const Expr& e) {
  if (e.kind == ExprKind::kAgg) return 1;
  size_t n = 0;
  for (const Expr* child :
       {e.left.get(), e.right.get(), e.lo.get(), e.hi.get()}) {
    if (child != nullptr) n += CountAggregates(*child);
  }
  return n;
}

struct Binder {
  const catalog::Catalog* catalog;
  std::string error;

  Result<LogicalPlan> Bind(const SelectStmt& stmt, const Scope* outer) {
    LogicalPlan plan;
    plan.catalog = catalog;

    Scope scope;
    scope.relations = &plan.relations;
    scope.outer = outer;

    // FROM list: base tables only at this level (derived relations are
    // introduced by subquery decorrelation below).
    for (const sql::TableRef& ref : stmt.from) {
      LogicalRelation rel;
      rel.catalog_table = catalog->FindTable(ref.table);
      if (rel.catalog_table == nullptr) {
        return Status::Error("unknown table: " + ref.table);
      }
      rel.table = ref.table;
      rel.alias = ref.EffectiveName();
      for (const LogicalRelation& other : plan.relations) {
        if (other.alias == rel.alias) {
          return Status::Error("duplicate relation name: " + rel.alias);
        }
      }
      plan.relations.push_back(std::move(rel));
    }

    // Classify WHERE conjuncts.
    if (stmt.where != nullptr) {
      for (const Expr* conjunct : sql::SplitConjuncts(*stmt.where)) {
        Status s = ClassifyConjunct(*conjunct, &plan, scope);
        if (!s.ok()) return s;
      }
    }

    // Aggregation / sort / limit shape.
    plan.num_group_columns = stmt.group_by.size();
    for (const Expr& g : stmt.group_by) {
      const Expr* col = FirstColumnRef(g);
      if (col != nullptr) {
        size_t rel;
        bool is_outer;
        if (scope.Resolve(*col, &rel, &is_outer) && !is_outer) {
          plan.group_column_refs.emplace_back(rel, col->column);
        }
      }
    }
    for (const sql::SelectItem& item : stmt.items) {
      plan.num_aggregates += CountAggregates(item.expr);
    }
    if (stmt.having != nullptr) {
      plan.num_aggregates += CountAggregates(*stmt.having);
      plan.num_residual_predicates += 1;
    }
    plan.distinct = stmt.distinct;
    plan.num_sort_columns = stmt.order_by.size();
    plan.limit = stmt.limit;

    // Output width: 8 bytes per select item as a baseline, plus actual
    // column widths when resolvable.
    double width = 0.0;
    for (const sql::SelectItem& item : stmt.items) {
      const Expr* col =
          item.expr.kind == ExprKind::kColumnRef ? &item.expr : nullptr;
      double w = 8.0;
      if (col != nullptr) {
        size_t rel;
        bool is_outer;
        if (scope.Resolve(*col, &rel, &is_outer) && !is_outer) {
          const catalog::Column* c =
              plan.relations[rel].catalog_table->FindColumn(col->column);
          if (c != nullptr) w = c->avg_width_bytes;
        }
      }
      width += w;
    }
    plan.output_width = std::max(width, 8.0);
    return plan;
  }

  /// Binds one WHERE conjunct: a selection (the only kind that keeps a copy
  /// of the predicate), a join edge, a subquery or a residual.
  Status ClassifyConjunct(const Expr& conjunct, LogicalPlan* plan,
                          const Scope& scope) {
    // Subquery predicates first.
    if (conjunct.kind == ExprKind::kInSubquery ||
        conjunct.kind == ExprKind::kExists) {
      return BindSubquery(conjunct, plan, scope);
    }

    RelSet rels;
    bool has_outer_ref = false;
    std::string err;
    if (!CollectRelations(conjunct, scope, &rels, &has_outer_ref, &err)) {
      return Status::Error(err);
    }
    if (has_outer_ref) {
      // Correlated predicate inside a subquery: the caller (BindSubquery)
      // extracts these before binding; reaching here means correlation in
      // an unsupported position — treat as residual.
      plan->num_residual_predicates += 1;
      return Status::Ok();
    }
    if (rels.count == 1) {
      LogicalRelation& rel = plan->relations[rels.first];
      BoundSelection sel;
      const Expr* col = FirstColumnRef(conjunct);
      if (col != nullptr) sel.column = col->column;
      sel.semantic_key = rel.table;
      sel.semantic_key.push_back('|');
      conjunct.AppendTo(&sel.semantic_key);
      sel.expr = conjunct.Clone();
      rel.selections.push_back(std::move(sel));
      return Status::Ok();
    }
    if (rels.count == 2 && conjunct.kind == ExprKind::kCompare &&
        conjunct.left != nullptr &&
        conjunct.left->kind == ExprKind::kColumnRef &&
        conjunct.right != nullptr &&
        conjunct.right->kind == ExprKind::kColumnRef) {
      size_t lrel, rrel;
      bool louter, router;
      QPP_CHECK(scope.Resolve(*conjunct.left, &lrel, &louter));
      QPP_CHECK(scope.Resolve(*conjunct.right, &rrel, &router));
      BoundJoin join;
      join.left_rel = lrel;
      join.right_rel = rrel;
      join.left_column = conjunct.left->column;
      join.right_column = conjunct.right->column;
      join.equi = conjunct.cmp == sql::CompareOp::kEq;
      join.semantic_key = conjunct.ToString();
      plan->joins.push_back(std::move(join));
      return Status::Ok();
    }
    // Anything else (multi-relation OR trees, 3-relation arithmetic, NOT):
    // a residual post-join filter.
    plan->num_residual_predicates += 1;
    return Status::Ok();
  }

  Status BindSubquery(const Expr& pred, LogicalPlan* plan,
                      const Scope& scope) {
    QPP_CHECK(pred.subquery != nullptr);
    // Extract correlated conjuncts from the subquery's WHERE: predicates
    // that compare an inner column with an outer column become semi-join
    // edges; the rest stay inside the derived plan.
    SelectStmt inner;
    inner.distinct = pred.subquery->distinct;
    for (const sql::SelectItem& item : pred.subquery->items) {
      inner.items.push_back({item.expr.Clone(), item.alias});
    }
    for (const sql::TableRef& ref : pred.subquery->from) inner.from.push_back(ref);
    for (const Expr& g : pred.subquery->group_by) {
      inner.group_by.push_back(g.Clone());
    }
    inner.limit = pred.subquery->limit;

    // Inner scope for classifying correlation (relations not yet bound, so
    // build a throwaway binder scope from the FROM list).
    std::vector<LogicalRelation> probe_relations;
    Scope inner_scope;
    inner_scope.relations = &probe_relations;
    inner_scope.outer = &scope;
    for (const sql::TableRef& ref : inner.from) {
      LogicalRelation rel;
      rel.catalog_table = catalog->FindTable(ref.table);
      if (rel.catalog_table == nullptr) {
        return Status::Error("unknown table in subquery: " + ref.table);
      }
      rel.alias = ref.EffectiveName();
      probe_relations.push_back(std::move(rel));
    }

    struct CorrelatedEdge {
      size_t outer_rel;
      std::string outer_column;
      std::string inner_column;
      bool equi;
      std::string key;
    };
    std::vector<CorrelatedEdge> edges;
    std::vector<Expr> kept;
    if (pred.subquery->where != nullptr) {
      for (const Expr* c : sql::SplitConjuncts(*pred.subquery->where)) {
        const Expr& conjunct = *c;
        bool correlated = false;
        if (conjunct.kind == ExprKind::kCompare &&
            conjunct.left != nullptr &&
            conjunct.left->kind == ExprKind::kColumnRef &&
            conjunct.right != nullptr &&
            conjunct.right->kind == ExprKind::kColumnRef) {
          size_t lrel = 0, rrel = 0;
          bool louter = false, router = false;
          const bool lok = inner_scope.Resolve(*conjunct.left, &lrel, &louter);
          const bool rok =
              inner_scope.Resolve(*conjunct.right, &rrel, &router);
          if (lok && rok && louter != router) {
            CorrelatedEdge edge;
            edge.equi = conjunct.cmp == sql::CompareOp::kEq;
            edge.key = conjunct.ToString();
            if (louter) {
              edge.outer_rel = lrel;
              edge.outer_column = conjunct.left->column;
              edge.inner_column = conjunct.right->column;
            } else {
              edge.outer_rel = rrel;
              edge.outer_column = conjunct.right->column;
              edge.inner_column = conjunct.left->column;
            }
            edges.push_back(std::move(edge));
            correlated = true;
          }
        }
        if (!correlated) kept.push_back(conjunct.Clone());
      }
    }
    // Rebuild inner WHERE from the kept conjuncts.
    for (Expr& k : kept) {
      if (!inner.where) {
        inner.where = std::make_unique<Expr>(std::move(k));
      } else {
        Expr combined = sql::MakeLogical(true, std::move(*inner.where),
                                         std::move(k));
        inner.where = std::make_unique<Expr>(std::move(combined));
      }
    }

    Result<LogicalPlan> sub = Bind(inner, &scope);
    if (!sub.ok()) return sub.status();

    LogicalRelation derived;
    derived.alias = StrFormat("subquery_%zu", plan->relations.size());
    derived.derived = std::make_shared<LogicalPlan>(std::move(sub).value());
    const size_t derived_idx = plan->relations.size();
    plan->relations.push_back(std::move(derived));

    if (pred.kind == ExprKind::kInSubquery) {
      QPP_CHECK(pred.left != nullptr);
      if (pred.left->kind != ExprKind::kColumnRef) {
        return Status::Error("IN subquery requires a column on the left");
      }
      size_t rel;
      bool is_outer;
      if (!scope.Resolve(*pred.left, &rel, &is_outer) || is_outer) {
        return Status::Error("unresolvable IN column: " +
                             pred.left->ToString());
      }
      BoundJoin join;
      join.left_rel = rel;
      join.right_rel = derived_idx;
      join.left_column = pred.left->column;
      // Join against the subquery's first output column when nameable.
      const LogicalPlan& dp = *plan->relations[derived_idx].derived;
      join.right_column = "";
      if (!dp.relations.empty()) {
        // Best effort: reuse the IN column name for NDV lookup fallbacks.
        join.right_column = pred.left->column;
      }
      join.equi = true;
      join.semi = true;
      join.semantic_key = "IN|" + pred.left->ToString();
      plan->joins.push_back(std::move(join));
    }
    for (const CorrelatedEdge& edge : edges) {
      BoundJoin join;
      join.left_rel = edge.outer_rel;
      join.right_rel = derived_idx;
      join.left_column = edge.outer_column;
      join.right_column = edge.inner_column;
      join.equi = edge.equi;
      join.semi = true;
      join.semantic_key = "EXISTS|" + edge.key;
      plan->joins.push_back(std::move(join));
    }
    if (pred.kind == ExprKind::kExists && edges.empty()) {
      // Uncorrelated EXISTS: effectively a constant filter; model as
      // residual.
      plan->num_residual_predicates += 1;
    }
    return Status::Ok();
  }
};

}  // namespace

Result<LogicalPlan> BuildLogicalPlan(const sql::SelectStmt& stmt,
                                     const catalog::Catalog& catalog) {
  Binder binder;
  binder.catalog = &catalog;
  return binder.Bind(stmt, nullptr);
}

}  // namespace qpp::optimizer
