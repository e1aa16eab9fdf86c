#include "optimizer/cardinality.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace qpp::optimizer {

namespace {

using sql::Expr;
using sql::ExprKind;

constexpr double kDefaultRangeSelectivity = 1.0 / 3.0;
constexpr double kDefaultNonEquiJoinSelectivity = 0.3;
constexpr double kMinSelectivity = 1e-9;

double Clamp01(double s) {
  return std::min(1.0, std::max(kMinSelectivity, s));
}

/// Estimated selectivity of an arbitrary predicate expression against one
/// table's statistics (System-R style, independence everywhere).
double EstimateExpr(const catalog::Table& table, const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLogical: {
      const double l = EstimateExpr(table, *e.left);
      const double r = EstimateExpr(table, *e.right);
      return e.is_and ? Clamp01(l * r) : Clamp01(l + r - l * r);
    }
    case ExprKind::kNot:
      return Clamp01(1.0 - EstimateExpr(table, *e.left));
    case ExprKind::kCompare: {
      // Identify the column side and the literal side.
      const Expr* col = nullptr;
      const Expr* lit = nullptr;
      if (e.left && e.left->kind == ExprKind::kColumnRef) col = e.left.get();
      if (e.right && e.right->kind == ExprKind::kColumnRef) {
        if (col == nullptr) {
          col = e.right.get();
        } else {
          // column-vs-column on the same table (e.g. returned after sold):
          // default comparison selectivity.
          return e.cmp == sql::CompareOp::kEq ? 0.1
                                              : kDefaultRangeSelectivity;
        }
      }
      if (e.left && e.left->kind == ExprKind::kLiteral) lit = e.left.get();
      if (e.right && e.right->kind == ExprKind::kLiteral) lit = e.right.get();
      if (col == nullptr) return kDefaultRangeSelectivity;
      const catalog::Column* stats = table.FindColumn(col->column);
      const double ndv = stats != nullptr ? std::max(stats->ndv, 1.0) : 100.0;
      switch (e.cmp) {
        case sql::CompareOp::kEq:
          return Clamp01(1.0 / ndv);
        case sql::CompareOp::kNe:
          return Clamp01(1.0 - 1.0 / ndv);
        default: {
          if (stats == nullptr || lit == nullptr || lit->is_string ||
              stats->max_value <= stats->min_value) {
            return kDefaultRangeSelectivity;
          }
          const double span = stats->max_value - stats->min_value;
          double frac = (lit->num - stats->min_value) / span;
          frac = std::min(1.0, std::max(0.0, frac));
          const bool less = e.cmp == sql::CompareOp::kLt ||
                            e.cmp == sql::CompareOp::kLe;
          // Account for operand order: "lit < col" means col > lit.
          const bool col_on_left = (e.left.get() == col);
          const double sel =
              (less == col_on_left) ? frac : (1.0 - frac);
          return Clamp01(sel);
        }
      }
    }
    case ExprKind::kBetween: {
      const Expr* col =
          e.left && e.left->kind == ExprKind::kColumnRef ? e.left.get()
                                                         : nullptr;
      const catalog::Column* stats =
          col != nullptr ? table.FindColumn(col->column) : nullptr;
      if (stats == nullptr || stats->max_value <= stats->min_value ||
          e.lo == nullptr || e.hi == nullptr ||
          e.lo->kind != ExprKind::kLiteral ||
          e.hi->kind != ExprKind::kLiteral || e.lo->is_string) {
        return 0.25;
      }
      const double span = stats->max_value - stats->min_value;
      const double width = std::max(0.0, e.hi->num - e.lo->num);
      return Clamp01(width / span);
    }
    case ExprKind::kInList: {
      const Expr* col =
          e.left && e.left->kind == ExprKind::kColumnRef ? e.left.get()
                                                         : nullptr;
      const catalog::Column* stats =
          col != nullptr ? table.FindColumn(col->column) : nullptr;
      const double ndv = stats != nullptr ? std::max(stats->ndv, 1.0) : 100.0;
      const double sel =
          static_cast<double>(e.list.size()) / ndv;
      return e.negated ? Clamp01(1.0 - sel) : Clamp01(sel);
    }
    default:
      return kDefaultRangeSelectivity;
  }
}

/// Error magnitude (log-normal sigma) for the hidden truth of a predicate.
double TrueErrorSigma(const catalog::Table& table, const Expr& e) {
  if (e.kind == ExprKind::kCompare && e.cmp == sql::CompareOp::kEq) {
    const Expr* col =
        e.left && e.left->kind == ExprKind::kColumnRef ? e.left.get()
        : e.right && e.right->kind == ExprKind::kColumnRef ? e.right.get()
                                                           : nullptr;
    const catalog::Column* stats =
        col != nullptr ? table.FindColumn(col->column) : nullptr;
    if (stats != nullptr && stats->is_primary_key) return 0.10;
    return 0.45;  // equality on a data column: value skew dominates
  }
  if (e.kind == ExprKind::kBetween) {
    return 0.12;  // date/numeric ranges: histograms estimate these well
  }
  if (e.kind == ExprKind::kCompare) {
    return 0.25;  // open ranges: mild distribution non-uniformity
  }
  if (e.kind == ExprKind::kInList) return 0.35;
  if (e.kind == ExprKind::kLogical || e.kind == ExprKind::kNot) return 0.30;
  return 0.25;
}

/// True when the optimizer's histograms capture this predicate's constant
/// exactly: equality / IN-list against a column whose domain fits in a
/// histogram (one bucket per value). For such predicates real optimizers
/// know the per-constant frequency, so their estimate tracks the truth.
bool HistogramCovers(const catalog::Table& table, const Expr& e) {
  constexpr double kHistogramNdvLimit = 2048.0;
  const Expr* col = nullptr;
  if (e.kind == ExprKind::kCompare && e.cmp == sql::CompareOp::kEq) {
    if (e.left && e.left->kind == ExprKind::kColumnRef) col = e.left.get();
    if (e.right && e.right->kind == ExprKind::kColumnRef) {
      if (col != nullptr) return false;  // column-vs-column
      col = e.right.get();
    }
  } else if ((e.kind == ExprKind::kInList || e.kind == ExprKind::kBetween) &&
             e.left && e.left->kind == ExprKind::kColumnRef) {
    // Range histograms (equi-depth) pin down numeric/date BETWEEN bounds
    // regardless of NDV.
    if (e.kind == ExprKind::kBetween) {
      const catalog::Column* stats = table.FindColumn(e.left->column);
      return stats != nullptr && stats->max_value > stats->min_value;
    }
    col = e.left.get();
  }
  if (col == nullptr) return false;
  const catalog::Column* stats = table.FindColumn(col->column);
  return stats != nullptr && stats->ndv <= kHistogramNdvLimit;
}

}  // namespace

double CardinalityModel::SeededGaussian(const std::string& key,
                                        const char* salt) const {
  const uint64_t h = HashString64(salt, HashString64("#", HashString64(key)));
  Rng rng(SplitMix64(world_seed_ ^ h));
  return rng.Gaussian();
}

DualValue CardinalityModel::SelectionSelectivity(
    const catalog::Table& table, const BoundSelection& sel) const {
  const double uniform = EstimateExpr(table, sel.expr);
  const double sigma = TrueErrorSigma(table, sel.expr);
  const double z = SeededGaussian(sel.semantic_key, "sel");
  DualValue out;
  out.truth = Clamp01(uniform * std::exp(sigma * z));
  out.estimate = uniform;
  if (HistogramCovers(table, sel.expr)) {
    // Histogram-backed estimate: tracks the per-constant truth with only a
    // small precision error.
    const double z2 = SeededGaussian(sel.semantic_key, "hist");
    out.estimate = Clamp01(out.truth * std::exp(0.08 * z2));
  }
  return out;
}

DualValue CardinalityModel::RelationSelectivity(
    const LogicalRelation& rel) const {
  QPP_CHECK(!rel.IsDerived());
  DualValue product{1.0, 1.0};
  for (const BoundSelection& sel : rel.selections) {
    const DualValue s = SelectionSelectivity(*rel.catalog_table, sel);
    product.estimate *= s.estimate;
    product.truth *= s.truth;
  }
  if (rel.selections.size() >= 2) {
    // Correlated columns: the true conjunction is less selective than the
    // independence product. Damping exponent 0.85 per extra predicate,
    // floored at 0.6.
    const double gamma = std::max(
        0.75, std::pow(0.92, static_cast<double>(rel.selections.size() - 1)));
    product.truth = std::pow(product.truth, gamma);
  }
  return {Clamp01(product.estimate), Clamp01(product.truth)};
}

DualValue CardinalityModel::RelationCardinality(
    const LogicalRelation& rel) const {
  const DualValue sel = RelationSelectivity(rel);  // checks: a base relation
  const double rows = rel.catalog_table->row_count;
  return {std::max(rows * sel.estimate, 1.0), std::max(rows * sel.truth, 0.0)};
}

double CardinalityModel::JoinEdgeSelectivity(const BoundJoin& join,
                                             double left_ndv,
                                             double right_ndv,
                                             CardMode mode) const {
  double est;
  bool key_join = false;
  if (join.equi) {
    const double ndv = std::max({left_ndv, right_ndv, 1.0});
    est = 1.0 / ndv;
    // FK->PK joins (one side's NDV equals the other's domain) have near-
    // exact estimates in practice; detect via matching NDVs.
    key_join = left_ndv > 0 && right_ndv > 0 &&
               std::abs(left_ndv - right_ndv) / std::max(left_ndv, right_ndv) <
                   0.05;
  } else {
    est = kDefaultNonEquiJoinSelectivity;
  }
  if (mode == CardMode::kEstimate) return Clamp01(est);
  const double sigma = join.equi ? (key_join ? 0.08 : 0.30) : 0.35;
  const double z = SeededGaussian(join.semantic_key, "join");
  return Clamp01(est * std::exp(sigma * z));
}

double CardinalityModel::JoinOutputCardinality(
    double left_card, double right_card,
    const std::vector<const BoundJoin*>& edges,
    const std::vector<double>& left_ndvs,
    const std::vector<double>& right_ndvs, CardMode mode) const {
  QPP_CHECK(edges.size() == left_ndvs.size() &&
            edges.size() == right_ndvs.size());
  double out = left_card * right_card;
  bool semi = false;
  for (size_t i = 0; i < edges.size(); ++i) {
    out *= JoinEdgeSelectivity(*edges[i], left_ndvs[i], right_ndvs[i], mode);
    semi = semi || edges[i]->semi;
  }
  if (semi) out = std::min(out, left_card);
  if (mode == CardMode::kEstimate) out = std::max(out, 1.0);
  return std::max(out, 0.0);
}

double CardinalityModel::GroupCardinality(
    double input_card, const std::vector<double>& group_ndvs, CardMode mode,
    const std::string& key) const {
  if (group_ndvs.empty()) return 1.0;  // scalar aggregate
  double domain = 1.0;
  for (double ndv : group_ndvs) domain *= std::max(ndv, 1.0);
  double groups = std::min(input_card, domain);
  if (mode == CardMode::kTrue) {
    const double z = SeededGaussian(key, "group");
    groups = std::min(input_card, groups * std::exp(0.4 * z));
  }
  return std::max(groups, 1.0);
}

}  // namespace qpp::optimizer
