#include "optimizer/join_order.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace qpp::optimizer {

double EffectiveNdv(const LogicalPlan& plan, size_t rel,
                    const std::string& column,
                    const std::vector<double>& est_cards) {
  const LogicalRelation& r = plan.relations[rel];
  if (r.IsDerived()) return std::max(1.0, est_cards[rel] * 0.7);
  const catalog::Column* c = r.catalog_table->FindColumn(column);
  return c != nullptr && c->ndv > 0.0 ? c->ndv : 100.0;
}

std::vector<JoinEdgeNdv> JoinEdgeNdvs(const LogicalPlan& plan,
                                      const std::vector<double>& est_cards) {
  std::vector<JoinEdgeNdv> out;
  out.reserve(plan.joins.size());
  for (const BoundJoin& j : plan.joins) {
    out.push_back(
        {EffectiveNdv(plan, j.left_rel, j.left_column, est_cards),
         EffectiveNdv(plan, j.right_rel, j.right_column, est_cards)});
  }
  return out;
}

namespace {

/// Can relation r be appended after the set? Semi-joined (derived) relations
/// must come after the outer relation their edge filters, and an outer
/// relation must not be appended after its semi-joined partner.
template <typename InSet>
bool CanAdd(const LogicalPlan& plan, size_t r, const InSet& in_set) {
  for (const BoundJoin& j : plan.joins) {
    if (!j.semi) continue;
    if (j.right_rel == r && !in_set(j.left_rel)) return false;
    if (j.left_rel == r && in_set(j.right_rel)) return false;
  }
  return true;
}

bool CanSeed(const LogicalPlan& plan, size_t r) {
  for (const BoundJoin& j : plan.joins) {
    if (j.semi && j.right_rel == r) return false;
  }
  return true;
}

JoinOrder GreedyOrder(const LogicalPlan& plan, const CardinalityModel& model,
                      const std::vector<double>& est_cards,
                      const std::vector<JoinEdgeNdv>& ndvs) {
  const size_t n = plan.relations.size();
  std::vector<bool> used(n, false);
  const auto in_set = [&](size_t i) { return used[i]; };

  JoinOrder order;
  // Seed: smallest valid relation.
  size_t seed = n;
  for (size_t r = 0; r < n; ++r) {
    if (!CanSeed(plan, r)) continue;
    if (seed == n || est_cards[r] < est_cards[seed]) seed = r;
  }
  if (seed == n) seed = 0;  // pathological: all semi-targeted
  used[seed] = true;
  order.sequence.push_back(seed);
  double card = est_cards[seed];
  order.estimated_cost = card;

  EdgeBundle bundle;
  while (order.sequence.size() < n) {
    size_t best = n;
    double best_card = std::numeric_limits<double>::infinity();
    bool best_connected = false;
    for (size_t r = 0; r < n; ++r) {
      if (used[r] || !CanAdd(plan, r, in_set)) continue;
      CollectJoinEdges(plan, r, in_set, ndvs, &bundle);
      const bool connected = !bundle.edges.empty();
      const double next = model.JoinOutputCardinality(
          card, est_cards[r], bundle.edges, bundle.set_ndvs, bundle.rel_ndvs,
          CardMode::kEstimate);
      // Prefer connected relations; among equals, the smallest result.
      if ((connected && !best_connected) ||
          (connected == best_connected && next < best_card)) {
        best = r;
        best_card = next;
        best_connected = connected;
      }
    }
    QPP_CHECK_MSG(best != n, "join ordering wedged (semi-join cycle?)");
    used[best] = true;
    order.sequence.push_back(best);
    card = best_card;
    order.estimated_cost += best_card;
  }
  return order;
}

}  // namespace

JoinOrder OrderJoins(const LogicalPlan& plan, const CardinalityModel& model,
                     const std::vector<double>& est_cards,
                     const std::vector<JoinEdgeNdv>& ndvs) {
  const size_t n = plan.relations.size();
  QPP_CHECK(est_cards.size() == n);
  QPP_CHECK(ndvs.size() == plan.joins.size());
  QPP_CHECK(n >= 1);
  if (n == 1) {
    JoinOrder order;
    order.sequence.push_back(0);
    return order;
  }
  if (n > kDpRelationLimit) {
    return GreedyOrder(plan, model, est_cards, ndvs);
  }

  // Left-deep DP over subsets.
  struct State {
    double cost = std::numeric_limits<double>::infinity();
    double card = 0.0;
    size_t prev_mask = 0;
    size_t added = 0;
    bool valid = false;
  };
  const size_t full = (size_t{1} << n) - 1;
  std::vector<State> dp(full + 1);

  for (size_t r = 0; r < n; ++r) {
    if (!CanSeed(plan, r)) continue;
    State& s = dp[size_t{1} << r];
    // Seeding cost = the seed's own cardinality: breaks ties between
    // left-deep orders with identical intermediates in favor of starting
    // from the smallest relation (what real optimizers do).
    s.cost = est_cards[r];
    s.card = est_cards[r];
    s.added = r;
    s.prev_mask = 0;
    s.valid = true;
  }

  EdgeBundle bundle;
  for (size_t mask = 1; mask <= full; ++mask) {
    const State& cur = dp[mask];
    if (!cur.valid) continue;
    const auto in_set = [mask](size_t i) { return ((mask >> i) & 1) != 0; };
    for (size_t r = 0; r < n; ++r) {
      if (in_set(r) || !CanAdd(plan, r, in_set)) continue;
      CollectJoinEdges(plan, r, in_set, ndvs, &bundle);
      const double next_card = model.JoinOutputCardinality(
          cur.card, est_cards[r], bundle.edges, bundle.set_ndvs,
          bundle.rel_ndvs, CardMode::kEstimate);
      const double next_cost = cur.cost + next_card;
      State& nxt = dp[mask | (size_t{1} << r)];
      if (!nxt.valid || next_cost < nxt.cost) {
        nxt.valid = true;
        nxt.cost = next_cost;
        nxt.card = next_card;
        nxt.prev_mask = mask;
        nxt.added = r;
      }
    }
  }

  if (!dp[full].valid) {
    // Semi-join constraints can make some seeds invalid in odd graphs;
    // fall back to greedy which always produces an order.
    return GreedyOrder(plan, model, est_cards, ndvs);
  }

  JoinOrder order;
  order.estimated_cost = dp[full].cost;
  std::vector<size_t> rev;
  size_t mask = full;
  while (mask != 0) {
    rev.push_back(dp[mask].added);
    mask = dp[mask].prev_mask;
  }
  order.sequence.assign(rev.rbegin(), rev.rend());
  return order;
}

}  // namespace qpp::optimizer
