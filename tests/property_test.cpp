// Cross-cutting property tests: invariants that must hold for EVERY query
// any shipped template can generate, swept over templates x seeds. These
// catch the classes of bugs unit tests of single modules miss: plan-shape
// violations, cardinality sign errors, metric inconsistencies, feature
// extraction drift.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "catalog/retailbank.h"
#include "common/rng.h"
#include "common/serde.h"
#include "core/predictor.h"
#include "fault/chaos.h"
#include "fault/fault_plan.h"
#include "lifecycle/lifecycle.h"
#include "optimizer/plan_serde.h"
#include "catalog/tpcds.h"
#include "engine/simulator.h"
#include "ml/feature_vector.h"
#include "ml/kdtree.h"
#include "ml/kernel.h"
#include "ml/knn.h"
#include "optimizer/optimizer.h"
#include "par/simd.h"
#include "sql/parser.h"
#include "workload/generator.h"
#include "workload/pools.h"
#include "workload/problem_templates.h"
#include "workload/retailbank_templates.h"
#include "workload/tpcds_templates.h"

namespace qpp {
namespace {

struct TemplateCase {
  workload::QueryTemplate tmpl;
  bool bank = false;
};

std::vector<TemplateCase> AllCases() {
  std::vector<TemplateCase> out;
  for (auto& t : workload::TpcdsTemplates()) out.push_back({t, false});
  for (auto& t : workload::ProblemTemplates()) out.push_back({t, false});
  for (auto& t : workload::RetailBankTemplates()) out.push_back({t, true});
  return out;
}

class TemplatePropertyTest : public ::testing::TestWithParam<TemplateCase> {
 protected:
  static const catalog::Catalog& Tpcds() {
    static const catalog::Catalog cat = catalog::MakeTpcdsCatalog(1.0);
    return cat;
  }
  static const catalog::Catalog& Bank() {
    static const catalog::Catalog cat = catalog::MakeRetailBankCatalog();
    return cat;
  }
  const catalog::Catalog& Catalog() const {
    return GetParam().bank ? Bank() : Tpcds();
  }
};

TEST_P(TemplatePropertyTest, PlanShapeInvariants) {
  const optimizer::Optimizer opt(&Catalog(), {});
  Rng rng(HashString64(GetParam().tmpl.name) ^ 0xABCDull);
  for (int i = 0; i < 8; ++i) {
    const std::string sql = GetParam().tmpl.instantiate(rng);
    const auto plan = opt.Plan(sql);
    ASSERT_TRUE(plan.ok()) << sql << "\n" << plan.status().message();
    const optimizer::PhysicalNode& root = *plan.value().root;

    // Root at the top, fed by exactly one exchange.
    EXPECT_EQ(root.op, optimizer::PhysOp::kRoot);
    ASSERT_EQ(root.children.size(), 1u);
    EXPECT_EQ(root.children[0]->op, optimizer::PhysOp::kExchange);

    size_t scans = 0;
    plan.value().Visit([&](const optimizer::PhysicalNode& n) {
      // Cardinalities are finite and non-negative; estimates at least 1
      // except where semi-join/limit clamping applies.
      EXPECT_GE(n.est_rows, 0.0);
      EXPECT_GE(n.true_rows, 0.0);
      EXPECT_TRUE(std::isfinite(n.est_rows));
      EXPECT_TRUE(std::isfinite(n.true_rows));
      EXPECT_GT(n.row_width, 0.0);
      switch (n.op) {
        case optimizer::PhysOp::kFileScan:
          ++scans;
          EXPECT_TRUE(n.children.empty());
          EXPECT_FALSE(n.table.empty());
          EXPECT_NE(Catalog().FindTable(n.table), nullptr);
          // A scan cannot emit more rows than it reads.
          EXPECT_LE(n.true_rows, n.true_input_rows * (1.0 + 1e-9));
          break;
        case optimizer::PhysOp::kNestedJoin:
        case optimizer::PhysOp::kHashJoin:
        case optimizer::PhysOp::kMergeJoin:
          EXPECT_EQ(n.children.size(), 2u);
          break;
        case optimizer::PhysOp::kRoot:
        case optimizer::PhysOp::kExchange:
        case optimizer::PhysOp::kSplit:
        case optimizer::PhysOp::kPartitionAccess:
        case optimizer::PhysOp::kSort:
        case optimizer::PhysOp::kTopN:
        case optimizer::PhysOp::kHashGroupBy:
        case optimizer::PhysOp::kSortGroupBy:
        case optimizer::PhysOp::kScalarAgg:
        case optimizer::PhysOp::kFilter:
          EXPECT_EQ(n.children.size(), 1u);
          break;
      }
    });
    // Every FROM relation contributes a scan (derived subqueries add more).
    EXPECT_GE(scans, 1u);
    EXPECT_GT(plan.value().optimizer_cost, 0.0);
  }
}

TEST_P(TemplatePropertyTest, MetricInvariants) {
  const optimizer::Optimizer opt(&Catalog(), {});
  const engine::ExecutionSimulator sim(&Catalog(),
                                       engine::SystemConfig::Neoview4());
  Rng rng(HashString64(GetParam().tmpl.name) ^ 0xBEEFull);
  for (int i = 0; i < 8; ++i) {
    const std::string sql = GetParam().tmpl.instantiate(rng);
    const auto plan = opt.Plan(sql);
    ASSERT_TRUE(plan.ok()) << sql;
    const engine::QueryMetrics m = sim.Execute(plan.value());

    for (double v : m.ToVector()) {
      EXPECT_TRUE(std::isfinite(v)) << sql;
      EXPECT_GE(v, 0.0) << sql;
    }
    EXPECT_GT(m.elapsed_seconds, 0.0);
    EXPECT_GT(m.cpu_seconds, 0.0);
    // Records used never exceeds records accessed.
    EXPECT_LE(m.records_used, m.records_accessed + 1e-9) << sql;
    // Records accessed is the sum of base-table scans: bounded by the sum
    // of all table sizes times the scan count.
    EXPECT_GE(m.records_accessed, 1.0) << sql;
    // Counters are integral (instrumentation-layer contract).
    EXPECT_EQ(m.disk_ios, std::floor(m.disk_ios));
    EXPECT_EQ(m.message_count, std::floor(m.message_count));
    // Payload bytes imply messages; the reverse need not hold (empty
    // results still exchange zero-payload control messages).
    if (m.message_bytes > 0) {
      EXPECT_GT(m.message_count, 0.0) << sql;
    }
  }
}

TEST_P(TemplatePropertyTest, FeatureVectorInvariants) {
  const optimizer::Optimizer opt(&Catalog(), {});
  Rng rng(HashString64(GetParam().tmpl.name) ^ 0xC0DEull);
  for (int i = 0; i < 5; ++i) {
    const std::string sql = GetParam().tmpl.instantiate(rng);
    const auto plan = opt.Plan(sql);
    ASSERT_TRUE(plan.ok()) << sql;
    const linalg::Vector v = ml::PlanFeatureVector(plan.value());
    ASSERT_EQ(v.size(), ml::kPlanFeatureDims);
    double total_count = 0.0;
    size_t node_count = 0;
    plan.value().Visit([&](const optimizer::PhysicalNode&) { ++node_count; });
    for (size_t d = 0; d < v.size(); d += 2) {
      EXPECT_GE(v[d], 0.0);
      EXPECT_EQ(v[d], std::floor(v[d])) << "instance counts are integral";
      EXPECT_GE(v[d + 1], 0.0) << "cardinality sums are non-negative";
      // No cardinality mass without instances.
      if (v[d] == 0.0) {
        EXPECT_EQ(v[d + 1], 0.0);
      }
      total_count += v[d];
    }
    // Counts add up to the number of plan nodes.
    EXPECT_EQ(total_count, static_cast<double>(node_count));

    // SQL-text features: also finite/non-negative, and integral.
    const auto stmt = sql::Parse(sql);
    ASSERT_TRUE(stmt.ok());
    for (double x : ml::SqlTextFeatureVector(*stmt.value())) {
      EXPECT_GE(x, 0.0);
      EXPECT_EQ(x, std::floor(x));
    }
  }
}

TEST_P(TemplatePropertyTest, SimulatorParallelSpeedupNeverNegative) {
  // More nodes never makes a query slower by more than the noise band.
  const engine::SystemConfig c8 = engine::SystemConfig::Neoview32(8);
  const engine::SystemConfig c32 = engine::SystemConfig::Neoview32(32);
  optimizer::OptimizerOptions o8, o32;
  o8.nodes_used = 8;
  o32.nodes_used = 32;
  const optimizer::Optimizer opt8(&Catalog(), o8), opt32(&Catalog(), o32);
  const engine::ExecutionSimulator sim8(&Catalog(), c8);
  const engine::ExecutionSimulator sim32(&Catalog(), c32);
  Rng rng(HashString64(GetParam().tmpl.name) ^ 0xD00Dull);
  for (int i = 0; i < 4; ++i) {
    const std::string sql = GetParam().tmpl.instantiate(rng);
    const auto p8 = opt8.Plan(sql);
    const auto p32 = opt32.Plan(sql);
    ASSERT_TRUE(p8.ok() && p32.ok()) << sql;
    const double t8 = sim8.Execute(p8.value()).elapsed_seconds;
    const double t32 = sim32.Execute(p32.value()).elapsed_seconds;
    // Allow noise + fixed startup costs to dominate for tiny queries.
    EXPECT_LE(t32, t8 * 1.3 + 0.5) << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTemplates, TemplatePropertyTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<TemplateCase>& info) {
      return info.param.tmpl.name;
    });

// ------------------------------------------------------------------------
// Serialization round trips. The property asserted everywhere is the
// strongest one available without field-by-field equality operators:
// serialize → parse → serialize must reproduce the FIRST byte stream
// exactly. That catches lossy fields, reordered writes, and "parses but
// re-encodes differently" drift in one assertion.

TEST(RoundTripPropertyTest, FaultPlanStreamRoundTripIsByteIdentical) {
  for (uint64_t seed : {1ull, 42ull, 0xFEEDull, 0xDEADBEEFull}) {
    const fault::FaultPlan plan = fault::RandomFaultPlan(seed);
    std::ostringstream first;
    BinaryWriter w1(first);
    plan.Write(&w1);

    std::istringstream in(first.str());
    BinaryReader r(in);
    const fault::FaultPlan back = fault::FaultPlan::Read(&r);

    std::ostringstream second;
    BinaryWriter w2(second);
    back.Write(&w2);
    EXPECT_EQ(first.str(), second.str()) << "seed " << seed;
    EXPECT_EQ(back.ToString(), plan.ToString()) << "seed " << seed;
  }
}

TEST(RoundTripPropertyTest, PhysicalPlanSerdeRoundTripIsByteIdentical) {
  const catalog::Catalog catalog = catalog::MakeTpcdsCatalog(1.0);
  const optimizer::Optimizer opt(&catalog, {});
  Rng rng(0x9E37ull);
  size_t checked = 0;
  for (const auto& tmpl : workload::TpcdsTemplates()) {
    const std::string sql = tmpl.instantiate(rng);
    const auto plan = opt.Plan(sql);
    ASSERT_TRUE(plan.ok()) << sql;
    std::ostringstream first;
    optimizer::WritePlan(plan.value(), &first);

    std::istringstream in(first.str());
    const auto back = optimizer::ReadPlan(&in);
    ASSERT_TRUE(back.ok()) << tmpl.name << ": " << back.status().message();

    std::ostringstream second;
    optimizer::WritePlan(back.value(), &second);
    EXPECT_EQ(first.str(), second.str()) << tmpl.name;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(RoundTripPropertyTest, PredictorSaveLoadRoundTripIsByteIdentical) {
  Rng rng(0xAB1Eull);
  std::vector<ml::TrainingExample> examples;
  for (size_t i = 0; i < 80; ++i) {
    const double a = rng.Uniform(1.0, 10.0);
    const double b = rng.Uniform(1.0, 10.0);
    ml::TrainingExample ex;
    ex.query_features = {a, b, a * b, rng.Uniform(0.0, 1.0)};
    ex.metrics.elapsed_seconds = 2.0 * a + b;
    ex.metrics.records_accessed = 1000.0 * a;
    ex.metrics.records_used = 100.0 * a;
    ex.metrics.disk_ios = 10.0 * b;
    ex.metrics.message_count = 5.0 * a * b;
    ex.metrics.message_bytes = 4000.0 * a * b;
    examples.push_back(std::move(ex));
  }
  core::Predictor pred;
  pred.Train(examples);

  std::ostringstream first;
  pred.Save(&first);
  std::istringstream in(first.str());
  const core::Predictor back = core::Predictor::Load(&in);

  std::ostringstream second;
  back.Save(&second);
  EXPECT_EQ(first.str(), second.str());

  // And the reloaded model answers identically, bit for bit.
  Rng probe_rng(0x1234ull);
  for (int i = 0; i < 10; ++i) {
    const double a = probe_rng.Uniform(1.0, 10.0);
    const double b = probe_rng.Uniform(1.0, 10.0);
    const linalg::Vector f = {a, b, a * b, probe_rng.Uniform(0.0, 1.0)};
    EXPECT_EQ(pred.Predict(f).metrics.ToVector(),
              back.Predict(f).metrics.ToVector());
  }
}

// ------------------------------------------------------------------------
// SIMD/index invariance properties. These complement the differential
// suites (tests/simd_kernel_test.cpp, tests/kdtree_test.cpp) with the
// properties that must hold for ARBITRARY inputs, not just the shapes the
// oracle sweeps enumerate.

TEST(SimdInvariancePropertyTest, KdTreeIsPermutationInvariantUpToIndexMap) {
  // Building the tree over any row permutation of the same point set must
  // return the same k-nearest POINT SET with byte-identical distances; the
  // reported indices differ exactly by the permutation. (A tree whose
  // answers depended on insertion order would not be an index — it would
  // be a different model.)
  Rng rng(0x9E12ull);
  for (size_t dims : {size_t{2}, size_t{5}, size_t{16}}) {
    const size_t n = 120;
    linalg::Matrix points(n, dims);
    for (double& v : points.data()) {
      // Quantized coordinates force duplicate rows and exact ties, the
      // hard case for order invariance.
      v = static_cast<double>(rng.UniformInt(-3, 3));
    }
    const std::vector<size_t> perm = rng.Permutation(n);
    linalg::Matrix shuffled(n, dims);
    for (size_t r = 0; r < n; ++r) shuffled.SetRow(r, points.Row(perm[r]));

    ml::KdTree base, permuted;
    base.Build(points);
    permuted.Build(shuffled);
    for (int q = 0; q < 25; ++q) {
      linalg::Vector query(dims);
      for (double& v : query) v = rng.Uniform(-4.0, 4.0);
      const auto a = base.FindNearest(query, 6);
      const auto b = permuted.FindNearest(query, 6);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        // Same distance bits...
        EXPECT_EQ(std::memcmp(&a[i].distance, &b[i].distance, sizeof(double)),
                  0)
            << "dims=" << dims << " q=" << q << " i=" << i;
        // ...and the same point coordinates once mapped back. (With exact
        // ties the tied *indices* may legitimately pair up differently
        // across permutations — the index order is over different labels —
        // but the selected coordinates must agree.)
        EXPECT_EQ(shuffled.Row(b[i].index), points.Row(a[i].index))
            << "dims=" << dims << " q=" << q << " i=" << i;
      }
    }
  }
}

TEST(SimdInvariancePropertyTest, GaussianScaleFromNormsMatchesScalarBitwise) {
  // The tau heuristic feeds the kernel that everything downstream is
  // pinned to, so its SIMD path must agree with the scalar oracle in bits
  // for any shape — including row counts in every lane-remainder class and
  // near-degenerate norm spreads.
  Rng rng(0x9E13ull);
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                   size_t{7}, size_t{8}, size_t{9}, size_t{63}, size_t{200}}) {
    for (size_t dims : {size_t{1}, size_t{6}, size_t{28}}) {
      for (bool degenerate : {false, true}) {
        linalg::Matrix x(n, dims);
        if (degenerate) {
          // Rows on a common-norm shell: variance collapses, the pairwise
          // fallback decides.
          for (size_t r = 0; r < n; ++r) {
            linalg::Vector row(dims);
            double norm_sq = 0.0;
            for (double& v : row) {
              v = rng.Uniform(-1.0, 1.0);
              norm_sq += v * v;
            }
            const double scale =
                norm_sq > 0.0 ? 5.0 / std::sqrt(norm_sq) : 0.0;
            for (double& v : row) v *= scale;
            x.SetRow(r, row);
          }
        } else {
          for (double& v : x.data()) v = rng.Uniform(-9.0, 9.0);
        }
        const bool prev = simd::SetForceScalar(false);
        const double simd_tau = ml::GaussianScaleFromNorms(x, 0.1);
        simd::SetForceScalar(true);
        const double scalar_tau = ml::GaussianScaleFromNorms(x, 0.1);
        simd::SetForceScalar(prev);
        EXPECT_EQ(std::memcmp(&simd_tau, &scalar_tau, sizeof(double)), 0)
            << "n=" << n << " dims=" << dims << " degenerate=" << degenerate
            << " simd=" << simd_tau << " scalar=" << scalar_tau;
        EXPECT_TRUE(std::isfinite(simd_tau));
        EXPECT_GT(simd_tau, 0.0);
      }
    }
  }
}

// The lifecycle promotion gate must be monotone in the challenger's
// errors: strictly worsening a challenger's scored errors (raising any of
// its EWMAs) can never flip a reject into a promote. This is what makes
// the model_poison fault safe BY CONSTRUCTION — poison only inflates the
// shadow predictions' errors, so it can only lose gate decisions.
TEST(LifecyclePropertyTest, PromotionGateIsMonotoneInChallengerErrors) {
  Rng rng(0xBADA55ull);
  size_t promotes = 0, flips_checked = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    lifecycle::PromotionGateConfig cfg;
    cfg.min_observations = 4;
    cfg.margin = rng.Uniform(0.0, 0.5);
    cfg.tolerance = rng.Uniform(0.1, 2.0);
    const lifecycle::PromotionGate gate(cfg);

    lifecycle::RiskWindow champion, challenger;
    // Sometimes leave one side cold so the warmup branch is swept too.
    champion.observations = rng.Uniform(0.0, 1.0) < 0.1 ? 2 : 16;
    challenger.observations = rng.Uniform(0.0, 1.0) < 0.1 ? 3 : 16;
    for (size_t m = 0; m < lifecycle::RiskWindow::kNumMetrics; ++m) {
      champion.metric_ewma[m] = rng.Uniform(0.0, 2.0);
      challenger.metric_ewma[m] = rng.Uniform(0.0, 2.0);
      for (size_t p = 0; p < workload::kNumQueryTypes; ++p) {
        champion.pool_ewma[p][m] = rng.Uniform(0.0, 2.0);
        challenger.pool_ewma[p][m] = rng.Uniform(0.0, 2.0);
      }
    }
    const lifecycle::GateDecision base = gate.Evaluate(champion, challenger);
    if (base.promote) ++promotes;

    // Worsen the challenger: every EWMA independently scaled up.
    lifecycle::RiskWindow worse = challenger;
    for (size_t m = 0; m < lifecycle::RiskWindow::kNumMetrics; ++m) {
      worse.metric_ewma[m] *= rng.Uniform(1.0, 4.0);
      for (size_t p = 0; p < workload::kNumQueryTypes; ++p) {
        worse.pool_ewma[p][m] *= rng.Uniform(1.0, 4.0);
      }
    }
    const lifecycle::GateDecision worsened = gate.Evaluate(champion, worse);
    ++flips_checked;
    EXPECT_FALSE(!base.promote && worsened.promote)
        << "trial " << trial << ": worsening the challenger flipped "
        << base.reason << " into a promote";
  }
  // The sweep must actually exercise both gate outcomes to mean anything.
  EXPECT_GT(promotes, 0u);
  EXPECT_LT(promotes, flips_checked);
}

// Stream-level version of the same property: scoring a strictly worse
// error stream through a real ShadowScorer yields pointwise-worse window
// EWMAs, so the gate decision never improves at ANY prefix of the stream.
TEST(LifecyclePropertyTest, WorseErrorStreamNeverUnlocksPromotion) {
  Rng rng(0x5EED5ull);
  lifecycle::PromotionGateConfig cfg;
  cfg.min_observations = 4;
  cfg.margin = 0.1;
  cfg.tolerance = 0.8;
  const lifecycle::PromotionGate gate(cfg);

  lifecycle::RiskWindow champion;
  champion.observations = 64;
  for (size_t m = 0; m < lifecycle::RiskWindow::kNumMetrics; ++m) {
    champion.metric_ewma[m] = 1.0;
  }

  // Score-only scorers (null model): predictions fed directly.
  lifecycle::ShadowScorer good(nullptr);
  lifecycle::ShadowScorer bad(nullptr);
  for (int i = 0; i < 64; ++i) {
    engine::QueryMetrics predicted;
    predicted.elapsed_seconds = 10.0;
    predicted.records_accessed = rng.Uniform(100.0, 1000.0);
    predicted.records_used = rng.Uniform(10.0, 100.0);
    predicted.message_count = rng.Uniform(1.0, 50.0);
    predicted.message_bytes = rng.Uniform(100.0, 5000.0);
    const double err = rng.Uniform(0.0, 1.0);
    const double worse_err = err * rng.Uniform(1.5, 3.0);
    // Both actuals keep elapsed in the same pool band, so the per-pool
    // EWMAs of the worse stream dominate the good stream's pointwise.
    auto actual_for = [&](double e) {
      linalg::Vector v = predicted.ToVector();
      for (double& x : v) x /= (1.0 + e);
      return engine::QueryMetrics::FromVector(v);
    };
    good.Score(predicted, actual_for(err));
    bad.Score(predicted, actual_for(worse_err));
    const lifecycle::GateDecision g = gate.Evaluate(champion, good.Window());
    const lifecycle::GateDecision b = gate.Evaluate(champion, bad.Window());
    EXPECT_FALSE(!g.promote && b.promote)
        << "observation " << i << ": the worse stream promoted (" << b.reason
        << ") while the good stream held (" << g.reason << ")";
    EXPECT_GE(bad.Window().risk(), good.Window().risk()) << "observation "
                                                         << i;
  }
}

}  // namespace
}  // namespace qpp
