// Tests for the canonical correlation machinery: linear CCA and the two
// KCCA solver paths (exact dense and incomplete-Cholesky accelerated).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"
#include "ml/cca.h"
#include "ml/kcca.h"
#include "ml/knn.h"

namespace qpp::ml {
namespace {

/// Synthetic linked datasets: a shared latent variable drives both X and Y.
struct Linked {
  linalg::Matrix x;
  linalg::Matrix y;
  linalg::Vector latent;
};

Linked MakeLinked(size_t n, size_t p, size_t q, double noise, uint64_t seed) {
  Rng rng(seed);
  Linked out;
  out.x = linalg::Matrix(n, p);
  out.y = linalg::Matrix(n, q);
  out.latent.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double t = rng.Gaussian();
    out.latent[i] = t;
    for (size_t j = 0; j < p; ++j) {
      out.x(i, j) = t * (j + 1.0) + noise * rng.Gaussian();
    }
    for (size_t j = 0; j < q; ++j) {
      out.y(i, j) = -t * (q - j) + noise * rng.Gaussian();
    }
  }
  return out;
}

double Correlation(const linalg::Vector& a, const linalg::Vector& b) {
  const size_t n = a.size();
  double ma = 0, mb = 0;
  for (size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= n;
  mb /= n;
  double sab = 0, saa = 0, sbb = 0;
  for (size_t i = 0; i < n; ++i) {
    sab += (a[i] - ma) * (b[i] - mb);
    saa += (a[i] - ma) * (a[i] - ma);
    sbb += (b[i] - mb) * (b[i] - mb);
  }
  return sab / std::sqrt(saa * sbb + 1e-300);
}

TEST(CcaTest, RecoversSharedLatentVariable) {
  const Linked data = MakeLinked(400, 4, 3, 0.1, 1);
  const CcaModel model = FitCca(data.x, data.y, 2);
  ASSERT_GE(model.correlations.size(), 1u);
  EXPECT_GT(model.correlations[0], 0.95);
  // The first canonical projections of X and Y must track the latent.
  const linalg::Matrix px = model.ProjectXAll(data.x);
  const linalg::Matrix py = model.ProjectYAll(data.y);
  EXPECT_GT(std::abs(Correlation(px.Col(0), data.latent)), 0.95);
  EXPECT_GT(std::abs(Correlation(px.Col(0), py.Col(0))), 0.95);
}

TEST(CcaTest, CorrelationsInUnitIntervalAndDescending) {
  const Linked data = MakeLinked(150, 5, 4, 1.0, 2);
  const CcaModel model = FitCca(data.x, data.y, 4);
  for (size_t i = 0; i < model.correlations.size(); ++i) {
    EXPECT_GE(model.correlations[i], 0.0);
    EXPECT_LE(model.correlations[i], 1.0);
    if (i > 0) {
      EXPECT_LE(model.correlations[i], model.correlations[i - 1] + 1e-9);
    }
  }
}

TEST(CcaTest, IndependentDataHasLowCorrelation) {
  Rng rng(3);
  linalg::Matrix x(300, 3), y(300, 3);
  for (size_t i = 0; i < 300; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      x(i, j) = rng.Gaussian();
      y(i, j) = rng.Gaussian();
    }
  }
  const CcaModel model = FitCca(x, y, 2, /*reg=*/0.01);
  EXPECT_LT(model.correlations[0], 0.35);
}

TEST(CcaTest, InvariantToAffineScalingOfFeatures) {
  const Linked data = MakeLinked(200, 3, 3, 0.2, 4);
  linalg::Matrix x_scaled = data.x;
  for (size_t i = 0; i < x_scaled.rows(); ++i) {
    for (size_t j = 0; j < x_scaled.cols(); ++j) {
      x_scaled(i, j) = x_scaled(i, j) * 100.0 + 7.0;
    }
  }
  const CcaModel m1 = FitCca(data.x, data.y, 1);
  const CcaModel m2 = FitCca(x_scaled, data.y, 1);
  EXPECT_NEAR(m1.correlations[0], m2.correlations[0], 1e-6);
}

// --- KCCA -----------------------------------------------------------------

/// Clustered linked data: cluster identity drives both views nonlinearly —
/// the regime KCCA (not linear CCA) is built for.
Linked MakeClustered(size_t n, uint64_t seed) {
  Rng rng(seed);
  Linked out;
  out.x = linalg::Matrix(n, 3);
  out.y = linalg::Matrix(n, 2);
  out.latent.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const int c = static_cast<int>(rng.UniformInt(0, 2));  // 3 clusters
    out.latent[i] = c;
    for (size_t j = 0; j < 3; ++j) {
      out.x(i, j) = 4.0 * c + 0.3 * rng.Gaussian();
    }
    // Y view: nonlinear (quadratic) function of the cluster id.
    out.y(i, 0) = (c == 1 ? 5.0 : -1.0) + 0.3 * rng.Gaussian();
    out.y(i, 1) = c * c + 0.3 * rng.Gaussian();
  }
  return out;
}

class KccaSolverTest : public ::testing::TestWithParam<KccaSolver> {};

TEST_P(KccaSolverTest, ClusterStructureIsCaptured) {
  const Linked data = MakeClustered(120, 6);
  KccaOptions opts;
  opts.num_dims = 3;
  opts.solver = GetParam();
  const KccaModel model = KccaModel::Train(data.x, data.y, opts);
  EXPECT_EQ(model.solver_used(), GetParam());
  ASSERT_GE(model.correlations().size(), 1u);
  EXPECT_GT(model.correlations()[0], 0.9);
  // Same-cluster training points must be projected close together:
  // the mean within-cluster distance must be far below the between-cluster
  // distance (the paper's Fig. 6 "clustering effect").
  const linalg::Matrix& px = model.x_projection();
  double within = 0.0, between = 0.0;
  size_t nw = 0, nb = 0;
  for (size_t i = 0; i < px.rows(); ++i) {
    for (size_t j = i + 1; j < px.rows(); ++j) {
      const double d =
          std::sqrt(linalg::SquaredDistance(px.Row(i), px.Row(j)));
      if (data.latent[i] == data.latent[j]) {
        within += d;
        ++nw;
      } else {
        between += d;
        ++nb;
      }
    }
  }
  within /= nw;
  between /= nb;
  EXPECT_LT(within * 3.0, between);
}

TEST_P(KccaSolverTest, ProjectXOfTrainingPointLandsOnItsProjection) {
  const Linked data = MakeClustered(80, 7);
  KccaOptions opts;
  opts.num_dims = 2;
  opts.solver = GetParam();
  const KccaModel model = KccaModel::Train(data.x, data.y, opts);
  // Projecting a training row must land near that row's stored projection
  // (exactly for the exact path; approximately for truncated ICD).
  const linalg::Matrix& px = model.x_projection();
  double scale = 0.0;
  for (size_t i = 0; i < px.rows(); ++i) {
    scale = std::max(scale, std::sqrt(linalg::Dot(px.Row(i), px.Row(i))));
  }
  for (size_t i = 0; i < 10; ++i) {
    const linalg::Vector proj = model.ProjectX(data.x.Row(i));
    const double err =
        std::sqrt(linalg::SquaredDistance(proj, px.Row(i)));
    EXPECT_LT(err, 0.05 * scale) << "row " << i;
  }
}

TEST_P(KccaSolverTest, NearestNeighborInProjectionSharesCluster) {
  const Linked data = MakeClustered(100, 8);
  KccaOptions opts;
  opts.num_dims = 2;
  opts.solver = GetParam();
  const KccaModel model = KccaModel::Train(data.x, data.y, opts);
  // Fresh points from each cluster must land near training points of the
  // same cluster.
  Rng rng(99);
  for (int c = 0; c < 3; ++c) {
    linalg::Vector x(3);
    for (size_t j = 0; j < 3; ++j) x[j] = 4.0 * c + 0.3 * rng.Gaussian();
    const linalg::Vector proj = model.ProjectX(x);
    const auto nbrs = FindNearest(model.x_projection(), proj, 3,
                                  DistanceKind::kEuclidean);
    for (const Neighbor& nb : nbrs) {
      EXPECT_EQ(data.latent[nb.index], c) << "cluster " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Solvers, KccaSolverTest,
                         ::testing::Values(KccaSolver::kExact,
                                           KccaSolver::kIcd),
                         [](const auto& info) {
                           return info.param == KccaSolver::kExact ? "Exact"
                                                                   : "Icd";
                         });

TEST(KccaTest, AutoSelectsExactForSmallData) {
  const Linked data = MakeClustered(60, 9);
  KccaOptions opts;
  opts.solver = KccaSolver::kAuto;
  const KccaModel model = KccaModel::Train(data.x, data.y, opts);
  EXPECT_EQ(model.solver_used(), KccaSolver::kExact);
}

TEST(KccaTest, AutoSelectsIcdForLargeData) {
  const Linked data = MakeClustered(400, 10);
  KccaOptions opts;
  opts.solver = KccaSolver::kAuto;
  opts.exact_threshold = 320;
  const KccaModel model = KccaModel::Train(data.x, data.y, opts);
  EXPECT_EQ(model.solver_used(), KccaSolver::kIcd);
}

TEST(KccaTest, ExactAndIcdAgreeOnNeighborStructure) {
  const Linked data = MakeClustered(150, 11);
  KccaOptions exact_opts, icd_opts;
  exact_opts.solver = KccaSolver::kExact;
  exact_opts.num_dims = 2;
  icd_opts.solver = KccaSolver::kIcd;
  icd_opts.num_dims = 2;
  const KccaModel exact = KccaModel::Train(data.x, data.y, exact_opts);
  const KccaModel icd = KccaModel::Train(data.x, data.y, icd_opts);
  // For every training point, its nearest neighbor under both models must
  // come from the same cluster (projections themselves are not comparable).
  size_t agree = 0;
  for (size_t i = 0; i < 150; ++i) {
    const auto ne = FindNearest(exact.x_projection(),
                                exact.x_projection().Row(i), 2,
                                DistanceKind::kEuclidean);
    const auto ni = FindNearest(icd.x_projection(),
                                icd.x_projection().Row(i), 2,
                                DistanceKind::kEuclidean);
    if (data.latent[ne[1].index] == data.latent[ni[1].index]) ++agree;
  }
  EXPECT_GT(agree, 140u);
}

TEST(KccaTest, SaveLoadRoundTripBothSolvers) {
  for (KccaSolver solver : {KccaSolver::kExact, KccaSolver::kIcd}) {
    const Linked data = MakeClustered(90, 12);
    KccaOptions opts;
    opts.solver = solver;
    opts.num_dims = 2;
    const KccaModel model = KccaModel::Train(data.x, data.y, opts);
    std::stringstream ss;
    {
      BinaryWriter w(ss);
      model.Save(&w);
    }
    BinaryReader r(ss);
    const KccaModel back = KccaModel::Load(&r);
    EXPECT_EQ(back.ProjectX(data.x.Row(5)), model.ProjectX(data.x.Row(5)));
    EXPECT_EQ(back.correlations(), model.correlations());
  }
}

TEST(KccaTest, RejectsTooFewPoints) {
  linalg::Matrix x(2, 2), y(2, 2);
  EXPECT_THROW(KccaModel::Train(x, y, {}), qpp::CheckFailure);
}

}  // namespace
}  // namespace qpp::ml
