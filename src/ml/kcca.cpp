#include "ml/kcca.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <utility>

#include "common/check.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/incomplete_cholesky.h"
#include "linalg/serde.h"
#include "linalg/triangular.h"
#include "par/parallel_for.h"
#include "par/simd.h"
#include "par/simd_lanes.h"
#include "par/workspace.h"

namespace qpp::ml {

namespace {

/// Batch-projection rows per parallel chunk (fixed: the chunking must not
/// depend on the thread count; see par/thread_pool.h).
constexpr size_t kProjectGrain = 8;

/// Right-hand-side columns per blocked-solve chunk. Each chunk solves a
/// disjoint column range of the m×B block independently (columns never
/// interact in forward substitution), so the chunking affects scheduling
/// only — but it is fixed like every other grain so perf numbers compare
/// across hosts.
constexpr size_t kSolveColGrain = 32;

/// Below this batch size a SIMD ProjectXBatchInto runs the per-query
/// transposed solve instead of the blocked one: with only a few
/// right-hand-side columns the blocked solve's lane dimension (columns)
/// degenerates to scalar updates, while the transposed per-query
/// substitution vectorizes over rows regardless of batch size. Both chains
/// are bit-identical per column (the blocked-solve contract in
/// linalg/triangular.h), so this dispatch can never change a result — it is
/// purely a crossover point, sized at two AVX-512 lane widths where the
/// measured curves intersect.
constexpr size_t kBlockedMinBatch = 16;

using Clock = std::chrono::steady_clock;

/// The clock, read only for a caller that asked for stage times.
Clock::time_point StampIf(const KccaProjectTimes* times) {
  return times != nullptr ? Clock::now() : Clock::time_point();
}

double Seconds(Clock::time_point a, Clock::time_point z) {
  return std::chrono::duration<double>(z - a).count();
}

/// In-place forward substitution L g = rhs, column-oriented over the
/// cached transpose lt (row j of lt is column j of L): once g[j] is fixed,
/// one AxpyNegRow folds column j out of every remaining residual. Each
/// element's subtraction chain still runs in ascending j — identical to
/// the scalar linalg::ForwardSubstBlocked — and s -= x is exactly
/// s += (-x) in IEEE arithmetic, with the division last, so the result is
/// bit-identical to that scalar oracle.
void ForwardSubstColumns(const double* lt, size_t m, double* s) {
  for (size_t j = 0; j < m; ++j) {
    const double g = s[j] / lt[j * m + j];
    s[j] = g;
    simd::AxpyNegRow(s + j + 1, g, lt + j * m + j + 1, m - j - 1);
  }
}

linalg::Vector RowMeans(const linalg::Matrix& k, double* grand) {
  const size_t n = k.rows();
  linalg::Vector means(n, 0.0);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (size_t j = 0; j < n; ++j) s += k(i, j);
    means[i] = s / static_cast<double>(n);
    total += s;
  }
  if (grand != nullptr) {
    *grand = total / static_cast<double>(n * n);
  }
  return means;
}

}  // namespace

KccaModel KccaModel::Train(const linalg::Matrix& x, const linalg::Matrix& y,
                           const KccaOptions& options) {
  QPP_CHECK(x.rows() == y.rows() && x.rows() >= 4);
  const size_t n = x.rows();

  KccaModel model;
  model.options_ = options;
  model.tau_x_ = GaussianScaleFromNorms(x, options.tau_factor_x);
  const double tau_y = GaussianScaleFromNorms(y, options.tau_factor_y);
  const GaussianKernel kx_fn{model.tau_x_};
  const GaussianKernel ky_fn{tau_y};

  const bool exact =
      options.solver == KccaSolver::kExact ||
      (options.solver == KccaSolver::kAuto && n <= options.exact_threshold);

  const size_t d_wanted = std::max<size_t>(options.num_dims, 1);

  if (exact) {
    model.solver_used_ = KccaSolver::kExact;
    model.train_x_ = x;

    linalg::Matrix kx = KernelMatrix(x, kx_fn);
    linalg::Matrix ky = KernelMatrix(y, ky_fn);
    model.kx_row_means_ = RowMeans(kx, &model.kx_grand_mean_);
    CenterKernelMatrix(&kx);
    CenterKernelMatrix(&ky);

    // Regularized generalized eigenproblem reduced to one symmetric
    // problem:  S = Lx^{-1} (Kx Ky) My^{-1} (Ky Kx) Lx^{-T}
    // with Mx = Kx Kx + kappa_x Kx + eps I = Lx Lx^T (My analogous).
    const double kappa_x =
        options.kappa * kx.FrobeniusNorm() / std::sqrt(static_cast<double>(n));
    const double kappa_y =
        options.kappa * ky.FrobeniusNorm() / std::sqrt(static_cast<double>(n));

    linalg::Matrix mx = kx.Multiply(kx);
    {
      const linalg::Matrix reg = kx.Scale(kappa_x);
      mx = mx.Add(reg);
    }
    mx.AddToDiagonal(1e-8 * std::max(mx.MaxAbs(), 1.0));
    linalg::Matrix my = ky.Multiply(ky);
    {
      const linalg::Matrix reg = ky.Scale(kappa_y);
      my = my.Add(reg);
    }
    my.AddToDiagonal(1e-8 * std::max(my.MaxAbs(), 1.0));

    const linalg::Cholesky lx(mx, 1e-2);
    const linalg::Cholesky ly(my, 1e-2);
    QPP_CHECK_MSG(lx.ok() && ly.ok(), "KCCA kernel system not SPD");

    const linalg::Matrix c = kx.Multiply(ky);          // N x N
    const linalg::Matrix u1 = lx.SolveLowerMatrix(c);  // Lx^{-1} C
    const linalg::Matrix g =
        ly.SolveLowerMatrix(u1.Transpose()).Transpose();  // u1 Ly^{-T}
    const linalg::Matrix s = g.MultiplyTranspose(g);

    const size_t d = std::min(d_wanted, n);
    const linalg::TopEigen top = linalg::TopKEigenSymmetric(s, d);
    QPP_CHECK_MSG(top.converged, "KCCA eigensolver did not converge");

    model.a_ = linalg::Matrix(n, d);
    linalg::Matrix b(n, d);
    model.correlations_.assign(d, 0.0);
    for (size_t cidx = 0; cidx < d; ++cidx) {
      const double sigma = std::sqrt(std::max(top.values[cidx], 0.0));
      model.correlations_[cidx] = std::min(sigma, 1.0);
      const linalg::Vector u = top.vectors.Col(cidx);
      const linalg::Vector a_col = lx.SolveLowerTranspose(u);
      for (size_t i = 0; i < n; ++i) model.a_(i, cidx) = a_col[i];
      // b = My^{-1} C^T a / sigma, with C^T a accumulated row by row over
      // C (each cta[j] sums in ascending i).
      linalg::Vector cta(n, 0.0);
      for (size_t i = 0; i < n; ++i) {
        const double ai = a_col[i];
        const double* crow = &c.data()[i * n];
        for (size_t j = 0; j < n; ++j) cta[j] += crow[j] * ai;
      }
      linalg::Vector b_col = ly.Solve(cta);
      if (sigma > 1e-12) {
        for (double& v : b_col) v /= sigma;
      }
      for (size_t i = 0; i < n; ++i) b(i, cidx) = b_col[i];
    }

    model.px_ = kx.Multiply(model.a_);
    model.py_ = ky.Multiply(b);
    return model;
  }

  // --- Incomplete-Cholesky path ------------------------------------------
  model.solver_used_ = KccaSolver::kIcd;
  // The x and y factorizations are independent: they run as the two chunks
  // of one region (inline, x then y, on a one-thread pool). Each fills its
  // pivot columns with GaussianKernelRows — the value of kx_fn(x.Row(i),
  // x.Row(p)) on every row, bit for bit. This thread allocates both
  // factorizations' storage before the region: memory a pool thread
  // allocates stays in that thread's malloc arena and raised the offline
  // build's peak RSS. The storage is allocated uninitialized and the
  // results' only reserved, so pages are touched as far as the rank each
  // factorization reaches, and each chunk frees its column storage as soon
  // as its factorization is done.
  linalg::IncompleteCholeskyResult icd[2];
  {
    const linalg::Vector unit_diag(n, 1.0);
    const size_t rank_cap = std::min(options.icd_max_rank, n);
    std::unique_ptr<double[]> cols[2] = {
        std::make_unique_for_overwrite<double[]>(n * rank_cap),
        std::make_unique_for_overwrite<double[]>(n * rank_cap)};
    for (linalg::IncompleteCholeskyResult& r : icd) {
      r.g.data().reserve(n * rank_cap);
      r.pivots.reserve(rank_cap);
    }
    const linalg::Matrix* points[2] = {&x, &y};
    const double taus[2] = {kx_fn.tau, ky_fn.tau};
    const bool use_simd = simd::Enabled();
    par::ParallelFor(
        0, 2, 1,
        [&](size_t f0, size_t f1) {
          for (size_t f = f0; f < f1; ++f) {
            const double* base = points[f]->data().data();
            const size_t dims = points[f]->cols();
            const double tau = taus[f];
            linalg::IncompleteCholesky(
                unit_diag,
                [&](size_t p, double* out) {
                  GaussianKernelRows(base, n, dims, base + p * dims, dims,
                                     tau, use_simd, out);
                },
                options.icd_max_rank, kIcdTolerance, cols[f].get(), &icd[f]);
            cols[f].reset();
          }
        },
        "kcca_icd");
  }
  const linalg::IncompleteCholeskyResult& icx = icd[0];
  const linalg::IncompleteCholeskyResult& icy = icd[1];
  QPP_CHECK(icx.pivots.size() >= 1 && icy.pivots.size() >= 1);

  // CCA in the induced feature spaces (FitCca centers internally).
  const size_t d =
      std::min({d_wanted, icx.pivots.size(), icy.pivots.size()});
  const CcaModel cca = FitCca(icx.g, icy.g, d, options.kappa);

  model.px_ = cca.ProjectXAll(icx.g);
  model.py_ = cca.ProjectYAll(icy.g);
  model.correlations_ = cca.correlations;

  // Prediction state: map a new point into G_x coordinates via the pivots.
  model.pivot_x_ = linalg::Matrix(icx.pivots.size(), x.cols());
  for (size_t r = 0; r < icx.pivots.size(); ++r) {
    model.pivot_x_.SetRow(r, x.Row(icx.pivots[r]));
  }
  model.lpp_ = linalg::PivotFactor(icx);
  model.lpp_t_ = model.lpp_.Transpose();
  model.pivot_tiles_.resize(model.pivot_x_.rows() * model.pivot_x_.cols());
  PackRowsToTiles(model.pivot_x_.data().data(), model.pivot_x_.rows(),
                  model.pivot_x_.cols(), model.pivot_tiles_.data());
  model.gx_means_ = cca.mean_x;
  model.wx_ = cca.wx;
  return model;
}

linalg::Vector KccaModel::ProjectX(const linalg::Vector& x) const {
  linalg::Matrix xs(1, x.size());
  xs.SetRow(0, x);
  par::Workspace ws;
  linalg::Matrix out;
  ProjectXBatchInto(xs, &ws, &out);
  return std::move(out.data());
}

void KccaModel::ProjectXBatchInto(const linalg::Matrix& xs,
                                  par::Workspace* ws, linalg::Matrix* out,
                                  KccaProjectTimes* times) const {
  QPP_CHECK(tau_x_ > 0.0);
  QPP_CHECK(ws != nullptr && out != nullptr);
  const bool exact = solver_used_ == KccaSolver::kExact;
  const linalg::Matrix& basis = exact ? train_x_ : pivot_x_;
  QPP_CHECK(!basis.empty());
  QPP_CHECK(xs.cols() == basis.cols());
  const size_t b = xs.rows();
  const size_t dims = xs.cols();
  const size_t d = exact ? a_.cols() : wx_.cols();

  ws->Reset();
  out->Reshape(b, d, 0.0);
  if (b == 0) return;

  if (exact) {
    // Dense-kernel path: row r's kernel vector against all n training
    // points, centered consistently with the centered training kernel,
    // then projected through A. Rows are independent (disjoint output
    // rows, read-only model state), so chunks of the batch run in
    // parallel; row r's kernel vector lives in its own n-double slice of
    // one workspace block carved before the parallel region. The lambda
    // captures one context pointer for the reason given at Ctx below.
    struct ExactCtx {
      const KccaModel* model;
      const double* xbase;
      double* kbase;
      double* obase;
      size_t dims, n, d;
      bool use_simd;
    };
    const size_t n = train_x_.rows();
    ExactCtx ctx{this, xs.data().data(), ws->Alloc(n * b),
                 out->data().data(), dims, n, d, simd::Enabled()};
    par::ParallelFor(
        0, b, kProjectGrain,
        [&ctx](size_t r0, size_t r1) {
          const KccaModel& mo = *ctx.model;
          const double* abase = mo.a_.data().data();
          const double* rm = mo.kx_row_means_.data();
          const size_t n = ctx.n;
          const size_t d = ctx.d;
          for (size_t r = r0; r < r1; ++r) {
            double* k = ctx.kbase + r * n;
            double* orow = ctx.obase + r * d;
            GaussianKernelRows(mo.train_x_.data().data(), n, ctx.dims,
                               ctx.xbase + r * ctx.dims, ctx.dims, mo.tau_x_,
                               ctx.use_simd, k);
            double mean_star = 0.0;
            for (size_t i = 0; i < n; ++i) mean_star += k[i];
            mean_star /= static_cast<double>(n);
            // k*[i] - row_mean[i] - mean* + grand_mean, left to right; the
            // lane form keeps that association.
            size_t i = 0;
            if (ctx.use_simd) {
              const simd::VecD vmean = simd::Splat(mean_star);
              const simd::VecD vgrand = simd::Splat(mo.kx_grand_mean_);
              for (; i + simd::kLanes <= n; i += simd::kLanes) {
                simd::StoreU(
                    k + i, simd::Add(simd::Sub(simd::Sub(simd::LoadU(k + i),
                                                         simd::LoadU(rm + i)),
                                               vmean),
                                     vgrand));
              }
            }
            for (; i < n; ++i) {
              double v = k[i] - rm[i];
              v = v - mean_star;
              k[i] = v + mo.kx_grand_mean_;
            }
            // projection = centered^T A, accumulated row-major over A: each
            // output column sums in ascending i either way.
            if (ctx.use_simd) {
              for (i = 0; i < n; ++i) {
                simd::AxpyRow(orow, k[i], abase + i * d, d);
              }
            } else {
              for (i = 0; i < n; ++i) {
                const double* arow = abase + i * d;
                for (size_t c = 0; c < d; ++c) orow[c] += k[i] * arow[c];
              }
            }
          }
        },
        "kcca_project_batch");
    return;
  }

  const size_t m = lpp_.rows();
  // All per-batch scratch is one workspace block; the parallel phases below
  // only ever write disjoint ranges of it (column blocks / row blocks), so
  // the one block serves every pool thread.
  double* s = ws->Alloc(m * b);

  // S(i, q) = k(pivot_i, x_q) lives at s[i * pivot_stride + q * query_stride].
  // The crossover picks the solve and the layout it needs: SIMD batches
  // under kBlockedMinBatch rows solve per query (ForwardSubstColumns over a
  // contiguous vector per query), everything else — the scalar oracle at
  // every B included — runs the blocked solve over a row-major m×B block.
  // The kernel and projection phases read S through the two strides, so
  // they are the same code on both sides.
  const bool use_simd = simd::Enabled();
  const bool per_query = use_simd && b < kBlockedMinBatch;

  // One context pointer per lambda keeps each phase's std::function inside
  // the small-buffer optimization — a multi-capture closure would heap-
  // allocate per ParallelFor call and fail tests/alloc_test.cpp.
  struct Ctx {
    const KccaModel* model;
    const double* xbase;
    double* s;
    double* obase;
    size_t dims, b, m, d;
    size_t pivot_stride, query_stride;
    bool use_simd, per_query;
  };
  const Ctx ctx{this, xs.data().data(), s, out->data().data(), dims, b, m, d,
                per_query ? 1 : b, per_query ? m : 1, use_simd, per_query};

  // Phase 1 — pivot-kernel right-hand side, query-chunked. The tiled batch
  // form keeps each packed pivot tile hot across the chunk's queries.
  const auto t0 = StampIf(times);
  par::ParallelFor(
      0, b, kProjectGrain,
      [&ctx](size_t q0, size_t q1) {
        const KccaModel& mo = *ctx.model;
        GaussianKernelTilesBatch(mo.pivot_tiles_.data(), ctx.m, ctx.dims,
                                 ctx.xbase + q0 * ctx.dims, q1 - q0, ctx.dims,
                                 mo.tau_x_, ctx.use_simd,
                                 ctx.s + q0 * ctx.query_stride,
                                 ctx.pivot_stride, ctx.query_stride);
      },
      "kcca_kernel_batch");

  // Phase 2 — forward substitution L g = S. The blocked solve reads the
  // factor once per column block instead of once per query, over disjoint
  // column ranges; each column's arithmetic chain is exactly
  // ForwardSubstColumns'.
  const auto t1 = StampIf(times);
  par::ParallelFor(
      0, b, per_query ? kProjectGrain : kSolveColGrain,
      [&ctx](size_t q0, size_t q1) {
        const KccaModel& mo = *ctx.model;
        if (ctx.per_query) {
          for (size_t q = q0; q < q1; ++q) {
            ForwardSubstColumns(mo.lpp_t_.data().data(), ctx.m,
                                ctx.s + q * ctx.query_stride);
          }
          return;
        }
        linalg::ForwardSubstBlocked(mo.lpp_.data().data(), ctx.m, ctx.s + q0,
                                    q1 - q0, ctx.b, ctx.use_simd);
      },
      "kcca_solve_batch");

  // Phase 3 — projection through the CCA directions, query-chunked: each
  // output element accumulates in ascending j.
  const auto t2 = StampIf(times);
  par::ParallelFor(
      0, b, kProjectGrain,
      [&ctx](size_t q0, size_t q1) {
        const KccaModel& mo = *ctx.model;
        const double* wbase = mo.wx_.data().data();
        const double* means = mo.gx_means_.data();
        for (size_t q = q0; q < q1; ++q) {
          const double* sq = ctx.s + q * ctx.query_stride;
          double* orow = ctx.obase + q * ctx.d;
          for (size_t j = 0; j < ctx.m; ++j) {
            const double gj = sq[j * ctx.pivot_stride] - means[j];
            const double* wrow = wbase + j * ctx.d;
            if (ctx.use_simd) {
              simd::AxpyRow(orow, gj, wrow, ctx.d);
            } else {
              for (size_t c = 0; c < ctx.d; ++c) orow[c] += gj * wrow[c];
            }
          }
        }
      },
      "kcca_project_batch");

  if (times != nullptr) {
    const auto t3 = Clock::now();
    times->kernel_s += Seconds(t0, t1);
    times->solve_s += Seconds(t1, t2);
    times->project_s += Seconds(t2, t3);
  }
}

void KccaModel::Save(BinaryWriter* w) const {
  w->WriteU32(solver_used_ == KccaSolver::kExact ? 0u : 1u);
  w->WriteU64(options_.num_dims);
  w->WriteDouble(options_.kappa);
  w->WriteDouble(options_.tau_factor_x);
  w->WriteDouble(options_.tau_factor_y);
  w->WriteDouble(tau_x_);
  linalg::WriteMatrix(w, px_);
  linalg::WriteMatrix(w, py_);
  w->WriteDoubles(correlations_);
  linalg::WriteMatrix(w, train_x_);
  linalg::WriteMatrix(w, a_);
  w->WriteDoubles(kx_row_means_);
  w->WriteDouble(kx_grand_mean_);
  linalg::WriteMatrix(w, pivot_x_);
  linalg::WriteMatrix(w, lpp_);
  w->WriteDoubles(gx_means_);
  linalg::WriteMatrix(w, wx_);
}

KccaModel KccaModel::Load(BinaryReader* r) {
  KccaModel m;
  const uint32_t solver = r->ReadU32();
  QPP_CHECK_MSG(solver <= 1, "model file: bad KCCA solver");
  m.solver_used_ = solver == 0 ? KccaSolver::kExact : KccaSolver::kIcd;
  m.options_.num_dims = static_cast<size_t>(r->ReadU64());
  m.options_.kappa = r->ReadDouble();
  m.options_.tau_factor_x = r->ReadDouble();
  m.options_.tau_factor_y = r->ReadDouble();
  m.tau_x_ = r->ReadDouble();
  m.px_ = linalg::ReadMatrix(r);
  m.py_ = linalg::ReadMatrix(r);
  m.correlations_ = r->ReadDoubles();
  m.train_x_ = linalg::ReadMatrix(r);
  m.a_ = linalg::ReadMatrix(r);
  m.kx_row_means_ = r->ReadDoubles();
  m.kx_grand_mean_ = r->ReadDouble();
  m.pivot_x_ = linalg::ReadMatrix(r);
  m.lpp_ = linalg::ReadMatrix(r);
  // lpp_t_ and pivot_tiles_ are derived state, deliberately not part of
  // the model format.
  m.lpp_t_ = m.lpp_.Transpose();
  m.pivot_tiles_.resize(m.pivot_x_.rows() * m.pivot_x_.cols());
  PackRowsToTiles(m.pivot_x_.data().data(), m.pivot_x_.rows(),
                  m.pivot_x_.cols(), m.pivot_tiles_.data());
  m.gx_means_ = r->ReadDoubles();
  m.wx_ = linalg::ReadMatrix(r);
  // Projection walks these sections by each other's shapes; a file whose
  // sections disagree must fail here, not read out of bounds later.
  QPP_CHECK_MSG(m.tau_x_ > 0.0, "model file: bad KCCA kernel scale");
  const size_t n = m.px_.rows();
  const size_t d = m.px_.cols();
  if (m.solver_used_ == KccaSolver::kExact) {
    QPP_CHECK_MSG(m.train_x_.rows() == n && m.a_.rows() == n &&
                      m.a_.cols() == d && m.kx_row_means_.size() == n,
                  "model file: exact KCCA sections disagree in shape");
  } else {
    const size_t rank = m.pivot_x_.rows();
    QPP_CHECK_MSG(rank >= 1 && m.lpp_.rows() == rank &&
                      m.lpp_.cols() == rank && m.gx_means_.size() == rank &&
                      m.wx_.rows() == rank && m.wx_.cols() == d,
                  "model file: ICD KCCA sections disagree in shape");
  }
  return m;
}

}  // namespace qpp::ml
