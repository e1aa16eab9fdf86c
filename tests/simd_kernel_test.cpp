// Differential suite for the qpp::simd compute kernels (the tentpole
// contract of docs/PERFORMANCE.md, "SIMD dispatch & oracle testing"): every
// vectorized kernel dispatched through simd::Enabled() must be BIT-IDENTICAL
// to the scalar oracle it replaced, at every remainder-lane shape. The tests
// sweep counts through every residue class of the lane width and the 4-way
// block width (n mod w and n mod 4w from 0 .. w-1), because historically
// that is where vector kernels break: the last partial block, the scalar
// tail, and the handoff between them.
//
// Comparisons are bytewise (std::memcmp on doubles), not EXPECT_DOUBLE_EQ:
// the contract is "same bits", which is what lets the golden suite and the
// serve/fabric replay contracts stay pinned while the kernels change.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "core/predictor.h"
#include "linalg/matrix.h"
#include "linalg/triangular.h"
#include "ml/kernel.h"
#include "ml/knn.h"
#include "par/simd.h"
#include "par/simd_lanes.h"
#include "linalg_reference.h"
#include "fixtures.h"

namespace qpp {
namespace {

// Bytewise equality of two double spans; reports the first differing slot.
::testing::AssertionResult SameBits(const double* a, const double* b,
                                    size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "bit mismatch at [" << i << "]: " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameBits(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  return SameBits(a.data(), b.data(), a.size());
}

std::vector<double> RandomDoubles(Rng* rng, size_t n, double lo = -10.0,
                                  double hi = 10.0) {
  std::vector<double> out(n);
  for (double& v : out) v = rng->Uniform(lo, hi);
  return out;
}

linalg::Matrix RandomMatrix(Rng* rng, size_t rows, size_t cols) {
  linalg::Matrix m(rows, cols);
  for (double& v : m.data()) v = rng->Uniform(-5.0, 5.0);
  return m;
}

// The literal scalar chains the lane kernels claim to reproduce per lane.
double ScalarSquaredDistance(const double* a, const double* b, size_t dims) {
  double s = 0.0;
  for (size_t j = 0; j < dims; ++j) {
    const double d = a[j] - b[j];
    s += d * d;
  }
  return s;
}

double ScalarDot(const double* a, const double* b, size_t dims) {
  double s = 0.0;
  for (size_t j = 0; j < dims; ++j) s += a[j] * b[j];
  return s;
}

TEST(SimdIntrospectionTest, CompiledIsaAndLanesAreConsistent) {
  const std::string isa = simd::CompiledIsa();
  EXPECT_TRUE(isa == "avx512" || isa == "avx2" || isa == "sse2" ||
              isa == "neon" || isa == "scalar-lanes")
      << isa;
  EXPECT_EQ(simd::CompiledLanes(), simd::kLanes);
  EXPECT_EQ(simd::CompiledLanes(),
            isa == "avx512" ? 8u : (isa == "avx2" ? 4u : 2u));
  EXPECT_EQ(simd::kTileRows, 4 * simd::kLanes);
}

TEST(SimdIntrospectionTest, ForceScalarTogglesEnabledAndActiveIsa) {
  // Note: QPP_SIMD=scalar in the environment legitimately disables the
  // kernels; in that mode Enabled() is false regardless of the toggle and
  // the differential tests below still pass (both sides run the oracle).
  const bool env_allows = [] {
    fixtures::ScopedForceScalar allow(false);
    return simd::Enabled();
  }();
  fixtures::ScopedForceScalar force(true);
  EXPECT_FALSE(simd::Enabled());
  EXPECT_STREQ(simd::ActiveIsa(), "scalar (forced)");
  const bool prev = simd::SetForceScalar(false);
  EXPECT_TRUE(prev);
  EXPECT_EQ(simd::Enabled(), env_allows);
  if (env_allows) {
    EXPECT_STREQ(simd::ActiveIsa(), simd::CompiledIsa());
  }
}

// ---------------------------------------------------------------------------
// Lane primitives (par/simd_lanes.h) vs the literal scalar chains.

TEST(SimdLanesTest, SquaredDistanceRowsMatchesScalarChainPerLane) {
  Rng rng(0x51D1ull);
  for (size_t dims : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{7},
                      size_t{16}, size_t{28}, size_t{61}}) {
    const auto rows = RandomDoubles(&rng, simd::kLanes * (dims ? dims : 1));
    const auto query = RandomDoubles(&rng, dims ? dims : 1);
    const simd::VecD acc = simd::SquaredDistanceRows(rows.data(), dims,
                                                     query.data(), dims);
    for (size_t l = 0; l < simd::kLanes; ++l) {
      const double want =
          ScalarSquaredDistance(rows.data() + l * dims, query.data(), dims);
      const double got = simd::Lane(acc, l);
      EXPECT_TRUE(SameBits(&want, &got, 1)) << "dims=" << dims << " lane=" << l;
    }
  }
}

TEST(SimdLanesTest, SquaredDistanceRows4MatchesSingleBlockForm) {
  Rng rng(0x51D2ull);
  for (size_t dims : {size_t{1}, size_t{5}, size_t{16}, size_t{28}}) {
    const auto rows = RandomDoubles(&rng, 4 * simd::kLanes * dims);
    const auto query = RandomDoubles(&rng, dims);
    simd::VecD acc4[4];
    simd::SquaredDistanceRows4(rows.data(), dims, query.data(), dims, acc4);
    for (size_t c = 0; c < 4; ++c) {
      const simd::VecD one = simd::SquaredDistanceRows(
          rows.data() + c * simd::kLanes * dims, dims, query.data(), dims);
      for (size_t l = 0; l < simd::kLanes; ++l) {
        const double want = simd::Lane(one, l);
        const double got = simd::Lane(acc4[c], l);
        EXPECT_TRUE(SameBits(&want, &got, 1))
            << "dims=" << dims << " block=" << c << " lane=" << l;
      }
    }
  }
}

TEST(SimdLanesTest, TiledDistanceKernelsMatchRowMajorForm) {
  // PackRowsToTiles only permutes storage; the tile kernels must read the
  // same doubles and run the same per-row chain as the row-major kernels.
  Rng rng(0x51D3ull);
  const size_t tile_rows = simd::kTileRows;
  for (size_t dims : {size_t{1}, size_t{3}, size_t{16}, size_t{28}}) {
    // Full tiles plus every partial-tile residue.
    for (size_t count = 1; count <= 2 * tile_rows + 1; ++count) {
      const auto rows = RandomDoubles(&rng, count * dims);
      const auto query = RandomDoubles(&rng, dims);
      std::vector<double> tiles(count * dims);
      ml::PackRowsToTiles(rows.data(), count, dims, tiles.data());
      // Element-level permutation check: tile (r, j) == row-major (r, j).
      for (size_t t0 = 0; t0 < count; t0 += tile_rows) {
        const size_t in_tile = std::min(tile_rows, count - t0);
        for (size_t r = 0; r < in_tile; ++r) {
          for (size_t j = 0; j < dims; ++j) {
            const double want = rows[(t0 + r) * dims + j];
            const double got = tiles[t0 * dims + j * in_tile + r];
            ASSERT_TRUE(SameBits(&want, &got, 1))
                << "count=" << count << " dims=" << dims << " row=" << t0 + r
                << " col=" << j;
          }
        }
      }
      // Kernel-level check on the first (possibly partial) tile.
      const size_t in_tile = std::min(tile_rows, count);
      for (size_t r0 = 0; r0 + simd::kLanes <= in_tile; r0 += simd::kLanes) {
        const simd::VecD tiled = simd::SquaredDistanceTile(
            tiles.data(), in_tile, r0, query.data(), dims);
        const simd::VecD rowm = simd::SquaredDistanceRows(
            rows.data() + r0 * dims, dims, query.data(), dims);
        for (size_t l = 0; l < simd::kLanes; ++l) {
          const double want = simd::Lane(rowm, l);
          const double got = simd::Lane(tiled, l);
          EXPECT_TRUE(SameBits(&want, &got, 1))
              << "count=" << count << " dims=" << dims << " r0=" << r0;
        }
      }
      if (in_tile == tile_rows) {
        simd::VecD acc4[4];
        simd::SquaredDistanceTile4(tiles.data(), in_tile, 0, query.data(),
                                   dims, acc4);
        for (size_t c = 0; c < 4; ++c) {
          const simd::VecD rowm = simd::SquaredDistanceRows(
              rows.data() + c * simd::kLanes * dims, dims, query.data(), dims);
          for (size_t l = 0; l < simd::kLanes; ++l) {
            const double want = simd::Lane(rowm, l);
            const double got = simd::Lane(acc4[c], l);
            EXPECT_TRUE(SameBits(&want, &got, 1))
                << "count=" << count << " dims=" << dims << " block=" << c;
          }
        }
      }
    }
  }
}

TEST(SimdLanesTest, DotAndSelfDotRowsMatchScalarChains) {
  Rng rng(0x51D4ull);
  for (size_t dims : {size_t{1}, size_t{2}, size_t{9}, size_t{28}}) {
    const auto rows = RandomDoubles(&rng, simd::kLanes * dims);
    const auto query = RandomDoubles(&rng, dims);
    const simd::VecD dots =
        simd::DotRows(rows.data(), dims, query.data(), dims);
    const simd::VecD selfs = simd::SelfDotRows(rows.data(), dims, dims);
    for (size_t l = 0; l < simd::kLanes; ++l) {
      const double want_dot =
          ScalarDot(rows.data() + l * dims, query.data(), dims);
      const double want_self =
          ScalarDot(rows.data() + l * dims, rows.data() + l * dims, dims);
      const double got_dot = simd::Lane(dots, l);
      const double got_self = simd::Lane(selfs, l);
      EXPECT_TRUE(SameBits(&want_dot, &got_dot, 1)) << "dims=" << dims;
      EXPECT_TRUE(SameBits(&want_self, &got_self, 1)) << "dims=" << dims;
    }
  }
}

TEST(SimdLanesTest, AxpyRowMatchesScalarAtEveryRemainderShape) {
  Rng rng(0x51D5ull);
  for (size_t n = 0; n <= 3 * simd::kLanes + 1; ++n) {
    const auto b = RandomDoubles(&rng, n);
    const double a = rng.Uniform(-3.0, 3.0);
    auto simd_o = RandomDoubles(&rng, n);
    auto scalar_o = simd_o;
    simd::AxpyRow(simd_o.data(), a, b.data(), n);
    for (size_t j = 0; j < n; ++j) scalar_o[j] += a * b[j];
    EXPECT_TRUE(SameBits(simd_o, scalar_o)) << "n=" << n;
    // AxpyNegRow: x - a*b == x + (-a)*b exactly (negation is exact).
    auto neg_o = b;
    auto neg_want = b;
    simd::AxpyNegRow(neg_o.data(), a, b.data(), n);
    for (size_t j = 0; j < n; ++j) neg_want[j] -= a * b[j];
    EXPECT_TRUE(SameBits(neg_o, neg_want)) << "n=" << n;
  }
}

TEST(SimdLanesTest, MaskLEMatchesScalarSemantics) {
  // 16 values fit two vectors at any supported lane width (kLanes <= 8).
  const double vals[] = {-1.0, 0.0,  1.5,  3.0, -7.25, 2.0,  0.5,  9.0,
                         4.25, -3.0, -0.5, 6.0, 1.0,   -9.5, 11.0, 0.25};
  static_assert(sizeof(vals) / sizeof(vals[0]) >= 16,
                "two vectors at kLanes == 8");
  const simd::VecD a = simd::LoadU(vals);
  const simd::VecD b = simd::LoadU(vals + simd::kLanes);
  unsigned want_le = 0;
  for (size_t l = 0; l < simd::kLanes; ++l) {
    if (simd::Lane(a, l) <= simd::Lane(b, l)) want_le |= 1u << l;
  }
  EXPECT_EQ(simd::MaskLE(a, b), want_le);
}

// ---------------------------------------------------------------------------
// Dispatched kernels: SIMD vs forced-scalar through the public entry points,
// across every remainder-lane count shape.

TEST(SimdDifferentialTest, GaussianKernelRowsBitIdenticalAtAllCountShapes) {
  Rng rng(0x6A55ull);
  const double tau = 3.7;
  for (size_t dims : {size_t{1}, size_t{4}, size_t{16}, size_t{28}}) {
    // 0 .. beyond two 4-way blocks: hits every n mod kLanes and
    // n mod 4*kLanes residue, the empty call, and the pure-tail calls.
    for (size_t count = 0; count <= 8 * simd::kLanes + 3; ++count) {
      const auto rows = RandomDoubles(&rng, count * dims);
      const auto point = RandomDoubles(&rng, dims);
      std::vector<double> simd_out(count, -1.0);
      std::vector<double> scalar_out(count, -2.0);
      ml::GaussianKernelRows(rows.data(), count, dims, point.data(), dims,
                             tau, /*use_simd=*/true, simd_out.data());
      ml::GaussianKernelRows(rows.data(), count, dims, point.data(), dims,
                             tau, /*use_simd=*/false, scalar_out.data());
      EXPECT_TRUE(SameBits(simd_out, scalar_out))
          << "count=" << count << " dims=" << dims;
      // And the scalar form is the literal GaussianKernel chain.
      ml::GaussianKernel kernel{tau};
      for (size_t r = 0; r < count; ++r) {
        linalg::Vector row(rows.begin() + r * dims,
                           rows.begin() + (r + 1) * dims);
        linalg::Vector p(point.begin(), point.end());
        const double want = kernel(row, p);
        ASSERT_TRUE(SameBits(&want, &scalar_out[r], 1))
            << "count=" << count << " dims=" << dims << " row=" << r;
      }
    }
  }
}

TEST(SimdDifferentialTest, GaussianKernelTilesBitIdenticalToRowForm) {
  // The tiled kernel at one query, SIMD and scalar, against the row-major
  // scalar chain on the unpacked rows.
  Rng rng(0x6A56ull);
  const double tau = 0.9;
  for (size_t dims : {size_t{1}, size_t{5}, size_t{16}, size_t{28}}) {
    for (size_t count = 1; count <= 2 * simd::kTileRows + simd::kLanes + 1;
         ++count) {
      const auto rows = RandomDoubles(&rng, count * dims);
      const auto point = RandomDoubles(&rng, dims);
      std::vector<double> tiles(count * dims);
      ml::PackRowsToTiles(rows.data(), count, dims, tiles.data());
      std::vector<double> want(count), tiled_simd(count), tiled_scalar(count);
      ml::GaussianKernelRows(rows.data(), count, dims, point.data(), dims,
                             tau, /*use_simd=*/false, want.data());
      ml::GaussianKernelTilesBatch(tiles.data(), count, dims, point.data(),
                                   1, dims, tau, /*use_simd=*/true,
                                   tiled_simd.data(), 1, 1);
      ml::GaussianKernelTilesBatch(tiles.data(), count, dims, point.data(),
                                   1, dims, tau, /*use_simd=*/false,
                                   tiled_scalar.data(), 1, 1);
      EXPECT_TRUE(SameBits(tiled_simd, want))
          << "count=" << count << " dims=" << dims;
      EXPECT_TRUE(SameBits(tiled_scalar, want))
          << "count=" << count << " dims=" << dims;
    }
  }
}

TEST(SimdDifferentialTest, GemmKernelsBitIdenticalToReferenceUnderDispatch) {
  Rng rng(0x6A57ull);
  // Odd shapes straddle every blocking boundary of the member kernels.
  const size_t shapes[][3] = {{1, 1, 1},   {2, 3, 5},    {7, 1, 9},
                              {16, 16, 16}, {17, 33, 9}, {64, 5, 64},
                              {31, 64, 33}};
  for (const auto& s : shapes) {
    const linalg::Matrix a = RandomMatrix(&rng, s[0], s[1]);
    const linalg::Matrix b = RandomMatrix(&rng, s[1], s[2]);
    const linalg::Matrix at = RandomMatrix(&rng, s[1], s[0]);
    const linalg::Matrix bt = RandomMatrix(&rng, s[2], s[1]);
    const linalg::Matrix want_mul = linalg::reference::Multiply(a, b);
    const linalg::Matrix want_tm = linalg::reference::TransposeMultiply(at, b);
    const linalg::Matrix want_mt = linalg::reference::MultiplyTranspose(a, bt);
    for (bool force : {false, true}) {
      fixtures::ScopedForceScalar guard(force);
      EXPECT_TRUE(SameBits(a.Multiply(b).data(), want_mul.data()))
          << s[0] << "x" << s[1] << "x" << s[2] << " force=" << force;
      EXPECT_TRUE(SameBits(at.TransposeMultiply(b).data(), want_tm.data()))
          << s[0] << "x" << s[1] << "x" << s[2] << " force=" << force;
      EXPECT_TRUE(SameBits(a.MultiplyTranspose(bt).data(), want_mt.data()))
          << s[0] << "x" << s[1] << "x" << s[2] << " force=" << force;
    }
  }
}

TEST(SimdDifferentialTest, FindNearestBitIdenticalAcrossDispatchAllShapes) {
  Rng rng(0x6A58ull);
  for (size_t dims : {size_t{1}, size_t{3}, size_t{16}, size_t{28}}) {
    // Covers the pure-tail sizes, the single-block sizes, and both sides of
    // the 4-way block boundary; k = 33 exceeds n for every n up to 32 and
    // selects from a full candidate set above it.
    for (size_t n : {size_t{1}, size_t{2}, simd::kLanes, simd::kLanes + 1,
                     4 * simd::kLanes - 1, 4 * simd::kLanes,
                     4 * simd::kLanes + 1, size_t{67}}) {
      const linalg::Matrix points = RandomMatrix(&rng, n, dims);
      for (size_t k : {size_t{1}, size_t{3}, size_t{32}, size_t{33}}) {
        for (auto metric :
             {ml::DistanceKind::kEuclidean, ml::DistanceKind::kCosine}) {
          const linalg::Vector query = RandomDoubles(&rng, dims, -5.0, 5.0);
          std::vector<ml::Neighbor> got, want;
          {
            fixtures::ScopedForceScalar guard(false);
            got = ml::FindNearest(points, query, k, metric);
          }
          {
            fixtures::ScopedForceScalar guard(true);
            want = ml::FindNearest(points, query, k, metric);
          }
          ASSERT_EQ(got.size(), want.size());
          ASSERT_EQ(got.size(), std::min(k, n));
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].index, want[i].index)
                << "n=" << n << " dims=" << dims << " k=" << k;
            EXPECT_TRUE(SameBits(&got[i].distance, &want[i].distance, 1))
                << "n=" << n << " dims=" << dims << " k=" << k;
          }
        }
      }
    }
  }
}

// The per-query chain ForwardSubstBlocked claims to reproduce per column:
// subtractions in ascending pivot order, separate multiply and subtract,
// one IEEE division by the diagonal (the ml/kcca.cpp per-query solve).
void OracleForwardSubstColumn(const double* l, size_t m, double* col) {
  for (size_t i = 0; i < m; ++i) {
    double v = col[i];
    for (size_t j = 0; j < i; ++j) v -= l[i * m + j] * col[j];
    col[i] = v / l[i * m + i];
  }
}

// Lower-triangular factors that stress the solve: a well-conditioned
// random one, the identity (pure pass-through — any spurious arithmetic
// shows up immediately), and an ill-conditioned mix of tiny and huge
// diagonal pivots whose quotients differ in the last bits between a true
// IEEE division and any reciprocal-multiply shortcut.
std::vector<double> MakeTriangular(Rng* rng, size_t m, int kind) {
  std::vector<double> l(m * m, 0.0);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < i; ++j) {
      l[i * m + j] = (kind == 1) ? 0.0 : rng->Uniform(-1.0, 1.0);
    }
    switch (kind) {
      case 1:  // identity
        l[i * m + i] = 1.0;
        break;
      case 2:  // ill-conditioned: alternating tiny / huge pivots
        l[i * m + i] = (i % 2 == 0) ? rng->Uniform(1e-12, 1e-11)
                                    : rng->Uniform(1e11, 1e12);
        break;
      default:  // well-conditioned, bounded away from zero
        l[i * m + i] = rng->Uniform(1.0, 3.0) * (rng->Bernoulli(0.5) ? 1 : -1);
    }
  }
  return l;
}

TEST(SimdDifferentialTest, ForwardSubstBlockedBitIdenticalToColumnOracle) {
  Rng rng(0x6A5Aull);
  // m straddles the kSolveTile pivot tiling (32): below, exact, above,
  // and a non-multiple.
  for (size_t m : {size_t{1}, size_t{7}, size_t{32}, size_t{45}, size_t{96}}) {
    for (int kind : {0, 1, 2}) {
      const auto l = MakeTriangular(&rng, m, kind);
      for (size_t b = 1; b <= 2 * simd::kLanes + 1; ++b) {
        const auto rhs = RandomDoubles(&rng, m * b);
        // Oracle: each column solved independently by the per-query chain.
        std::vector<double> want(m * b);
        std::vector<double> col(m);
        for (size_t q = 0; q < b; ++q) {
          for (size_t i = 0; i < m; ++i) col[i] = rhs[i * b + q];
          OracleForwardSubstColumn(l.data(), m, col.data());
          for (size_t i = 0; i < m; ++i) want[i * b + q] = col[i];
        }
        for (bool use_simd : {false, true}) {
          std::vector<double> got = rhs;
          linalg::ForwardSubstBlocked(l.data(), m, got.data(), b, b,
                                      use_simd);
          EXPECT_TRUE(SameBits(got, want)) << "m=" << m << " kind=" << kind
                                           << " b=" << b
                                           << " simd=" << use_simd;
        }
      }
    }
  }
}

TEST(SimdDifferentialTest, ForwardSubstBlockedSubRangesMatchWholeBlock) {
  // The parallel batch path solves disjoint column ranges of one wide RHS
  // concurrently (stride > b). Splitting must not change a single bit
  // versus solving the whole block in one call.
  Rng rng(0x6A5Bull);
  const size_t m = 48;
  const auto l = MakeTriangular(&rng, m, 0);
  for (size_t b : {size_t{3}, size_t{2 * simd::kLanes},
                   size_t{3 * simd::kLanes + 2}}) {
    const auto rhs = RandomDoubles(&rng, m * b);
    for (bool use_simd : {false, true}) {
      std::vector<double> whole = rhs;
      linalg::ForwardSubstBlocked(l.data(), m, whole.data(), b, b, use_simd);
      for (size_t split = 1; split < b; ++split) {
        std::vector<double> parts = rhs;
        linalg::ForwardSubstBlocked(l.data(), m, parts.data(), split, b,
                                    use_simd);
        linalg::ForwardSubstBlocked(l.data(), m, parts.data() + split,
                                    b - split, b, use_simd);
        EXPECT_TRUE(SameBits(parts, whole))
            << "b=" << b << " split=" << split << " simd=" << use_simd;
      }
    }
  }
}

TEST(SimdDifferentialTest, GaussianKernelTilesBatchBitIdenticalToPerQuery) {
  // Every (row, query) value of the tiled batch kernel, SIMD and scalar, in
  // both output layouts (by row: the blocked solve's; by query: the
  // per-query solve's), against the row-major GaussianKernelRows chain of
  // that query. Counts sweep every tile and lane remainder up to two tiles.
  Rng rng(0x6A5Cull);
  const double tau = 1.3;
  for (size_t dims : {size_t{1}, size_t{5}, size_t{16}, size_t{28}}) {
    for (size_t count = 1; count <= 2 * simd::kTileRows + simd::kLanes + 1;
         ++count) {
      const auto rows = RandomDoubles(&rng, count * dims);
      std::vector<double> tiles(count * dims);
      ml::PackRowsToTiles(rows.data(), count, dims, tiles.data());
      for (size_t nq = 1; nq <= 2 * simd::kLanes + 1; ++nq) {
        // query_stride > dims exercises the padded-row layout the batch
        // preprocess hands over.
        const size_t qstride = dims + 3;
        const auto queries = RandomDoubles(&rng, nq * qstride);
        std::vector<double> want(count * nq);  // by row: want[r * nq + q]
        std::vector<double> one(count);
        for (size_t q = 0; q < nq; ++q) {
          ml::GaussianKernelRows(rows.data(), count, dims,
                                 queries.data() + q * qstride, dims, tau,
                                 /*use_simd=*/false, one.data());
          for (size_t r = 0; r < count; ++r) want[r * nq + q] = one[r];
        }
        for (bool use_simd : {false, true}) {
          std::vector<double> by_row(count * nq);
          ml::GaussianKernelTilesBatch(tiles.data(), count, dims,
                                       queries.data(), nq, qstride, tau,
                                       use_simd, by_row.data(), nq, 1);
          EXPECT_TRUE(SameBits(by_row, want))
              << "dims=" << dims << " count=" << count << " nq=" << nq
              << " simd=" << use_simd;
          std::vector<double> by_query(count * nq);
          ml::GaussianKernelTilesBatch(tiles.data(), count, dims,
                                       queries.data(), nq, qstride, tau,
                                       use_simd, by_query.data(), 1, count);
          for (size_t q = 0; q < nq; ++q) {
            for (size_t r = 0; r < count; ++r) {
              ASSERT_TRUE(SameBits(&by_query[q * count + r],
                                   &want[r * nq + q], 1))
                  << "by query: dims=" << dims << " count=" << count
                  << " nq=" << nq << " simd=" << use_simd << " q=" << q
                  << " r=" << r;
            }
          }
        }
        // A row stride wider than nq must leave the gap columns alone.
        const size_t ostride = nq + 2;
        std::vector<double> padded(count * ostride, -42.0);
        ml::GaussianKernelTilesBatch(tiles.data(), count, dims,
                                     queries.data(), nq, qstride, tau,
                                     /*use_simd=*/true, padded.data(),
                                     ostride, 1);
        for (size_t r = 0; r < count; ++r) {
          EXPECT_TRUE(
              SameBits(padded.data() + r * ostride, want.data() + r * nq, nq))
              << "row " << r;
          for (size_t q = nq; q < ostride; ++q) {
            EXPECT_EQ(padded[r * ostride + q], -42.0)
                << "gap column clobbered at row " << r;
          }
        }
      }
    }
  }
}

TEST(SimdDifferentialTest, TrainedModelAndPredictionsBytesMatchScalarOracle) {
  // End-to-end: the full Train + Save + Predict pipeline produces the same
  // bytes with the vector kernels on and forced off. This is the property
  // that lets the golden suite stay pinned across ISA changes.
  const std::vector<ml::TrainingExample> examples =
      fixtures::PlanShapedExamples(96, 0x6A59ull, 5.0, 2.0);
  std::string bytes[2];
  std::vector<linalg::Vector> probes;
  for (size_t i = 0; i < 8; ++i) {
    probes.push_back(examples[i * 11 % examples.size()].query_features);
  }
  std::vector<std::vector<double>> metric_rows[2];
  for (int mode = 0; mode < 2; ++mode) {
    fixtures::ScopedForceScalar guard(mode == 1);
    core::Predictor pred;
    pred.Train(examples);
    std::ostringstream os;
    pred.Save(&os);
    bytes[mode] = os.str();
    for (const auto& p : probes) {
      metric_rows[mode].push_back(pred.Predict(p).metrics.ToVector());
    }
  }
  EXPECT_EQ(bytes[0], bytes[1]) << "trained model bytes differ under SIMD";
  ASSERT_EQ(metric_rows[0].size(), metric_rows[1].size());
  for (size_t i = 0; i < metric_rows[0].size(); ++i) {
    EXPECT_TRUE(SameBits(metric_rows[0][i], metric_rows[1][i]))
        << "probe " << i;
  }
}

}  // namespace
}  // namespace qpp
