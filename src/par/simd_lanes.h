// Portable double-precision lane primitives for the qpp::simd kernels.
//
// One vector type, VecD, holding kLanes doubles, selected at compile time:
// AVX-512 (8 lanes) > AVX2 (4) > SSE2 (2) > NEON (2) > a plain-array
// fallback (2 lanes, written so the compiler may — but need not —
// vectorize it). Every
// operation here is IEEE-exact per lane (add/sub/mul/div/sqrt are
// correctly rounded on all three ISAs, and hardware sqrt matches
// std::sqrt), so a kernel that assigns one *independent* output chain per
// lane is bit-identical to its scalar form at any lane width.
//
// This header is internal to the kernel .cpp files in libqpp (which are
// all compiled with one consistent set of ISA flags); public call sites
// use par/simd.h. Keeping the inline vector code out of public headers
// avoids ODR hazards between translation units compiled with different
// flags.
#pragma once

#include <cmath>
#include <cstddef>

#if defined(__AVX512F__)
#include <immintrin.h>
#define QPP_SIMD_ISA_AVX512 1
#elif defined(__AVX2__)
#include <immintrin.h>
#define QPP_SIMD_ISA_AVX2 1
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#include <emmintrin.h>
#define QPP_SIMD_ISA_SSE2 1
#elif defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#define QPP_SIMD_ISA_NEON 1
#else
#define QPP_SIMD_ISA_SCALAR 1
#endif

namespace qpp::simd {

#if defined(QPP_SIMD_ISA_AVX512)

inline constexpr size_t kLanes = 8;
inline constexpr const char* kIsaName = "avx512";

struct VecD {
  __m512d v;
};

inline VecD Zero() { return {_mm512_setzero_pd()}; }
inline VecD Splat(double x) { return {_mm512_set1_pd(x)}; }
inline VecD LoadU(const double* p) { return {_mm512_loadu_pd(p)}; }
inline void StoreU(double* p, VecD a) { _mm512_storeu_pd(p, a.v); }
/// Lanes p[0], p[stride], ..., p[7*stride] — the "one training row per
/// lane" load used by the distance kernels.
inline VecD GatherStride(const double* p, size_t stride) {
  return {_mm512_set_pd(p[7 * stride], p[6 * stride], p[5 * stride],
                        p[4 * stride], p[3 * stride], p[2 * stride],
                        p[stride], p[0])};
}
inline VecD Add(VecD a, VecD b) { return {_mm512_add_pd(a.v, b.v)}; }
inline VecD Sub(VecD a, VecD b) { return {_mm512_sub_pd(a.v, b.v)}; }
inline VecD Mul(VecD a, VecD b) { return {_mm512_mul_pd(a.v, b.v)}; }
inline VecD Div(VecD a, VecD b) { return {_mm512_div_pd(a.v, b.v)}; }
// Sqrt uses the zero-masked form with every lane selected: the same
// instruction and bits as the unmasked one, whose GCC 12 body passes an
// _mm512_undefined_pd() source that -Wmaybe-uninitialized flags.
inline constexpr __mmask8 kAllLanes = 0xFF;
inline VecD Sqrt(VecD a) { return {_mm512_maskz_sqrt_pd(kAllLanes, a.v)}; }
/// Bitmask of lanes where a <= b. AVX-512 compares produce a mask register
/// directly (__mmask8), one bit per lane, same convention as movemask.
inline unsigned MaskLE(VecD a, VecD b) {
  return static_cast<unsigned>(_mm512_cmp_pd_mask(a.v, b.v, _CMP_LE_OQ));
}

#elif defined(QPP_SIMD_ISA_AVX2)

inline constexpr size_t kLanes = 4;
inline constexpr const char* kIsaName = "avx2";

struct VecD {
  __m256d v;
};

inline VecD Zero() { return {_mm256_setzero_pd()}; }
inline VecD Splat(double x) { return {_mm256_set1_pd(x)}; }
inline VecD LoadU(const double* p) { return {_mm256_loadu_pd(p)}; }
inline void StoreU(double* p, VecD a) { _mm256_storeu_pd(p, a.v); }
/// Lanes p[0], p[stride], p[2*stride], p[3*stride] — the "one training row
/// per lane" load used by the distance kernels.
inline VecD GatherStride(const double* p, size_t stride) {
  return {_mm256_set_pd(p[3 * stride], p[2 * stride], p[stride], p[0])};
}
inline VecD Add(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
inline VecD Sub(VecD a, VecD b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline VecD Mul(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline VecD Div(VecD a, VecD b) { return {_mm256_div_pd(a.v, b.v)}; }
inline VecD Sqrt(VecD a) { return {_mm256_sqrt_pd(a.v)}; }
/// Bitmask of lanes where a <= b.
inline unsigned MaskLE(VecD a, VecD b) {
  return static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)));
}

#elif defined(QPP_SIMD_ISA_SSE2)

inline constexpr size_t kLanes = 2;
inline constexpr const char* kIsaName = "sse2";

struct VecD {
  __m128d v;
};

inline VecD Zero() { return {_mm_setzero_pd()}; }
inline VecD Splat(double x) { return {_mm_set1_pd(x)}; }
inline VecD LoadU(const double* p) { return {_mm_loadu_pd(p)}; }
inline void StoreU(double* p, VecD a) { _mm_storeu_pd(p, a.v); }
inline VecD GatherStride(const double* p, size_t stride) {
  return {_mm_set_pd(p[stride], p[0])};
}
inline VecD Add(VecD a, VecD b) { return {_mm_add_pd(a.v, b.v)}; }
inline VecD Sub(VecD a, VecD b) { return {_mm_sub_pd(a.v, b.v)}; }
inline VecD Mul(VecD a, VecD b) { return {_mm_mul_pd(a.v, b.v)}; }
inline VecD Div(VecD a, VecD b) { return {_mm_div_pd(a.v, b.v)}; }
inline VecD Sqrt(VecD a) { return {_mm_sqrt_pd(a.v)}; }
inline unsigned MaskLE(VecD a, VecD b) {
  return static_cast<unsigned>(_mm_movemask_pd(_mm_cmple_pd(a.v, b.v)));
}

#elif defined(QPP_SIMD_ISA_NEON)

inline constexpr size_t kLanes = 2;
inline constexpr const char* kIsaName = "neon";

struct VecD {
  float64x2_t v;
};

inline VecD Zero() { return {vdupq_n_f64(0.0)}; }
inline VecD Splat(double x) { return {vdupq_n_f64(x)}; }
inline VecD LoadU(const double* p) { return {vld1q_f64(p)}; }
inline void StoreU(double* p, VecD a) { vst1q_f64(p, a.v); }
inline VecD GatherStride(const double* p, size_t stride) {
  float64x2_t v = vdupq_n_f64(p[0]);
  v = vsetq_lane_f64(p[stride], v, 1);
  return {v};
}
inline VecD Add(VecD a, VecD b) { return {vaddq_f64(a.v, b.v)}; }
inline VecD Sub(VecD a, VecD b) { return {vsubq_f64(a.v, b.v)}; }
inline VecD Mul(VecD a, VecD b) { return {vmulq_f64(a.v, b.v)}; }
inline VecD Div(VecD a, VecD b) { return {vdivq_f64(a.v, b.v)}; }
inline VecD Sqrt(VecD a) { return {vsqrtq_f64(a.v)}; }
inline unsigned MaskLE(VecD a, VecD b) {
  const uint64x2_t m = vcleq_f64(a.v, b.v);
  return static_cast<unsigned>((vgetq_lane_u64(m, 0) & 1) |
                               ((vgetq_lane_u64(m, 1) & 1) << 1));
}

#else  // QPP_SIMD_ISA_SCALAR

inline constexpr size_t kLanes = 2;
inline constexpr const char* kIsaName = "scalar-lanes";

struct VecD {
  double v[2];
};

inline VecD Zero() { return {{0.0, 0.0}}; }
inline VecD Splat(double x) { return {{x, x}}; }
inline VecD LoadU(const double* p) { return {{p[0], p[1]}}; }
inline void StoreU(double* p, VecD a) {
  p[0] = a.v[0];
  p[1] = a.v[1];
}
inline VecD GatherStride(const double* p, size_t stride) {
  return {{p[0], p[stride]}};
}
inline VecD Add(VecD a, VecD b) { return {{a.v[0] + b.v[0], a.v[1] + b.v[1]}}; }
inline VecD Sub(VecD a, VecD b) { return {{a.v[0] - b.v[0], a.v[1] - b.v[1]}}; }
inline VecD Mul(VecD a, VecD b) { return {{a.v[0] * b.v[0], a.v[1] * b.v[1]}}; }
inline VecD Div(VecD a, VecD b) { return {{a.v[0] / b.v[0], a.v[1] / b.v[1]}}; }
inline VecD Sqrt(VecD a) { return {{std::sqrt(a.v[0]), std::sqrt(a.v[1])}}; }
inline unsigned MaskLE(VecD a, VecD b) {
  return (a.v[0] <= b.v[0] ? 1u : 0u) | (a.v[1] <= b.v[1] ? 2u : 0u);
}

#endif

/// Extracts lane i (0 <= i < kLanes).
inline double Lane(VecD a, size_t i) {
  double tmp[kLanes];
  StoreU(tmp, a);
  return tmp[i];
}

// ---------------------------------------------------------------------------
// Shared kernel building blocks. Each vector lane carries one *independent*
// output's full scalar accumulation chain, so every helper below is
// bit-identical to its scalar counterpart.
// ---------------------------------------------------------------------------

/// o[j] += a * b[j] for j in [0, n) — the GEMM inner loop. Each o[j] gets
/// exactly one mul and one add, as in the scalar kernel.
inline void AxpyRow(double* o, double a, const double* b, size_t n) {
  const VecD va = Splat(a);
  size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    StoreU(o + j, Add(LoadU(o + j), Mul(va, LoadU(b + j))));
  }
  for (; j < n; ++j) o[j] += a * b[j];
}

/// o[j] -= a * b[j]. Bit-identical to the scalar `o[j] -= a*b[j]` because
/// x - y*z == x + (-y)*z exactly in IEEE arithmetic (negation is exact).
inline void AxpyNegRow(double* o, double a, const double* b, size_t n) {
  AxpyRow(o, -a, b, n);
}

/// o[q] = o[q] / d for q in [0, n). One IEEE division per element — lane
/// division is correctly rounded, so this matches the scalar chain bitwise
/// (a reciprocal-multiply would not).
inline void DivRowBy(double* o, double d, size_t n) {
  const VecD vd = Splat(d);
  size_t q = 0;
  for (; q + kLanes <= n; q += kLanes) {
    StoreU(o + q, Div(LoadU(o + q), vd));
  }
  for (; q < n; ++q) o[q] = o[q] / d;
}

/// The blocked-forward-substitution trailing update:
///
///   srow[q] -= sum over j in [0, nb) of l[j] * g[j*gstride + q]
///
/// applied as nb running subtractions in ascending j per output element —
/// exactly the scalar per-column chain, never a dot-then-subtract (which
/// would reassociate). Lane q carries output column q; the accumulator
/// stays in a register across the j loop, so a tile of nb pivots costs one
/// load + one store of srow instead of nb round trips through AxpyNegRow.
inline void SolveUpdateRow(double* srow, const double* l, const double* g,
                           size_t gstride, size_t nb, size_t n) {
  size_t q = 0;
  for (; q + kLanes <= n; q += kLanes) {
    VecD acc = LoadU(srow + q);
    for (size_t j = 0; j < nb; ++j) {
      acc = Sub(acc, Mul(Splat(l[j]), LoadU(g + j * gstride + q)));
    }
    StoreU(srow + q, acc);
  }
  for (; q < n; ++q) {
    double s = srow[q];
    for (size_t j = 0; j < nb; ++j) s -= l[j] * g[j * gstride + q];
    srow[q] = s;
  }
}

/// Squared Euclidean distances from `query` to kLanes consecutive rows of a
/// row-major matrix: lane L accumulates sum_j (rows[L*stride + j] - q[j])^2
/// over ascending j — the exact SquaredDistanceRaw chain per lane.
inline VecD SquaredDistanceRows(const double* rows, size_t stride,
                                const double* query, size_t dims) {
  VecD acc = Zero();
  for (size_t j = 0; j < dims; ++j) {
    const VecD d = Sub(GatherStride(rows + j, stride), Splat(query[j]));
    acc = Add(acc, Mul(d, d));
  }
  return acc;
}

/// Rows per column-major tile used by the tiled distance kernels below.
/// A tile stores up to kTileRows consecutive rows coordinate-major —
/// element (r, j) of a tile holding `rows` rows lives at tile[j * rows + r]
/// — so the scan loads full vectors of *consecutive rows* per coordinate
/// instead of gathering strided elements. The distance scan is
/// throughput-bound on those loads (gathers decompose into scalar loads;
/// see docs/PERFORMANCE.md), so the tiled form is the fast path for
/// indexes that own their storage (ml::KdTree leaves, the KCCA pivot
/// block). Layout is derived state, rebuilt by whoever owns it, never
/// serialized — the value read per (row, coordinate) is the same double,
/// so tiled and row-major scans are bit-identical.
inline constexpr size_t kTileRows = 4 * kLanes;

/// Squared distances from `query` to kLanes consecutive tile rows starting
/// at row r0 of a column-major tile holding `rows` rows. Lane L carries
/// row r0+L's full ascending-j chain — exactly the scalar chain.
inline VecD SquaredDistanceTile(const double* tile, size_t rows, size_t r0,
                                const double* query, size_t dims) {
  VecD acc = Zero();
  for (size_t j = 0; j < dims; ++j) {
    const VecD d = Sub(LoadU(tile + j * rows + r0), Splat(query[j]));
    acc = Add(acc, Mul(d, d));
  }
  return acc;
}

/// Four independent SquaredDistanceTile chains over 4*kLanes consecutive
/// tile rows starting at row r0: out[c] holds the lanes for tile rows
/// (r0 + c*kLanes ..). Contiguous full-width loads plus four accumulators
/// in flight — the combination that saturates the load ports (neither
/// alone does: gathers cost ~2 uops per element, and a single accumulator
/// is latency-bound on its dependent add chain).
inline void SquaredDistanceTile4(const double* tile, size_t rows, size_t r0,
                                 const double* query, size_t dims,
                                 VecD* out) {
  VecD a0 = Zero();
  VecD a1 = Zero();
  VecD a2 = Zero();
  VecD a3 = Zero();
  for (size_t j = 0; j < dims; ++j) {
    const double* c = tile + j * rows + r0;
    const VecD q = Splat(query[j]);
    const VecD d0 = Sub(LoadU(c), q);
    const VecD d1 = Sub(LoadU(c + kLanes), q);
    const VecD d2 = Sub(LoadU(c + 2 * kLanes), q);
    const VecD d3 = Sub(LoadU(c + 3 * kLanes), q);
    a0 = Add(a0, Mul(d0, d0));
    a1 = Add(a1, Mul(d1, d1));
    a2 = Add(a2, Mul(d2, d2));
    a3 = Add(a3, Mul(d3, d3));
  }
  out[0] = a0;
  out[1] = a1;
  out[2] = a2;
  out[3] = a3;
}

/// Four independent SquaredDistanceRows chains over 4*kLanes consecutive
/// rows: out[c] holds the lanes for rows (c*kLanes .. c*kLanes+kLanes-1).
/// Every row's chain is exactly the scalar chain — the interleaving only
/// adds instruction-level parallelism. The single-accumulator form is
/// latency-bound on its dependent add chain (each row's sum is sequential
/// by contract), so four rows-in-flight per lane slot roughly double the
/// throughput of the big scans (measured in bench_timing_batch_predict).
inline void SquaredDistanceRows4(const double* rows, size_t stride,
                                 const double* query, size_t dims,
                                 VecD* out) {
  VecD a0 = Zero();
  VecD a1 = Zero();
  VecD a2 = Zero();
  VecD a3 = Zero();
  const double* r1 = rows + kLanes * stride;
  const double* r2 = rows + 2 * kLanes * stride;
  const double* r3 = rows + 3 * kLanes * stride;
  for (size_t j = 0; j < dims; ++j) {
    const VecD q = Splat(query[j]);
    const VecD d0 = Sub(GatherStride(rows + j, stride), q);
    const VecD d1 = Sub(GatherStride(r1 + j, stride), q);
    const VecD d2 = Sub(GatherStride(r2 + j, stride), q);
    const VecD d3 = Sub(GatherStride(r3 + j, stride), q);
    a0 = Add(a0, Mul(d0, d0));
    a1 = Add(a1, Mul(d1, d1));
    a2 = Add(a2, Mul(d2, d2));
    a3 = Add(a3, Mul(d3, d3));
  }
  out[0] = a0;
  out[1] = a1;
  out[2] = a2;
  out[3] = a3;
}

/// Dot products of `query` against kLanes consecutive rows; lane L sums
/// rows[L*stride + j] * q[j] over ascending j (the DotRaw chain per lane).
inline VecD DotRows(const double* rows, size_t stride, const double* query,
                    size_t dims) {
  VecD acc = Zero();
  for (size_t j = 0; j < dims; ++j) {
    acc = Add(acc, Mul(GatherStride(rows + j, stride), Splat(query[j])));
  }
  return acc;
}

/// Self dot products (squared norms) of kLanes consecutive rows.
inline VecD SelfDotRows(const double* rows, size_t stride, size_t dims) {
  VecD acc = Zero();
  for (size_t j = 0; j < dims; ++j) {
    const VecD r = GatherStride(rows + j, stride);
    acc = Add(acc, Mul(r, r));
  }
  return acc;
}

}  // namespace qpp::simd
