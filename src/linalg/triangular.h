// Blocked triangular solve for multi-query (multi-right-hand-side)
// forward substitution — the batch-prediction form of the per-query
// `ForwardSubstColumns` chain in ml/kcca.cpp, and, with use_simd off, the
// scalar oracle of every ICD projection's solve.
//
// The per-query solve reads the full m×m triangular factor (256 KB at the
// production ICD rank) once per query, which makes it an L2-bandwidth
// floor at ~8 µs/query (docs/PERFORMANCE.md). Solving a block of B
// right-hand-side columns at once reads the factor once per *block*: the
// pivots are processed in tiles of kSolveTile, and the trailing update for
// a tile touches each remaining row of the RHS exactly once
// (simd::SolveUpdateRow keeps the accumulator in registers across the
// tile), so factor traffic is amortized B ways and RHS traffic drops by a
// factor of kSolveTile versus the naive per-pivot rank-1 form.
//
// Bit-identity contract: column q of the blocked result is byte-for-byte
// the per-query forward substitution of column q — every output element
// keeps its exact scalar chain (subtractions in ascending pivot order,
// separate multiply and subtract, one IEEE division by the diagonal).
// Blocking only reorders *which element* is advanced next, never the
// arithmetic within an element's chain. tests/simd_kernel_test.cpp pins
// this against the column-at-a-time oracle on identity and
// ill-conditioned factors across all B mod kLanes residues.
#pragma once

#include <cstddef>

namespace qpp::linalg {

/// In-place blocked forward substitution: solves L·G = S where L is an
/// m×m lower-triangular factor (row-major, leading dimension m) and S is
/// an m×b right-hand-side block stored row-major with leading dimension
/// `stride` (stride >= b; pass stride == b for a dense block, or point
/// `s` at a column sub-range of a wider block — the parallel batch path
/// solves disjoint column ranges concurrently). On return S holds G.
/// With use_simd the row operations run b columns at a time through the
/// qpp::simd lanes; either way every column reproduces the per-query
/// scalar chain bitwise.
void ForwardSubstBlocked(const double* l, size_t m, double* s, size_t b,
                         size_t stride, bool use_simd);

}  // namespace qpp::linalg
