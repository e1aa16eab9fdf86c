#include "linalg/triangular.h"

#include <algorithm>

#include "par/simd_lanes.h"

namespace qpp::linalg {

namespace {

/// Pivots per tile. Purely a bandwidth knob: the trailing update reads
/// each remaining RHS row once per tile instead of once per pivot, so a
/// larger tile divides RHS traffic further while the tile's own G rows
/// (kSolveTile × b doubles) stay cache-resident. Tile width never touches
/// any element's arithmetic chain, so unlike the reduce grains in
/// parallel_for.h it is NOT part of a result's identity — but it is fixed
/// anyway, so perf numbers are comparable across hosts.
constexpr size_t kSolveTile = 32;

}  // namespace

void ForwardSubstBlocked(const double* l, size_t m, double* s, size_t b,
                         size_t stride, bool use_simd) {
  if (m == 0 || b == 0) return;
  for (size_t j0 = 0; j0 < m; j0 += kSolveTile) {
    const size_t j1 = std::min(m, j0 + kSolveTile);
    // Diagonal tile: classic per-pivot forward substitution restricted to
    // the tile's own rows — divide the pivot row, then subtract it from
    // the rows below it inside the tile, ascending pivot order.
    for (size_t j = j0; j < j1; ++j) {
      double* gj = s + j * stride;
      const double diag = l[j * m + j];
      if (use_simd) {
        simd::DivRowBy(gj, diag, b);
      } else {
        for (size_t q = 0; q < b; ++q) gj[q] = gj[q] / diag;
      }
      for (size_t i = j + 1; i < j1; ++i) {
        const double lij = l[i * m + j];
        double* si = s + i * stride;
        if (use_simd) {
          simd::AxpyNegRow(si, lij, gj, b);
        } else {
          for (size_t q = 0; q < b; ++q) si[q] -= lij * gj[q];
        }
      }
    }
    // Trailing update: every row below the tile absorbs the tile's pivots
    // as running subtractions in ascending pivot order — one pass over the
    // remaining RHS per tile.
    const size_t nb = j1 - j0;
    const double* g0 = s + j0 * stride;
    for (size_t i = j1; i < m; ++i) {
      const double* li = l + i * m + j0;
      double* si = s + i * stride;
      if (use_simd) {
        simd::SolveUpdateRow(si, li, g0, stride, nb, b);
      } else {
        for (size_t q = 0; q < b; ++q) {
          double v = si[q];
          for (size_t j = 0; j < nb; ++j) v -= li[j] * g0[j * stride + q];
          si[q] = v;
        }
      }
    }
  }
}

}  // namespace qpp::linalg
