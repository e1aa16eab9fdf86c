#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "par/parallel_for.h"
#include "par/simd.h"
#include "par/simd_lanes.h"

namespace qpp::linalg {

namespace {

// Blocking / dispatch parameters for the product kernels. All are
// compile-time constants: chunk boundaries must not depend on the thread
// count (see par/thread_pool.h), and the k-tile size is part of the loop
// order that the bit-identity guarantee is stated over.
constexpr size_t kRowGrain = 16;  ///< rows per parallel chunk
constexpr size_t kKTile = 64;     ///< inner-dimension tile (L1-resident rows)
/// Multiply-add count below which dispatching to the pool costs more than
/// the loop; small products run the same kernel inline.
constexpr size_t kParMinWork = size_t{1} << 15;

// out rows [r0, r1) of A * B. k-tiled i-k-j: per output element the
// accumulation order over k is ascending (tiles ascending, k within a tile
// ascending), exactly matching the pre-par single-threaded i-k-j loop, and
// the aik == 0 skip is preserved — so the result is bit-identical to it
// (tests/linalg_reference.cpp keeps that loop as the tests' oracle).
// The tiling keeps a kKTile-row band of B hot across all rows of the block.
// The j loop runs over independent output elements, so the SIMD form
// (simd::AxpyRow: one mul + one add per element, lanes = adjacent j) is
// bit-identical too; `use_simd` is hoisted by the caller.
void MultiplyRowRange(const double* a, const double* b, double* out,
                      size_t acols, size_t bcols, size_t r0, size_t r1,
                      bool use_simd) {
  for (size_t k0 = 0; k0 < acols; k0 += kKTile) {
    const size_t k1 = std::min(acols, k0 + kKTile);
    for (size_t i = r0; i < r1; ++i) {
      const double* arow = a + i * acols;
      double* orow = out + i * bcols;
      for (size_t k = k0; k < k1; ++k) {
        const double aik = arow[k];
        if (aik == 0.0) continue;
        const double* brow = b + k * bcols;
        if (use_simd) {
          simd::AxpyRow(orow, aik, brow, bcols);
        } else {
          for (size_t j = 0; j < bcols; ++j) orow[j] += aik * brow[j];
        }
      }
    }
  }
}

// out rows [i0, i1) of A^T * B (out is acols x bcols). k stays the outer
// loop exactly as in the pre-par kernel (tests/linalg_reference.cpp),
// restricted to the columns of A that map to this output-row block; per
// element the k order and the zero skip match it bit for bit.
void TransposeMultiplyRowRange(const double* a, const double* b, double* out,
                               size_t arows, size_t acols, size_t bcols,
                               size_t i0, size_t i1, bool use_simd) {
  for (size_t k = 0; k < arows; ++k) {
    const double* arow = a + k * acols;
    const double* brow = b + k * bcols;
    for (size_t i = i0; i < i1; ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      double* orow = out + i * bcols;
      if (use_simd) {
        simd::AxpyRow(orow, aki, brow, bcols);
      } else {
        for (size_t j = 0; j < bcols; ++j) orow[j] += aki * brow[j];
      }
    }
  }
}

// out rows [r0, r1) of A * B^T: independent dot products, inner loop
// identical to the pre-par kernel (tests/linalg_reference.cpp). The SIMD
// form computes
// kLanes output columns at once — lane L carries the full sequential
// k-ascending dot product against B row j+L (simd::DotRows), so each
// output element's accumulation chain matches the scalar kernel bit for
// bit; only independent chains run side by side.
void MultiplyTransposeRowRange(const double* a, const double* b, double* out,
                               size_t acols, size_t brows, size_t r0,
                               size_t r1, bool use_simd) {
  for (size_t i = r0; i < r1; ++i) {
    const double* arow = a + i * acols;
    double* orow = out + i * brows;
    size_t j = 0;
    if (use_simd) {
      for (; j + simd::kLanes <= brows; j += simd::kLanes) {
        simd::StoreU(orow + j,
                     simd::DotRows(b + j * acols, acols, arow, acols));
      }
    }
    for (; j < brows; ++j) {
      const double* brow = b + j * acols;
      double s = 0.0;
      for (size_t k = 0; k < acols; ++k) s += arow[k] * brow[k];
      orow[j] = s;
    }
  }
}

}  // namespace

Matrix Matrix::FromRows(const std::vector<Vector>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    QPP_CHECK_MSG(rows[r].size() == rows[0].size(), "ragged rows");
    for (size_t c = 0; c < rows[r].size(); ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector Matrix::Row(size_t r) const {
  QPP_CHECK(r < rows_);
  return Vector(data_.begin() + static_cast<ptrdiff_t>(r * cols_),
                data_.begin() + static_cast<ptrdiff_t>((r + 1) * cols_));
}

Vector Matrix::Col(size_t c) const {
  QPP_CHECK(c < cols_);
  Vector v(rows_);
  for (size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void Matrix::SetRow(size_t r, const Vector& v) {
  QPP_CHECK(r < rows_ && v.size() == cols_);
  for (size_t c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r)
    for (size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  QPP_CHECK_MSG(cols_ == other.rows_, "dimension mismatch in Multiply");
  Matrix out(rows_, other.cols_);
  const double* a = data_.data();
  const double* b = other.data_.data();
  double* o = out.data_.data();
  const size_t work = rows_ * cols_ * other.cols_;
  const bool use_simd = simd::Enabled();
  if (work < kParMinWork) {
    MultiplyRowRange(a, b, o, cols_, other.cols_, 0, rows_, use_simd);
  } else {
    par::ParallelFor(
        0, rows_, kRowGrain,
        [&](size_t r0, size_t r1) {
          MultiplyRowRange(a, b, o, cols_, other.cols_, r0, r1, use_simd);
        },
        "matmul");
  }
  return out;
}

Matrix Matrix::TransposeMultiply(const Matrix& other) const {
  QPP_CHECK_MSG(rows_ == other.rows_, "dimension mismatch in TransposeMultiply");
  Matrix out(cols_, other.cols_);
  const double* a = data_.data();
  const double* b = other.data_.data();
  double* o = out.data_.data();
  const size_t work = rows_ * cols_ * other.cols_;
  const bool use_simd = simd::Enabled();
  if (work < kParMinWork) {
    TransposeMultiplyRowRange(a, b, o, rows_, cols_, other.cols_, 0, cols_,
                              use_simd);
  } else {
    par::ParallelFor(
        0, cols_, kRowGrain,
        [&](size_t i0, size_t i1) {
          TransposeMultiplyRowRange(a, b, o, rows_, cols_, other.cols_, i0,
                                    i1, use_simd);
        },
        "matmul_tn");
  }
  return out;
}

Matrix Matrix::MultiplyTranspose(const Matrix& other) const {
  QPP_CHECK_MSG(cols_ == other.cols_, "dimension mismatch in MultiplyTranspose");
  Matrix out(rows_, other.rows_);
  const double* a = data_.data();
  const double* b = other.data_.data();
  double* o = out.data_.data();
  const size_t work = rows_ * cols_ * other.rows_;
  const bool use_simd = simd::Enabled();
  if (work < kParMinWork) {
    MultiplyTransposeRowRange(a, b, o, cols_, other.rows_, 0, rows_, use_simd);
  } else {
    par::ParallelFor(
        0, rows_, kRowGrain,
        [&](size_t r0, size_t r1) {
          MultiplyTransposeRowRange(a, b, o, cols_, other.rows_, r0, r1,
                                    use_simd);
        },
        "matmul_nt");
  }
  return out;
}

Vector Matrix::MultiplyVec(const Vector& v) const {
  QPP_CHECK_MSG(cols_ == v.size(), "dimension mismatch in MultiplyVec");
  Vector out(rows_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    const double* a = &data_[i * cols_];
    double s = 0.0;
    for (size_t k = 0; k < cols_; ++k) s += a[k] * v[k];
    out[i] = s;
  }
  return out;
}

Matrix Matrix::Add(const Matrix& other) const {
  QPP_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] += other.data_[i];
  return out;
}

Matrix Matrix::Subtract(const Matrix& other) const {
  QPP_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] -= other.data_[i];
  return out;
}

Matrix Matrix::Scale(double s) const {
  Matrix out = *this;
  for (double& v : out.data_) v *= s;
  return out;
}

void Matrix::AddToDiagonal(double v) {
  QPP_CHECK(rows_ == cols_);
  for (size_t i = 0; i < rows_; ++i) (*this)(i, i) += v;
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Dot(const Vector& a, const Vector& b) {
  QPP_CHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double SquaredDistance(const Vector& a, const Vector& b) {
  QPP_CHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

double Norm(const Vector& a) { return std::sqrt(Dot(a, a)); }

Vector AddVec(const Vector& a, const Vector& b) {
  QPP_CHECK(a.size() == b.size());
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector ScaleVec(const Vector& a, double s) {
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

}  // namespace qpp::linalg
