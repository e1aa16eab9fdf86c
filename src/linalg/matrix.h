// Dense row-major matrix and vector types used by the hand-rolled ML stack.
//
// The library deliberately avoids external BLAS/LAPACK: the reproduction
// bands for this paper call for hand-rolled kernel methods, and the problem
// sizes (N ~ 1000 training queries, feature dims ~ 30) are comfortably within
// reach of straightforward scalar code.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace qpp::linalg {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer-style data; all rows must agree in size.
  static Matrix FromRows(const std::vector<Vector>& rows);

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Raw contiguous storage (row-major).
  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Reassigns shape and refills, retaining allocated capacity
  /// (vector::assign never shrinks capacity): the zero-allocation batch
  /// prediction path reuses one Matrix across calls, so after the first
  /// steady-state-shaped batch this touches no heap.
  void Reshape(size_t rows, size_t cols, double fill = 0.0) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
  }

  /// Returns row r as a Vector copy.
  Vector Row(size_t r) const;
  /// Returns column c as a Vector copy.
  Vector Col(size_t c) const;
  /// Overwrites row r.
  void SetRow(size_t r, const Vector& v);

  Matrix Transpose() const;

  /// this * other. Dimension-checked. Cache-blocked and parallelized over
  /// row blocks on the qpp::par pool for large products; bit-identical at
  /// every thread count to the pre-par single-threaded kernel the tests
  /// keep in tests/linalg_reference.cpp (each output element accumulates
  /// over k in ascending order in both).
  Matrix Multiply(const Matrix& other) const;
  /// this^T * other without materializing the transpose. Parallel over
  /// output-row blocks; bit-identical to the pre-par kernel.
  Matrix TransposeMultiply(const Matrix& other) const;
  /// this * other^T without materializing the transpose. Parallel over
  /// row blocks; bit-identical to the pre-par kernel.
  Matrix MultiplyTranspose(const Matrix& other) const;
  /// this * v for a vector v.
  Vector MultiplyVec(const Vector& v) const;

  Matrix Add(const Matrix& other) const;
  Matrix Subtract(const Matrix& other) const;
  Matrix Scale(double s) const;

  /// Adds `v` to every diagonal entry (ridge/jitter). Requires square.
  void AddToDiagonal(double v);

  /// Max absolute entry; 0 for empty.
  double MaxAbs() const;

  /// Frobenius norm.
  double FrobeniusNorm() const;

 private:
  size_t rows_, cols_;
  std::vector<double> data_;
};

/// Euclidean dot product. Sizes must match.
double Dot(const Vector& a, const Vector& b);

/// Squared Euclidean distance between two vectors of equal size.
double SquaredDistance(const Vector& a, const Vector& b);

/// Euclidean norm.
double Norm(const Vector& a);

/// a + b elementwise.
Vector AddVec(const Vector& a, const Vector& b);

/// a scaled by s.
Vector ScaleVec(const Vector& a, double s);

}  // namespace qpp::linalg
