#include "linalg_reference.h"

#include "common/check.h"

namespace qpp::linalg::reference {

Matrix Multiply(const Matrix& a, const Matrix& b) {
  QPP_CHECK_MSG(a.cols() == b.rows(), "dimension mismatch in Multiply");
  Matrix out(a.rows(), b.cols());
  // The original single-threaded i-k-j kernel, unchanged.
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.data().data() + i * a.cols();
    double* orow = out.data().data() + i * b.cols();
    for (size_t k = 0; k < a.cols(); ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b.data().data() + k * b.cols();
      for (size_t j = 0; j < b.cols(); ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Matrix TransposeMultiply(const Matrix& a, const Matrix& b) {
  QPP_CHECK_MSG(a.rows() == b.rows(),
                "dimension mismatch in TransposeMultiply");
  Matrix out(a.cols(), b.cols());
  for (size_t k = 0; k < a.rows(); ++k) {
    const double* arow = a.data().data() + k * a.cols();
    const double* brow = b.data().data() + k * b.cols();
    for (size_t i = 0; i < a.cols(); ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      double* orow = out.data().data() + i * b.cols();
      for (size_t j = 0; j < b.cols(); ++j) orow[j] += aki * brow[j];
    }
  }
  return out;
}

Matrix MultiplyTranspose(const Matrix& a, const Matrix& b) {
  QPP_CHECK_MSG(a.cols() == b.cols(),
                "dimension mismatch in MultiplyTranspose");
  Matrix out(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.data().data() + i * a.cols();
    for (size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.data().data() + j * b.cols();
      double s = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) s += arow[k] * brow[k];
      out(i, j) = s;
    }
  }
  return out;
}

}  // namespace qpp::linalg::reference
