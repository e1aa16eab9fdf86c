// Reference single-threaded product kernels — the pre-par implementations
// of Matrix::Multiply, TransposeMultiply and MultiplyTranspose, kept
// verbatim so tests can pin the blocked/parallel/SIMD member kernels
// against them bit for bit (linalg_test, par_test, simd_kernel_test).
// Test-only: libqpp does not ship them.
#pragma once

#include "linalg/matrix.h"

namespace qpp::linalg::reference {

Matrix Multiply(const Matrix& a, const Matrix& b);
Matrix TransposeMultiply(const Matrix& a, const Matrix& b);
Matrix MultiplyTranspose(const Matrix& a, const Matrix& b);

}  // namespace qpp::linalg::reference
