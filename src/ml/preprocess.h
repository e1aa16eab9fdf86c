// Feature preprocessing: log1p + per-dimension standardization.
//
// The paper does not spell out preprocessing, but a Gaussian kernel over raw
// cardinality sums spanning 1e0..1e9 degenerates (every pairwise distance is
// dominated by the one largest dimension and the kernel matrix approaches
// identity). log1p compresses the dynamic range and standardization puts
// counts and cardinality sums on one scale. Documented as an inferred
// implementation detail in DESIGN.md; both steps can be disabled for the
// ablation bench.
#pragma once

#include "common/serde.h"
#include "linalg/matrix.h"

namespace qpp::ml {

class Preprocessor {
 public:
  Preprocessor(bool use_log1p = true, bool use_standardize = true)
      : log1p_(use_log1p), standardize_(use_standardize) {}

  /// Learns per-dimension mean/stddev on (optionally log1p'd) data.
  void Fit(const linalg::Matrix& x);

  size_t dims() const { return mean_.size(); }

  linalg::Matrix Transform(const linalg::Matrix& x) const;
  linalg::Vector TransformRow(const linalg::Vector& v) const;
  /// TransformRow into caller-owned storage (`out` must hold dims()
  /// doubles). Same arithmetic; the allocation-free form the batch
  /// prediction hot path writes matrix rows through.
  void TransformRowTo(const linalg::Vector& v, double* out) const;

  void Save(BinaryWriter* w) const;
  static Preprocessor Load(BinaryReader* r);

 private:
  bool log1p_;
  bool standardize_;
  bool fitted_ = false;
  linalg::Vector mean_;
  linalg::Vector stddev_;
};

}  // namespace qpp::ml
