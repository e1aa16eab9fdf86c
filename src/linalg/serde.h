// Binary (de)serialization for linalg types, shared by all model formats.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/serde.h"
#include "linalg/matrix.h"

namespace qpp::linalg {

inline void WriteMatrix(BinaryWriter* w, const Matrix& m) {
  w->WriteU64(m.rows());
  w->WriteU64(m.cols());
  w->WriteDoubles(m.data());
}

/// Reads a WriteMatrix section. The header's rows x cols must not wrap and
/// must equal the payload's length before any rows x cols buffer exists: a
/// wrapped product would let a huge shape pass with a short payload.
inline Matrix ReadMatrix(BinaryReader* r) {
  const uint64_t rows = r->ReadU64();
  const uint64_t cols = r->ReadU64();
  QPP_CHECK_MSG(cols == 0 || rows <= UINT64_MAX / cols,
                "corrupt matrix shape");
  std::vector<double> payload = r->ReadDoubles();
  QPP_CHECK_MSG(payload.size() == rows * cols, "corrupt matrix payload");
  Matrix m(static_cast<size_t>(rows), static_cast<size_t>(cols));
  m.data() = std::move(payload);
  return m;
}

}  // namespace qpp::linalg
