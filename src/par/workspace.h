// A retained, aligned scratch block for batch-prediction buffers.
//
// The serve-path hot loop (core::Predictor::PredictBatchInto →
// ml::KccaModel::ProjectXBatchInto) needs one transient block per batch —
// the m×B kernel right-hand side on the ICD solver, the B×n kernel rows
// on the exact one. Allocating it per call puts malloc/free on the
// microsecond path and defeats the zero-allocation-after-warmup check in
// tests/alloc_test.cpp. A Workspace hands out doubles from one retained
// buffer instead: each cycle is Reset() followed by exactly one Alloc(),
// which grows the buffer in place when the batch is larger than any
// before it (nothing from the cycle is live yet, so nothing can move).
// After one call of the steady-state shape, Reset/Alloc never touch the
// heap again.
//
// Ownership: one Workspace per calling thread (serve workers each own
// one; the bench owns one). It is NOT thread-safe — parallel regions
// inside a batch carve disjoint ranges out of the one block the caller
// Alloc'd up front, they never Alloc concurrently.
//
// Returned memory is uninitialized (it holds bytes from earlier batches
// after reuse); every consumer fully overwrites what it Alloc'd, which
// keeps Reset() O(1) and is also why recycling cannot leak one batch's
// values into the next batch's results.
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.h"

namespace qpp::par {

class Workspace {
 public:
  /// `n` doubles, 64-byte aligned (cache-line / AVX-512 friendly), valid
  /// until the next Reset(). The cycle's only Alloc: it heap-allocates
  /// only when `n` exceeds every earlier request.
  double* Alloc(size_t n) {
    QPP_CHECK(!handed_out_);
    handed_out_ = true;
    const size_t need = n + AlignUp(main_.data());
    if (need > main_.size()) {
      main_.resize(n + kAlignDoubles);
    }
    return main_.data() + AlignUp(main_.data());
  }

  /// Ends the cycle; the pointer Alloc returned is dead, the capacity
  /// stays.
  void Reset() { handed_out_ = false; }

 private:
  static constexpr size_t kAlignBytes = 64;
  static constexpr size_t kAlignDoubles = kAlignBytes / sizeof(double);

  /// Offset of the first 64-byte-aligned double in the buffer.
  static size_t AlignUp(const double* base) {
    const auto addr = reinterpret_cast<size_t>(base);
    return (kAlignBytes - addr % kAlignBytes) % kAlignBytes / sizeof(double);
  }

  std::vector<double> main_;
  bool handed_out_ = false;  ///< Alloc called since the last Reset
};

}  // namespace qpp::par
