// Runtime controls for the qpp::simd compute kernels.
//
// The hot inner loops (blocked GEMM in linalg/matrix.cpp, Gaussian kernel
// row evaluation in ml/kernel.cpp, the distance scans behind ml/knn.cpp and
// ml/kcca.cpp) each carry two implementations: the original scalar kernel,
// kept verbatim as the differential-testing oracle, and a hand-vectorized
// one built on the lane primitives in par/simd_lanes.h. The instruction set
// is chosen at **compile time** (AVX2 > SSE2 > NEON > scalar lanes,
// whatever the compiler flags enable — see the QPP_SIMD_ARCH option in the
// top-level CMakeLists.txt); this header only exposes the runtime switch
// that forces the scalar oracle path and a few introspection helpers.
//
// The determinism contract (docs/PERFORMANCE.md, "SIMD dispatch & oracle
// testing"): every vectorized kernel dispatched through Enabled() is
// **bit-identical** to its scalar oracle, because vectorization is only
// applied *across independent outputs* — each output element keeps the
// exact scalar accumulation chain (same order, same mul/add split, no FMA
// contraction). Lane width therefore never leaks into results: AVX2, SSE2,
// NEON, and forced-scalar builds all produce the same bytes, which is what
// lets the golden suite, the cross-thread-count byte-identity tests, and
// the serve/fabric bit-identity contracts stay pinned while the
// kernels get faster. No lane primitive reduces across lanes.
#pragma once

#include <cstddef>

namespace qpp::simd {

/// Name of the instruction set the vector kernels were compiled for:
/// "avx2", "sse2", "neon", or "scalar-lanes" (portable fallback).
const char* CompiledIsa();

/// Lane width (doubles per vector) of the compiled kernels.
size_t CompiledLanes();

/// True when the vectorized kernels are active. False when forced off via
/// SetForceScalar(true) or the QPP_SIMD environment variable ("scalar",
/// "off", or "0" — checked once, on first use). Either way the results are
/// bit-identical; this switch exists for differential testing and for
/// isolating suspected SIMD miscompiles in the field.
bool Enabled();

/// Forces (true) or re-allows (false) the scalar oracle path, overriding
/// the environment. Takes effect for subsequent kernel dispatches; not a
/// synchronization point, so flip it only between compute regions (tests
/// do). Returns the previous forced state.
bool SetForceScalar(bool force);

/// "avx2" etc. when Enabled(), "scalar (forced)" otherwise — for bench
/// and CLI reports.
const char* ActiveIsa();

}  // namespace qpp::simd
