// GEMM backends: C[M,N] = A[M,K] x B[K,N].
//
// The paper's instance-level diversity comes from different acceleration
// libraries (OpenBLAS vs Eigen vs MKL) under different runtimes. Here the
// same role is played by four genuinely distinct GEMM implementations
// with different loop orders, memory access patterns and floating-point
// accumulation orders — so diversified variants produce *bitwise
// different but numerically close* results, exactly the situation
// MVTEE's threshold-based checkpoint checks are designed for.
//
// kAvx2 is the vectorized member of the family: a packed-panel FMA
// microkernel compiled into its own TU with -mavx2 -mfma and selected
// through util::cpu_features runtime dispatch. Its scalar fallback
// (compiled unconditionally, fmaf-based) reproduces the microkernel's
// fused-multiply-add accumulation order exactly, so a given input
// yields bitwise identical results whether the host dispatches the
// vector path or the fallback — dispatch is a speed decision, never a
// diversity axis.
#pragma once

#include <cstdint>
#include <string_view>

#include "util/buffer_pool.h"
#include "util/thread_pool.h"

namespace mvtee::runtime {

enum class GemmBackend : uint8_t {
  kNaive = 0,      // textbook i-j-k ("reference BLAS")
  kBlocked,        // cache-tiled i-k-j ("OpenBLAS-like")
  kTransposed,     // B transposed then row-dot ("Eigen-like")
  kAvx2,           // packed-panel FMA microkernel ("MKL-like"), runtime
                   // dispatched with a bitwise-identical scalar fallback
};

std::string_view GemmBackendName(GemmBackend backend);

// Plain GEMM. C is fully overwritten. The default entry point shards
// the blocked backend's independent row tiles across the process-wide
// worker pool (util::ThreadPool::Shared) when the product is large
// enough to amortize the fan-out; pass an explicit pool (or nullptr to
// force serial) via the second overload. Row sharding preserves each
// output row's accumulation order, so the parallel result is bitwise
// identical to the serial one.
void Gemm(GemmBackend backend, const float* a, const float* b, float* c,
          int64_t m, int64_t n, int64_t k);
void Gemm(GemmBackend backend, const float* a, const float* b, float* c,
          int64_t m, int64_t n, int64_t k, util::ThreadPool* pool);

// A constant B operand packed once into the layout its backend consumes
// on the hot path, so per-call Gemm() setup (the kAvx2 panel pack, the
// kTransposed B transpose, the FC weight transpose) happens exactly once
// at model bind time. Storage is a BufferPool keepalive chunk: the pool
// charges the bytes (pool.* accounting) and the chunk returns to the
// pool when the owning cache dies. n*k floats for every backend:
//   kNaive/kBlocked : row-major B[k][n] (these backends stream B as-is;
//                     packing from a weight just caches the transpose)
//   kTransposed     : bt[j*k + p] (column-major B == row-major B^T)
//   kAvx2           : full 16-column panels [(panel*k + p)*16 + lane]
//                     followed by the tail columns column-major
struct PackedGemmB {
  util::PooledBuffer storage;
  int64_t n = 0;
  int64_t k = 0;
  GemmBackend backend = GemmBackend::kNaive;

  const float* data() const {
    return reinterpret_cast<const float*>(storage.data());
  }
  size_t bytes() const { return storage.size(); }
  explicit operator bool() const { return static_cast<bool>(storage); }
};

// Packs a row-major B[k][n] for `backend`.
PackedGemmB PackGemmB(GemmBackend backend, const float* b, int64_t n,
                      int64_t k, util::BufferPool* pool);

// Packs the B = W^T operand of y = x W^T directly from a row-major FC
// weight W[n][k] ([OUT, IN]) without materializing the transpose.
PackedGemmB PackGemmWeightTransposed(GemmBackend backend, const float* w,
                                     int64_t n, int64_t k,
                                     util::BufferPool* pool);

// Gemm over a prepacked B. Bitwise identical to Gemm() with the same
// backend on the unpacked operand: packing only relocates B's values;
// every backend's accumulation order is unchanged, including the kAvx2
// scalar fallback, which reads the packed panels with the same fmaf
// chain the vector microkernel uses. Performs no allocation.
void GemmPrepacked(const float* a, const PackedGemmB& packed, float* c,
                   int64_t m);
void GemmPrepacked(const float* a, const PackedGemmB& packed, float* c,
                   int64_t m, util::ThreadPool* pool);

// kBlocked's narrow-map operand: a constant A[m][k] (a groups == 1 conv
// weight, [OC][patch]) packed into 8-row panels P[q][p][l] = A[8q+l][p],
// zero past m, for the AVX2 tier to load 8 output rows' weights per k
// step. ceil(m/8)*8*k floats.
util::PooledBuffer PackBlockedPanels(const float* a, int64_t m, int64_t k,
                                     util::BufferPool* pool);

// Gemm(kBlocked, a, b, c, m, n, k) with A also packed by
// PackBlockedPanels, bitwise identical to it. When C is narrower than 8
// columns and the AVX2 tier dispatches, the tier runs 8 output rows per
// vector over the panels with at least 8 chains in flight; otherwise
// `a` is read as Gemm reads it.
void GemmBlockedPacked(const float* a, const float* panels, const float* b,
                       float* c, int64_t m, int64_t n, int64_t k);

// Bounds-checked GEMM used by hardened ("sanitizer") variants: every
// access is validated against the declared extents; out-of-contract
// calls abort instead of corrupting memory. a_size/b_size/c_size are the
// element counts of the underlying buffers.
void GemmChecked(GemmBackend backend, const float* a, size_t a_size,
                 const float* b, size_t b_size, float* c, size_t c_size,
                 int64_t m, int64_t n, int64_t k);

// True when the kAvx2 backend will run its vector microkernel on this
// host (TU compiled in, CPUID says AVX2+FMA, MVTEE_SIMD not 0). When
// false, kAvx2 still works through the scalar fmaf fallback.
bool GemmAvx2Accelerated();

// True when the kBlocked backend will run its AVX2 register-tiled tier.
// The tier lives in the elementwise AVX2 TU and dispatches on exactly
// its gate (compiled in, CPUID says AVX2, MVTEE_SIMD not 0). No FMA
// needed: the tier keeps the scalar loop nest's mul-then-add order, so
// both paths give the same bits.
bool GemmBlockedAccelerated();

}  // namespace mvtee::runtime
