// AVX2/FMA packed-panel GEMM microkernel. Compiled with -mavx2 -mfma
// (per-file, see runtime/CMakeLists.txt); only reached after runtime
// CPUID dispatch says the host executes those instructions.
#include "runtime/gemm_avx2.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>

namespace mvtee::runtime::internal {

bool Avx2KernelCompiled() { return true; }

namespace {

// R-row x 16-column register tile: two YMM accumulators per row, one
// broadcast of A per row per k step. Every C[i][j] lane accumulates
// p = 0..k-1 sequentially through vfmadd — bitwise the same chain the
// scalar fmaf fallback produces.
template <int R>
void MicroKernel(const float* a, const float* bp, float* c, int64_t i0,
                 int64_t j0, int64_t n, int64_t k) {
  // -O2 does not fully unroll the row loops on its own, and the
  // accumulators stay in registers only when they are unrolled.
  __m256 acc0[R], acc1[R];
#pragma GCC unroll 6
  for (int r = 0; r < R; ++r) {
    acc0[r] = _mm256_setzero_ps();
    acc1[r] = _mm256_setzero_ps();
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* b_row = bp + p * kAvx2PanelCols;
    const __m256 b0 = _mm256_loadu_ps(b_row);
    const __m256 b1 = _mm256_loadu_ps(b_row + 8);
#pragma GCC unroll 6
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_set1_ps(a[(i0 + r) * k + p]);
      acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
    }
  }
#pragma GCC unroll 6
  for (int r = 0; r < R; ++r) {
    _mm256_storeu_ps(c + (i0 + r) * n + j0, acc0[r]);
    _mm256_storeu_ps(c + (i0 + r) * n + j0 + 8, acc1[r]);
  }
}

}  // namespace

void GemmAvx2KernelRows(const float* a, const float* packed_b, float* c,
                        int64_t row0, int64_t row1, int64_t n, int64_t k) {
  const int64_t panels = n / kAvx2PanelCols;
  for (int64_t panel = 0; panel < panels; ++panel) {
    const float* bp = packed_b + panel * k * kAvx2PanelCols;
    const int64_t j0 = panel * kAvx2PanelCols;
    int64_t i0 = row0;
    for (; i0 + kAvx2RowBlock <= row1; i0 += kAvx2RowBlock) {
      MicroKernel<6>(a, bp, c, i0, j0, n, k);
    }
    switch (row1 - i0) {
      case 5: MicroKernel<5>(a, bp, c, i0, j0, n, k); break;
      case 4: MicroKernel<4>(a, bp, c, i0, j0, n, k); break;
      case 3: MicroKernel<3>(a, bp, c, i0, j0, n, k); break;
      case 2: MicroKernel<2>(a, bp, c, i0, j0, n, k); break;
      case 1: MicroKernel<1>(a, bp, c, i0, j0, n, k); break;
      default: break;
    }
  }
}

}  // namespace mvtee::runtime::internal

#else  // !(__AVX2__ && __FMA__): stub so the TU links everywhere.

namespace mvtee::runtime::internal {

bool Avx2KernelCompiled() { return false; }

void GemmAvx2KernelRows(const float*, const float*, float*, int64_t,
                        int64_t, int64_t, int64_t) {}

}  // namespace mvtee::runtime::internal

#endif
