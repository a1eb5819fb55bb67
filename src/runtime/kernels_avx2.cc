// AVX2 elementwise/activation kernels. Compiled with -mavx2 only — see
// kernels_avx2.h for why -mfma must stay off this TU.
#include "runtime/kernels_avx2.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace mvtee::runtime::internal {

bool Avx2ElementwiseCompiled() { return true; }

namespace {

// relu(v) = (v > 0) ? v : +0. cmp_gt is false for NaN and for v == ±0,
// so the masked AND yields +0 exactly where the scalar ternary does.
inline __m256 ReluV(__m256 v) {
  return _mm256_and_ps(v, _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ));
}

// acc = prod + acc with the product pinned as the first source operand.
// When both are NaN, x86 returns the first source's payload, and the
// scalar loop nest lets the product's NaN win; GCC is free to commute
// the operands of _mm256_add_ps (and does), so the order is fixed here.
inline void AddProductFirst(__m256 prod, __m256& acc) {
  asm("vaddps %[acc], %[prod], %[acc]" : [acc] "+x"(acc) : [prod] "x"(prod));
}

// a + b with a as the first source operand, the order the scalar
// fallbacks of Add and AddScalar pin too (kernels.cc): with both NaN,
// x86 returns the first source's payload, and GCC may commute a plain
// add, so without the pin the tiers could disagree on NaN bits.
inline __m256 AddFirst(__m256 a, __m256 b) {
  asm("vaddps %[b], %[a], %[a]" : [a] "+x"(a) : [b] "x"(b));
  return a;
}

inline float AddFirst(float a, float b) {
  asm("vaddss %[b], %[a], %[a]" : [a] "+x"(a) : [b] "x"(b));
  return a;
}

// R rows x 8*V columns of C accumulated over all of k in registers.
// kMasked (V == 1 only): the column tail, loading and storing just the
// lanes set in `mask`; the other lanes compute on zeros and are dropped.
template <int R, int V, bool kMasked>
inline void BlockedTile(const float* a, const float* b, float* c, int64_t i0,
                        int64_t j0, int64_t n, int64_t k, __m256i mask) {
  static_assert(!kMasked || V == 1);
  // -O2 does not fully unroll these constant-trip loops on its own, and
  // the accumulators stay in registers only when they are unrolled.
  __m256 acc[R][V];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  const float* a_rows = a + i0 * k;
  for (int64_t p = 0; p < k; ++p) {
    const float* b_row = b + p * n + j0;
    __m256 bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      bv[v] = kMasked ? _mm256_maskload_ps(b_row, mask)
                      : _mm256_loadu_ps(b_row + 8 * v);
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_set1_ps(a_rows[r * k + p]);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        AddProductFirst(_mm256_mul_ps(av, bv[v]), acc[r][v]);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    float* c_row = c + (i0 + r) * n + j0;
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      if constexpr (kMasked) {
        _mm256_maskstore_ps(c_row, mask, acc[r][v]);
      } else {
        _mm256_storeu_ps(c_row + 8 * v, acc[r][v]);
      }
    }
  }
}

// One block of R rows across every column of C.
template <int R>
void BlockedRowBlock(const float* a, const float* b, float* c, int64_t i0,
                     int64_t n, int64_t k, __m256i tail_mask) {
  int64_t j0 = 0;
  if constexpr (R > 1) {
    for (; j0 + 16 <= n; j0 += 16) {
      BlockedTile<R, 2, false>(a, b, c, i0, j0, n, k, tail_mask);
    }
  }
  for (; j0 + 8 <= n; j0 += 8) {
    BlockedTile<R, 1, false>(a, b, c, i0, j0, n, k, tail_mask);
  }
  if (j0 < n) BlockedTile<R, 1, true>(a, b, c, i0, j0, n, k, tail_mask);
}

// Q panels (8*Q rows of C) x all N columns, accumulated over all of k
// in registers: per k step one load of 8 packed weights per panel, one
// broadcast per column, and Q*N independent chains. Lane l of acc[q][j]
// is C[8(q0+q)+l][j]; rows at or past `m` are computed on zero weights
// and dropped.
template <int Q, int N>
inline void PanelTile(const float* panels, const float* b, float* c,
                      int64_t q0, int64_t m, int64_t k) {
  __m256 acc[Q][N];
#pragma GCC unroll 8
  for (int q = 0; q < Q; ++q) {
#pragma GCC unroll 7
    for (int j = 0; j < N; ++j) acc[q][j] = _mm256_setzero_ps();
  }
  const float* w = panels + q0 * k * kBlockedPanelRows;
  for (int64_t p = 0; p < k; ++p) {
    __m256 bv[N];
#pragma GCC unroll 7
    for (int j = 0; j < N; ++j) bv[j] = _mm256_broadcast_ss(b + p * N + j);
#pragma GCC unroll 8
    for (int q = 0; q < Q; ++q) {
      const __m256 wv =
          _mm256_loadu_ps(w + (q * k + p) * kBlockedPanelRows);
#pragma GCC unroll 7
      for (int j = 0; j < N; ++j) {
        AddProductFirst(_mm256_mul_ps(wv, bv[j]), acc[q][j]);
      }
    }
  }
  for (int q = 0; q < Q; ++q) {
    const int64_t row0 = (q0 + q) * kBlockedPanelRows;
    // No std::min: a standard-library template instantiated in this TU
    // could be the copy the linker keeps for baseline callers.
    const int64_t live =
        m - row0 < kBlockedPanelRows ? m - row0 : kBlockedPanelRows;
    for (int j = 0; j < N; ++j) {
      alignas(32) float lanes[kBlockedPanelRows];
      _mm256_store_ps(lanes, acc[q][j]);
      for (int64_t l = 0; l < live; ++l) c[(row0 + l) * N + j] = lanes[l];
    }
  }
}

// Panels [q, q_end) in tiles of Q, then Q/2, ... 1.
template <int Q, int N>
void PanelRange(const float* panels, const float* b, float* c, int64_t q,
                int64_t q_end, int64_t m, int64_t k) {
  for (; q + Q <= q_end; q += Q) PanelTile<Q, N>(panels, b, c, q, m, k);
  if constexpr (Q > 1) PanelRange<Q / 2, N>(panels, b, c, q, q_end, m, k);
}

// At least 8 chains in flight: add latency 4 on 2 ports.
template <int N>
void PanelColumns(const float* panels, const float* b, float* c, int64_t q,
                  int64_t q_end, int64_t m, int64_t k) {
  PanelRange<(8 + N - 1) / N, N>(panels, b, c, q, q_end, m, k);
}

}  // namespace

void ReluAvx2(const float* in, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, ReluV(_mm256_loadu_ps(in + i)));
  }
  for (; i < n; ++i) out[i] = in[i] > 0 ? in[i] : 0.0f;
}

void Relu6Avx2(const float* in, float* out, int64_t n) {
  // std::min(6, u) == (u < 6) ? u : 6 == minps(u, 6) (u is never NaN
  // after ReluV, so the NaN-propagation asymmetry of minps is moot).
  const __m256 six = _mm256_set1_ps(6.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i,
                     _mm256_min_ps(ReluV(_mm256_loadu_ps(in + i)), six));
  }
  for (; i < n; ++i) out[i] = std::min(6.0f, std::max(0.0f, in[i]));
}

void HardSwishAvx2(const float* in, float* out, int64_t n) {
  const __m256 three = _mm256_set1_ps(3.0f);
  const __m256 six = _mm256_set1_ps(6.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(in + i);
    const __m256 u =
        _mm256_min_ps(ReluV(_mm256_add_ps(v, three)), six);
    _mm256_storeu_ps(out + i,
                     _mm256_div_ps(_mm256_mul_ps(v, u), six));
  }
  for (; i < n; ++i) {
    out[i] = in[i] * std::min(6.0f, std::max(0.0f, in[i] + 3.0f)) / 6.0f;
  }
}

void AddAvx2(const float* a, const float* b, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i,
                     AddFirst(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = AddFirst(a[i], b[i]);
}

void AddScalarAvx2(const float* in, float s, float* out, int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, AddFirst(_mm256_loadu_ps(in + i), sv));
  }
  for (; i < n; ++i) out[i] = AddFirst(in[i], s);
}

void ScaleAvx2(const float* in, float alpha, float beta, float* out,
               int64_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  const __m256 bv = _mm256_set1_ps(beta);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(in + i), av), bv));
  }
  for (; i < n; ++i) out[i] = in[i] * alpha + beta;
}

float MaxReduceAvx2(const float* x, int64_t n) {
  int64_t i;
  float m;
  if (n >= 8) {
    __m256 acc = _mm256_loadu_ps(x);
    for (i = 8; i + 8 <= n; i += 8) {
      acc = _mm256_max_ps(acc, _mm256_loadu_ps(x + i));
    }
    const __m128 lo = _mm256_castps256_ps128(acc);
    const __m128 hi = _mm256_extractf128_ps(acc, 1);
    __m128 m4 = _mm_max_ps(lo, hi);
    m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
    m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
    m = _mm_cvtss_f32(m4);
  } else {
    m = x[0];
    i = 1;
  }
  for (; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

void MulScalarAvx2(float* data, float s, int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(data + i, _mm256_mul_ps(_mm256_loadu_ps(data + i), sv));
  }
  for (; i < n; ++i) data[i] *= s;
}

void GemmBlockedAvx2Rows(const float* a, const float* b, float* c,
                         int64_t row0, int64_t row1, int64_t n, int64_t k) {
  // Lane l is live in the column tail when l < n % 8.
  const __m256i tail_mask = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(n % 8)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  int64_t i0 = row0;
  if (n < 8) {
    // Narrow C (convs over 1x1 and 2x2 maps): each row is one masked
    // chain, so take 8 rows at a time to keep 8 chains in flight.
    for (; i0 + 8 <= row1; i0 += 8) {
      BlockedTile<8, 1, true>(a, b, c, i0, 0, n, k, tail_mask);
    }
  }
  for (; i0 + 4 <= row1; i0 += 4) {
    BlockedRowBlock<4>(a, b, c, i0, n, k, tail_mask);
  }
  for (; i0 < row1; ++i0) BlockedRowBlock<1>(a, b, c, i0, n, k, tail_mask);
}

void GemmBlockedAvx2Panels(const float* panels, const float* b, float* c,
                           int64_t row0, int64_t row1, int64_t n, int64_t k) {
  const int64_t q0 = row0 / kBlockedPanelRows;
  const int64_t q1 = (row1 + kBlockedPanelRows - 1) / kBlockedPanelRows;
  switch (n) {
    case 1: PanelColumns<1>(panels, b, c, q0, q1, row1, k); return;
    case 2: PanelColumns<2>(panels, b, c, q0, q1, row1, k); return;
    case 3: PanelColumns<3>(panels, b, c, q0, q1, row1, k); return;
    case 4: PanelColumns<4>(panels, b, c, q0, q1, row1, k); return;
    case 5: PanelColumns<5>(panels, b, c, q0, q1, row1, k); return;
    case 6: PanelColumns<6>(panels, b, c, q0, q1, row1, k); return;
    case 7: PanelColumns<7>(panels, b, c, q0, q1, row1, k); return;
  }
}

}  // namespace mvtee::runtime::internal

#else  // !__AVX2__: stub so the TU links everywhere.

namespace mvtee::runtime::internal {

bool Avx2ElementwiseCompiled() { return false; }

void ReluAvx2(const float*, float*, int64_t) {}
void Relu6Avx2(const float*, float*, int64_t) {}
void HardSwishAvx2(const float*, float*, int64_t) {}
void AddAvx2(const float*, const float*, float*, int64_t) {}
void AddScalarAvx2(const float*, float, float*, int64_t) {}
void ScaleAvx2(const float*, float, float, float*, int64_t) {}
float MaxReduceAvx2(const float* x, int64_t) { return x[0]; }
void MulScalarAvx2(float*, float, int64_t) {}
void GemmBlockedAvx2Rows(const float*, const float*, float*, int64_t,
                         int64_t, int64_t, int64_t) {}
void GemmBlockedAvx2Panels(const float*, const float*, float*, int64_t,
                           int64_t, int64_t, int64_t) {}

}  // namespace mvtee::runtime::internal

#endif
