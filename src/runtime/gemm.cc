#include "runtime/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "runtime/gemm_avx2.h"
#include "runtime/kernels_avx2.h"
#include "runtime/scratch.h"
#include "util/cpu_features.h"
#include "util/dataplane_stats.h"
#include "util/status.h"

namespace mvtee::runtime {

std::string_view GemmBackendName(GemmBackend backend) {
  switch (backend) {
    case GemmBackend::kNaive: return "naive";
    case GemmBackend::kBlocked: return "blocked";
    case GemmBackend::kTransposed: return "transposed";
    case GemmBackend::kAvx2: return "avx2";
  }
  return "unknown";
}

bool GemmAvx2Accelerated() {
  return internal::Avx2KernelCompiled() && util::UseAvx2Gemm();
}

bool GemmBlockedAccelerated() { return internal::UseAvx2ElementwiseTier(); }

namespace {

// kNaive's add: acc + prod with the accumulator as the first source
// operand, which x86 returns when both are NaN. It is the order GCC gave
// the one-chain loop this backend ran before its chains were
// interleaved; pinned, no build or register allocation can flip it.
// kNaive keeps its own copy of this one instruction, as it keeps its own
// loops (DESIGN.md section 10).
inline float NaiveAdd(float acc, float prod) {
#if defined(__SSE2__)
  asm("addss %1, %0" : "+x"(acc) : "x"(prod));
  return acc;
#else
  return acc + prod;
#endif
}

// Each kNaive output is one chain, acc = +0; acc += a[p]*b[p] in k
// order, mul then add, and a chain alone runs at add latency. This many
// chains run side by side, enough to keep both add ports busy.
constexpr int kNaiveChains = 8;

// R chains: rows i..i+R-1 of column j (kRows), or columns j..j+R-1 of
// row i.
template <int R, bool kRows>
void NaiveChains(const float* a, const float* b, float* c, int64_t i,
                 int64_t j, int64_t n, int64_t k) {
  const float* a_rows[R];
  const float* b_cols[R];
  float acc[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    a_rows[r] = a + (kRows ? i + r : i) * k;
    b_cols[r] = b + (kRows ? j : j + r);
    acc[r] = 0.0f;
  }
  for (int64_t p = 0; p < k; ++p) {
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      acc[r] = NaiveAdd(acc[r], a_rows[r][p] * b_cols[r][p * n]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    c[(kRows ? i + r : i) * n + (kRows ? j : j + r)] = acc[r];
  }
}

// Rows [i, m) in blocks of R rows per column, then R/2, ... 1.
template <int R>
void NaiveRowBlocks(const float* a, const float* b, float* c, int64_t i,
                    int64_t m, int64_t n, int64_t k) {
  for (; i + R <= m; i += R) {
    for (int64_t j = 0; j < n; ++j) NaiveChains<R, true>(a, b, c, i, j, n, k);
  }
  if constexpr (R > 1) NaiveRowBlocks<R / 2>(a, b, c, i, m, n, k);
}

// Columns of row i in blocks of R, then R/2, ... 1.
template <int R>
void NaiveColumnBlocks(const float* a, const float* b, float* c, int64_t i,
                       int64_t j, int64_t n, int64_t k) {
  for (; j + R <= n; j += R) NaiveChains<R, false>(a, b, c, i, j, n, k);
  if constexpr (R > 1) NaiveColumnBlocks<R / 2>(a, b, c, i, j, n, k);
}

// Rows in flight for the hardened preset's convs (m is the output
// channels), columns for its FC on a few requests (m is the batch).
void GemmNaive(const float* a, const float* b, float* c, int64_t m, int64_t n,
               int64_t k) {
  if (m >= kNaiveChains) {
    NaiveRowBlocks<kNaiveChains>(a, b, c, 0, m, n, k);
    return;
  }
  for (int64_t i = 0; i < m; ++i) {
    NaiveColumnBlocks<kNaiveChains>(a, b, c, i, 0, n, k);
  }
}

constexpr int64_t kTile = 64;

// prod + acc with the product as the first source operand, which x86
// returns when both are NaN. Plain C++ leaves the order to the register
// allocator: optimized builds put the product first, but UBSan's checks
// flip it. Pinning it keeps this loop nest bitwise identical to the
// blocked AVX2 tier, which pins the same order, in every build. The
// pinned add also hides the column loop from the auto-vectorizer, so
// the loop nest steps four columns at a time itself (SSE2 is baseline
// on x86-64); per element that is the same mul and add.
#if defined(__SSE2__)
using Float4 = float __attribute__((vector_size(16)));
constexpr int64_t kFloat4Lanes = 4;

inline Float4 AddProductFirst(Float4 prod, Float4 acc) {
  asm("addps %1, %0" : "+x"(prod) : "x"(acc));
  return prod;
}

inline float AddProductFirst(float prod, float acc) {
  asm("addss %1, %0" : "+x"(prod) : "x"(acc));
  return prod;
}
#else
inline float AddProductFirst(float prod, float acc) { return prod + acc; }
#endif

// Computes output rows [row0, row1) with the blocked backend's loop
// order. Rows are independent (each reads shared A/B rows, writes a
// disjoint C range) and a row's accumulation order does not depend on
// which shard runs it — the basis for bitwise-deterministic sharding.
// Each C element is ((+0 + a0*b0) + a1*b1) + ... in k order; the AVX2
// tier keeps it in registers instead of reloading C per k step, and
// this loop nest stays as its fallback and its reference.
void GemmBlockedRows(const float* a, const float* b, float* c, int64_t row0,
                     int64_t row1, int64_t n, int64_t k) {
  if (GemmBlockedAccelerated()) {
    internal::GemmBlockedAvx2Rows(a, b, c, row0, row1, n, k);
    return;
  }
  std::memset(c + row0 * n, 0,
              static_cast<size_t>((row1 - row0) * n) * sizeof(float));
  for (int64_t i0 = row0; i0 < row1; i0 += kTile) {
    const int64_t i_end = std::min(i0 + kTile, row1);
    for (int64_t p0 = 0; p0 < k; p0 += kTile) {
      const int64_t p_end = std::min(p0 + kTile, k);
      for (int64_t j0 = 0; j0 < n; j0 += kTile) {
        const int64_t j_end = std::min(j0 + kTile, n);
        for (int64_t i = i0; i < i_end; ++i) {
          for (int64_t p = p0; p < p_end; ++p) {
            const float a_ip = a[i * k + p];
            const float* b_row = b + p * n;
            float* c_row = c + i * n;
            int64_t j = j0;
#if defined(__SSE2__)
            for (; j + kFloat4Lanes <= j_end; j += kFloat4Lanes) {
              Float4 b4, c4;
              std::memcpy(&b4, b_row + j, sizeof(b4));
              std::memcpy(&c4, c_row + j, sizeof(c4));
              c4 = AddProductFirst(a_ip * b4, c4);
              std::memcpy(c_row + j, &c4, sizeof(c4));
            }
#endif
            for (; j < j_end; ++j) {
              c_row[j] = AddProductFirst(a_ip * b_row[j], c_row[j]);
            }
          }
        }
      }
    }
  }
}

// Worthwhile fan-out: more than one row tile and enough multiply-adds
// that the pool handoff is noise (~4M MACs).
bool WorthSharding(int64_t m, int64_t n, int64_t k) {
  return m > kTile && m * n * k >= (int64_t{1} << 22);
}

// `panels` (nullable) is A packed by PackBlockedPanels. The AVX2 tier
// reads A from it when C is narrow; both read the same values in the
// same order, and 64-row tiles start on a panel boundary.
void GemmBlocked(const float* a, const float* panels, const float* b,
                 float* c, int64_t m, int64_t n, int64_t k,
                 util::ThreadPool* pool) {
  auto compute_rows = [&](int64_t row0, int64_t row1) {
    if (panels != nullptr && n < internal::kBlockedPanelRows &&
        GemmBlockedAccelerated()) {
      internal::GemmBlockedAvx2Panels(panels, b, c, row0, row1, n, k);
    } else {
      GemmBlockedRows(a, b, c, row0, row1, n, k);
    }
  };
  if (pool == nullptr || !WorthSharding(m, n, k)) {
    compute_rows(0, m);
    return;
  }
  static obs::Counter& parallel_tiles =
      obs::Registry::Default().GetCounter("gemm.parallel_tiles");
  const size_t tiles = static_cast<size_t>((m + kTile - 1) / kTile);
  parallel_tiles.Add(tiles);
  pool->ParallelFor(tiles, [&](size_t t) {
    const int64_t row0 = static_cast<int64_t>(t) * kTile;
    compute_rows(row0, std::min(row0 + kTile, m));
  });
}

// Scalar twin of the AVX2 microkernel for C columns [j0, j1): each
// C[i][j] is one fused-multiply-add chain over p = 0..k-1. fmaf rounds
// once per step exactly like vfmadd, so this path is bitwise identical
// to the vector path — it serves both as the portable fallback and as
// the tail-column handler next to the 16-wide panels.
void GemmAvx2ScalarCols(const float* a, const float* b, float* c,
                        int64_t row0, int64_t row1, int64_t j0, int64_t j1,
                        int64_t n, int64_t k) {
  for (int64_t i = row0; i < row1; ++i) {
    const float* a_row = a + i * k;
    for (int64_t j = j0; j < j1; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc = std::fmaf(a_row[p], b[p * n + j], acc);
      }
      c[i * n + j] = acc;
    }
  }
}

// Scalar twin of the microkernel over a *packed* panel region: the
// same fmaf chain as GemmAvx2ScalarCols, addressed through the panel
// layout instead of row-major B. Serves the prepacked entry point when
// dispatch is forced scalar.
void GemmAvx2ScalarPanels(const float* a, const float* panels, float* c,
                          int64_t row0, int64_t row1, int64_t full_cols,
                          int64_t n, int64_t k) {
  for (int64_t i = row0; i < row1; ++i) {
    const float* a_row = a + i * k;
    for (int64_t j = 0; j < full_cols; ++j) {
      const int64_t panel = j / internal::kAvx2PanelCols;
      const int64_t lane = j % internal::kAvx2PanelCols;
      const float* bp = panels + panel * k * internal::kAvx2PanelCols + lane;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc = std::fmaf(a_row[p], bp[p * internal::kAvx2PanelCols], acc);
      }
      c[i * n + j] = acc;
    }
  }
}

// Tail columns of the packed layout (stored column-major after the
// panels): same fmaf chain again, so packed and unpacked kAvx2 agree
// bitwise on every column.
void GemmAvx2ScalarTail(const float* a, const float* tail, float* c,
                        int64_t row0, int64_t row1, int64_t full_cols,
                        int64_t n, int64_t k) {
  for (int64_t i = row0; i < row1; ++i) {
    const float* a_row = a + i * k;
    for (int64_t j = full_cols; j < n; ++j) {
      const float* b_col = tail + (j - full_cols) * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc = std::fmaf(a_row[p], b_col[p], acc);
      }
      c[i * n + j] = acc;
    }
  }
}

void GemmAvx2(const float* a, const float* b, float* c, int64_t m, int64_t n,
              int64_t k, util::ThreadPool* pool) {
  const int64_t full_cols =
      (n / internal::kAvx2PanelCols) * internal::kAvx2PanelCols;
  const bool vectorized = GemmAvx2Accelerated() && full_cols > 0;

  // Pack B's full panels once (column panels of 16, contiguous along
  // p) so the microkernel streams two cache lines per k step; shards
  // share the packed copy read-only. Scratch comes from the buffer
  // pool: a steady-state caller recycles the same chunk instead of
  // paying a heap round trip per call. (Constant operands skip this
  // entirely via GemmPrepacked.)
  util::PooledBuffer packed;
  if (vectorized) {
    packed = AcquireFloatScratch(static_cast<size_t>(full_cols * k));
    for (int64_t panel = 0; panel < full_cols / internal::kAvx2PanelCols;
         ++panel) {
      for (int64_t p = 0; p < k; ++p) {
        std::memcpy(
            FloatScratch(packed) + (panel * k + p) * internal::kAvx2PanelCols,
            b + p * n + panel * internal::kAvx2PanelCols,
            static_cast<size_t>(internal::kAvx2PanelCols) * sizeof(float));
      }
    }
  }

  auto compute_rows = [&](int64_t row0, int64_t row1) {
    if (vectorized) {
      internal::GemmAvx2KernelRows(a, FloatScratch(packed), c, row0, row1, n,
                                   k);
    } else if (full_cols > 0) {
      GemmAvx2ScalarCols(a, b, c, row0, row1, 0, full_cols, n, k);
    }
    if (full_cols < n) {
      GemmAvx2ScalarCols(a, b, c, row0, row1, full_cols, n, n, k);
    }
  };

  if (pool == nullptr || !WorthSharding(m, n, k)) {
    compute_rows(0, m);
    return;
  }
  static obs::Counter& parallel_tiles =
      obs::Registry::Default().GetCounter("gemm.parallel_tiles");
  const size_t tiles = static_cast<size_t>((m + kTile - 1) / kTile);
  parallel_tiles.Add(tiles);
  pool->ParallelFor(tiles, [&](size_t t) {
    const int64_t row0 = static_cast<int64_t>(t) * kTile;
    compute_rows(row0, std::min(row0 + kTile, m));
  });
}

// Four partial sums of one kTransposed output (baseline SSE on x86-64).
using TransposedLanes = float __attribute__((vector_size(16)));

// kTransposed's adds, x + y with x as the first source operand. Like
// NaiveAdd they pin the order GCC gave the one-output loop at -O2, and
// kTransposed keeps its own copy.
inline TransposedLanes TransposedAdd(TransposedLanes x, TransposedLanes y) {
#if defined(__SSE2__)
  asm("addps %1, %0" : "+x"(x) : "x"(y));
  return x;
#else
  return x + y;
#endif
}

inline float TransposedAdd(float x, float y) {
#if defined(__SSE2__)
  asm("addss %1, %0" : "+x"(x) : "x"(y));
  return x;
#else
  return x + y;
#endif
}

// kTransposed keeps this many outputs in flight, each a four-lane chain.
constexpr int kTransposedChains = 4;

// R outputs of the transposed backend over a column-major B (bt[j*k +
// p]): rows i..i+R-1 of column j (kRows), or columns j..j+R-1 of row i.
// Each output keeps four partial sums s0..s3 over p mod 4 in its own
// vector (s += b*a, accumulator first), then adds (s0+s1)+(s2+s3) as
// (s2+s3) + (s1+s0), each sum's left operand first, then the k mod 4
// remaining terms in order. A distinct accumulation order from the
// other backends.
template <int R, bool kRows>
void TransposedChains(const float* a, const float* bt, float* c, int64_t i,
                      int64_t j, int64_t n, int64_t k) {
  const float* a_rows[R];
  const float* b_cols[R];
  TransposedLanes s[R];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    a_rows[r] = a + (kRows ? i + r : i) * k;
    b_cols[r] = bt + (kRows ? j : j + r) * k;
    s[r] = TransposedLanes{};
  }
  int64_t p = 0;
  for (; p + 4 <= k; p += 4) {
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      TransposedLanes a4, b4;
      std::memcpy(&a4, a_rows[r] + p, sizeof(a4));
      std::memcpy(&b4, b_cols[r] + p, sizeof(b4));
      s[r] = TransposedAdd(s[r], b4 * a4);
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    float acc = TransposedAdd(TransposedAdd(s[r][2], s[r][3]),
                              TransposedAdd(s[r][1], s[r][0]));
    for (int64_t q = p; q < k; ++q) {
      acc = TransposedAdd(acc, a_rows[r][q] * b_cols[r][q]);
    }
    c[(kRows ? i + r : i) * n + (kRows ? j : j + r)] = acc;
  }
}

template <int R>
void TransposedRowBlocks(const float* a, const float* bt, float* c, int64_t i,
                         int64_t m, int64_t n, int64_t k) {
  for (; i + R <= m; i += R) {
    for (int64_t j = 0; j < n; ++j) {
      TransposedChains<R, true>(a, bt, c, i, j, n, k);
    }
  }
  if constexpr (R > 1) TransposedRowBlocks<R / 2>(a, bt, c, i, m, n, k);
}

template <int R>
void TransposedColumnBlocks(const float* a, const float* bt, float* c,
                            int64_t i, int64_t j, int64_t n, int64_t k) {
  for (; j + R <= n; j += R) TransposedChains<R, false>(a, bt, c, i, j, n, k);
  if constexpr (R > 1) TransposedColumnBlocks<R / 2>(a, bt, c, i, j, n, k);
}

// Inner product phase of the transposed backend over an already
// column-major B; shared by the per-call transpose path and the
// prepacked path. Rows in flight for convs, columns for an FC on a few
// requests.
void GemmTransposedFromBt(const float* a, const float* bt, float* c,
                          int64_t m, int64_t n, int64_t k) {
  if (m >= kTransposedChains) {
    TransposedRowBlocks<kTransposedChains>(a, bt, c, 0, m, n, k);
    return;
  }
  for (int64_t i = 0; i < m; ++i) {
    TransposedColumnBlocks<kTransposedChains>(a, bt, c, i, 0, n, k);
  }
}

void GemmTransposed(const float* a, const float* b, float* c, int64_t m,
                    int64_t n, int64_t k) {
  util::PooledBuffer bt = AcquireFloatScratch(static_cast<size_t>(n * k));
  float* btp = FloatScratch(bt);
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t j = 0; j < n; ++j) {
      btp[j * k + p] = b[p * n + j];
    }
  }
  GemmTransposedFromBt(a, btp, c, m, n, k);
}

// Packs B (presented through `get(p, j)`) into `backend`'s hot-path
// layout. One code path serves both row-major B and W^T-without-
// materializing sources.
template <typename Get>
PackedGemmB PackInto(GemmBackend backend, Get get, int64_t n, int64_t k,
                     util::BufferPool* pool) {
  PackedGemmB out;
  out.n = n;
  out.k = k;
  out.backend = backend;
  const size_t floats = static_cast<size_t>(n * k);
  out.storage = pool->Acquire(floats * sizeof(float));
  float* dst = reinterpret_cast<float*>(out.storage.data());
  switch (backend) {
    case GemmBackend::kNaive:
    case GemmBackend::kBlocked:
      for (int64_t p = 0; p < k; ++p) {
        for (int64_t j = 0; j < n; ++j) dst[p * n + j] = get(p, j);
      }
      break;
    case GemmBackend::kTransposed:
      for (int64_t j = 0; j < n; ++j) {
        for (int64_t p = 0; p < k; ++p) dst[j * k + p] = get(p, j);
      }
      break;
    case GemmBackend::kAvx2: {
      const int64_t full_cols =
          (n / internal::kAvx2PanelCols) * internal::kAvx2PanelCols;
      for (int64_t panel = 0; panel < full_cols / internal::kAvx2PanelCols;
           ++panel) {
        for (int64_t p = 0; p < k; ++p) {
          float* row = dst + (panel * k + p) * internal::kAvx2PanelCols;
          for (int64_t lane = 0; lane < internal::kAvx2PanelCols; ++lane) {
            row[lane] = get(p, panel * internal::kAvx2PanelCols + lane);
          }
        }
      }
      float* tail = dst + full_cols * k;
      for (int64_t j = full_cols; j < n; ++j) {
        for (int64_t p = 0; p < k; ++p) {
          tail[(j - full_cols) * k + p] = get(p, j);
        }
      }
      break;
    }
  }
  // Bind-time copies are data-plane work too; charging them here keeps
  // dataplane.bytes_copied honest about where bytes move (once per
  // bind, never per inference).
  util::CountDataPlaneCopy(floats * sizeof(float));
  return out;
}

void GemmAvx2Prepacked(const float* a, const PackedGemmB& packed, float* c,
                       int64_t m, util::ThreadPool* pool) {
  const int64_t n = packed.n, k = packed.k;
  const int64_t full_cols =
      (n / internal::kAvx2PanelCols) * internal::kAvx2PanelCols;
  const bool vectorized = GemmAvx2Accelerated() && full_cols > 0;
  const float* panels = packed.data();
  const float* tail = packed.data() + full_cols * k;

  auto compute_rows = [&](int64_t row0, int64_t row1) {
    if (vectorized) {
      internal::GemmAvx2KernelRows(a, panels, c, row0, row1, n, k);
    } else if (full_cols > 0) {
      GemmAvx2ScalarPanels(a, panels, c, row0, row1, full_cols, n, k);
    }
    if (full_cols < n) {
      GemmAvx2ScalarTail(a, tail, c, row0, row1, full_cols, n, k);
    }
  };

  if (pool == nullptr || !WorthSharding(m, n, k)) {
    compute_rows(0, m);
    return;
  }
  static obs::Counter& parallel_tiles =
      obs::Registry::Default().GetCounter("gemm.parallel_tiles");
  const size_t tiles = static_cast<size_t>((m + kTile - 1) / kTile);
  parallel_tiles.Add(tiles);
  pool->ParallelFor(tiles, [&](size_t t) {
    const int64_t row0 = static_cast<int64_t>(t) * kTile;
    compute_rows(row0, std::min(row0 + kTile, m));
  });
}

}  // namespace

PackedGemmB PackGemmB(GemmBackend backend, const float* b, int64_t n,
                      int64_t k, util::BufferPool* pool) {
  MVTEE_CHECK(n > 0 && k > 0 && pool != nullptr);
  return PackInto(
      backend, [&](int64_t p, int64_t j) { return b[p * n + j]; }, n, k,
      pool);
}

PackedGemmB PackGemmWeightTransposed(GemmBackend backend, const float* w,
                                     int64_t n, int64_t k,
                                     util::BufferPool* pool) {
  MVTEE_CHECK(n > 0 && k > 0 && pool != nullptr);
  return PackInto(
      backend, [&](int64_t p, int64_t j) { return w[j * k + p]; }, n, k,
      pool);
}

util::PooledBuffer PackBlockedPanels(const float* a, int64_t m, int64_t k,
                                     util::BufferPool* pool) {
  MVTEE_CHECK(m > 0 && k > 0 && pool != nullptr);
  constexpr int64_t kRows = internal::kBlockedPanelRows;
  const int64_t panels = (m + kRows - 1) / kRows;
  const size_t floats = static_cast<size_t>(panels * k * kRows);
  util::PooledBuffer out = pool->Acquire(floats * sizeof(float));
  float* dst = reinterpret_cast<float*>(out.data());
  for (int64_t q = 0; q < panels; ++q) {
    for (int64_t p = 0; p < k; ++p) {
      for (int64_t l = 0; l < kRows; ++l) {
        const int64_t row = q * kRows + l;
        dst[(q * k + p) * kRows + l] = row < m ? a[row * k + p] : 0.0f;
      }
    }
  }
  util::CountDataPlaneCopy(floats * sizeof(float));
  return out;
}

void GemmBlockedPacked(const float* a, const float* panels, const float* b,
                       float* c, int64_t m, int64_t n, int64_t k) {
  GemmBlocked(a, panels, b, c, m, n, k, &util::ThreadPool::Shared());
}

void GemmPrepacked(const float* a, const PackedGemmB& packed, float* c,
                   int64_t m) {
  GemmPrepacked(a, packed, c, m, &util::ThreadPool::Shared());
}

void GemmPrepacked(const float* a, const PackedGemmB& packed, float* c,
                   int64_t m, util::ThreadPool* pool) {
  MVTEE_CHECK(packed);
  switch (packed.backend) {
    case GemmBackend::kNaive:
      GemmNaive(a, packed.data(), c, m, packed.n, packed.k);
      return;
    case GemmBackend::kBlocked:
      GemmBlocked(a, nullptr, packed.data(), c, m, packed.n, packed.k, pool);
      return;
    case GemmBackend::kTransposed:
      GemmTransposedFromBt(a, packed.data(), c, m, packed.n, packed.k);
      return;
    case GemmBackend::kAvx2:
      GemmAvx2Prepacked(a, packed, c, m, pool);
      return;
  }
  MVTEE_CHECK(false);
}

void Gemm(GemmBackend backend, const float* a, const float* b, float* c,
          int64_t m, int64_t n, int64_t k) {
  Gemm(backend, a, b, c, m, n, k, &util::ThreadPool::Shared());
}

void Gemm(GemmBackend backend, const float* a, const float* b, float* c,
          int64_t m, int64_t n, int64_t k, util::ThreadPool* pool) {
  switch (backend) {
    case GemmBackend::kNaive: GemmNaive(a, b, c, m, n, k); return;
    case GemmBackend::kBlocked:
      GemmBlocked(a, nullptr, b, c, m, n, k, pool);
      return;
    case GemmBackend::kTransposed: GemmTransposed(a, b, c, m, n, k); return;
    case GemmBackend::kAvx2: GemmAvx2(a, b, c, m, n, k, pool); return;
  }
  MVTEE_CHECK(false);
}

void GemmChecked(GemmBackend backend, const float* a, size_t a_size,
                 const float* b, size_t b_size, float* c, size_t c_size,
                 int64_t m, int64_t n, int64_t k) {
  MVTEE_CHECK(m >= 0 && n >= 0 && k >= 0);
  // Adversarially large extents must not slip past the bounds check by
  // overflowing the products, so multiply with overflow detection and
  // abort on wrap — this function exists to catch exactly such inputs.
  int64_t mk = 0, kn = 0, mn = 0;
  MVTEE_CHECK(!__builtin_mul_overflow(m, k, &mk));
  MVTEE_CHECK(!__builtin_mul_overflow(k, n, &kn));
  MVTEE_CHECK(!__builtin_mul_overflow(m, n, &mn));
  MVTEE_CHECK(a_size >= static_cast<size_t>(mk));
  MVTEE_CHECK(b_size >= static_cast<size_t>(kn));
  MVTEE_CHECK(c_size >= static_cast<size_t>(mn));
  // With extents proven, reuse the unchecked kernels; the checked entry
  // point also pays a deliberate per-element validation pass to model
  // sanitizer-instrumented builds.
  float guard = 0.0f;
  for (size_t i = 0; i < static_cast<size_t>(mk); ++i) guard = guard + a[i] * 0.0f;
  for (size_t i = 0; i < static_cast<size_t>(kn); ++i) guard = guard + b[i] * 0.0f;
  static thread_local volatile float g_guard_sink [[maybe_unused]];
  g_guard_sink = guard;
  Gemm(backend, a, b, c, m, n, k);
}

}  // namespace mvtee::runtime
