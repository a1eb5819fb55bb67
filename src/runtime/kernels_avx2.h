// Internal interface of the AVX2 elementwise kernel TU (kernels_avx2.cc).
//
// kernels_avx2.cc is compiled with -mavx2 and deliberately WITHOUT
// -mfma: every operation here (compare/blend, min/max, add, mul, div)
// rounds exactly once per element, and with contraction impossible the
// vector tier is bitwise identical to the scalar fallbacks in
// kernels.cc for every input — including NaN and signed-zero corners,
// which the intrinsic operand orders below are chosen to reproduce.
// Dispatch (util::UseAvx2Elementwise) is therefore a speed decision,
// never a diversity axis, same rule as the GEMM microkernel.
//
// The blocked GEMM backend's vector tier lives here for the same
// reason: its contract is the scalar loop nest's mul-then-add order,
// which an FMA-enabled TU could contract away.
//
// Softmax's exp and double-precision sum passes intentionally stay
// scalar in kernels.cc: libm's exp has no vector twin with identical
// rounding, and changing it would alter every variant's numeric
// profile. Only the max pass and the final normalize pass (pure
// single-rounding ops) are vectorized.
#pragma once

#include <cstdint>

namespace mvtee::runtime::internal {

// True when this binary carries the vector elementwise kernels.
bool Avx2ElementwiseCompiled();

// The dispatch gate for every kernel below: compiled in, and the host
// and policy allow SIMD (util::UseAvx2Elementwise). Evaluated per call
// (SimdEnabled is dynamic under ScopedForceScalar). Defined in
// kernels.cc, outside this TU, so probing it never runs AVX2 code.
bool UseAvx2ElementwiseTier();

// All kernels tolerate exact aliasing (in == out).
void ReluAvx2(const float* in, float* out, int64_t n);
void Relu6Avx2(const float* in, float* out, int64_t n);
void HardSwishAvx2(const float* in, float* out, int64_t n);
void AddAvx2(const float* a, const float* b, float* out, int64_t n);
// out[i] = in[i] + s — the conv bias-scatter shape.
void AddScalarAvx2(const float* in, float s, float* out, int64_t n);
// out[i] = in[i] * alpha + beta (mul then add, never fused).
void ScaleAvx2(const float* in, float alpha, float beta, float* out,
               int64_t n);
// Max over x[0..n) (n >= 1). Matches the sequential scalar reduction
// bitwise for finite inputs (max is exact and order-independent); the
// Softmax caller is insensitive to the ±0 corner because exp(±0) == 1.
float MaxReduceAvx2(const float* x, int64_t n);
void MulScalarAvx2(float* data, float s, int64_t n);

// Blocked-backend GEMM tier: C rows [row0, row1) of C[M,N] = A[M,K] x
// B[K,N], row-major B. Each C element is ((+0 + a0*b0) + a1*b1) + ...
// in k order, vmulps then vaddps with the product as the add's first
// source operand — bit for bit what GemmBlockedRows' scalar loop nest
// computes, NaN payloads included. Register tiles of 4x16 with 4x8 and
// 1x8 edges; column tails use masked loads/stores of the same tiles.
void GemmBlockedAvx2Rows(const float* a, const float* b, float* c,
                         int64_t row0, int64_t row1, int64_t n, int64_t k);

// Rows of A per kBlocked weight panel: one AVX2 vector of output rows.
constexpr int64_t kBlockedPanelRows = 8;

// The same tier for a narrow C (1 <= n < 8: convs whose output map has
// fewer than 8 pixels), with A read from 8-row panels (PackBlockedPanels
// in gemm.h) instead of row-major: output rows go in lanes. Per k step,
// one load of 8 packed weights per panel and one broadcast per column;
// ceil(8/n) panels run at once, so at least 8 chains are in flight. C
// rows [row0, row1), row0 a multiple of 8. Each element is the same
// chain, bit for bit.
void GemmBlockedAvx2Panels(const float* panels, const float* b, float* c,
                           int64_t row0, int64_t row1, int64_t n, int64_t k);

}  // namespace mvtee::runtime::internal
