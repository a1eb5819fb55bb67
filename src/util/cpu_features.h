// Runtime CPU feature detection and SIMD dispatch policy (DESIGN.md §10).
//
// The vectorized hot paths (AVX2/FMA GEMM, the AES-NI and VAES AES-GCM
// tiers) are compiled into dedicated translation units with per-file ISA
// flags and selected at runtime: a call site asks `UseAvx2Gemm()` /
// `UseAesGcmAccel()` on every dispatch. A dispatch decision composes
// three independent gates —
//   1. the binary carries the vector TU (per-arch CMake; the TU
//      self-reports via its Accelerated*() probe),
//   2. CPUID says the host executes the instructions,
//   3. the operator has not forced scalar via MVTEE_SIMD=0.
// The predicates here cover gates 2 and 3; call sites AND them with
// gate 1. Gate 3 exists so the scalar fallbacks stay first-class: CI
// runs the
// crypto/GEMM suites once natively and once under MVTEE_SIMD=0, and the
// ScopedForceScalar hook lets a single test process compare both paths
// bitwise.
#pragma once

#include <string>

namespace mvtee::util {

struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool aes = false;      // AES-NI
  bool pclmul = false;   // carry-less multiply (GHASH)
  bool ssse3 = false;    // pshufb, needed by the GCM byte-swap path
  bool avx512f = false;
  bool avx512bw = false;    // byte-granular masks (GCM wide-tier tails)
  bool vaes = false;        // AES rounds on 256/512-bit registers
  bool vpclmulqdq = false;  // carry-less multiply on 256/512-bit registers
};

// CPUID-derived features of this host, detected once per process.
const CpuFeatures& HostCpuFeatures();

// False when MVTEE_SIMD=0 is set (or a ScopedForceScalar is live):
// every accelerated path must fall back to its portable twin.
bool SimdEnabled();

// Dispatch predicates combining CPUID + SimdEnabled(); call sites AND
// them with their TU's compiled-in probe.
bool UseAvx2Gemm();
// AES-NI + PCLMUL + SSSE3: the floor of every accelerated GCM tier;
// crypto::SelectedGcmTier() picks the widest tier above it.
bool UseAesGcmAccel();
// Elementwise/activation kernels need AVX2 only (no FMA: their vector
// tier is written mul-then-add so it stays bitwise identical to the
// scalar TU, which cannot contract into fused multiply-adds).
bool UseAvx2Elementwise();

// Space-separated list of detected features ("avx2 fma aes pclmul ..."),
// or "scalar" when none — recorded into bench JSON so a baseline says
// what silicon produced it.
std::string CpuFeatureString();

// RAII test/bench hook: forces scalar dispatch process-wide while live,
// as if MVTEE_SIMD=0 had been set. Not reentrancy-counted — do not nest.
class ScopedForceScalar {
 public:
  ScopedForceScalar();
  ~ScopedForceScalar();
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;
};

}  // namespace mvtee::util
