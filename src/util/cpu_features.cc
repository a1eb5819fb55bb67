#include "util/cpu_features.h"

#include <atomic>
#include <cstdlib>

#include "util/knobs.h"

namespace mvtee::util {

namespace {

CpuFeatures Detect() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  f.avx2 = __builtin_cpu_supports("avx2");
  f.fma = __builtin_cpu_supports("fma");
  f.aes = __builtin_cpu_supports("aes");
  f.pclmul = __builtin_cpu_supports("pclmul");
  f.ssse3 = __builtin_cpu_supports("ssse3");
  f.avx512f = __builtin_cpu_supports("avx512f");
  f.avx512bw = __builtin_cpu_supports("avx512bw");
  f.vaes = __builtin_cpu_supports("vaes");
  f.vpclmulqdq = __builtin_cpu_supports("vpclmulqdq");
#endif
  return f;
}

bool SimdEnabledFromEnv() {
  // Strict 0/1 via the knob table; malformed values warn and keep
  // dispatch on (the registered default).
  return KnobRegistry::Default().Int("MVTEE_SIMD") != 0;
}

// Tri-state so ScopedForceScalar can restore the env-derived default.
std::atomic<bool> g_force_scalar{false};

}  // namespace

const CpuFeatures& HostCpuFeatures() {
  static const CpuFeatures features = Detect();
  return features;
}

bool SimdEnabled() {
  static const bool env_enabled = SimdEnabledFromEnv();
  return env_enabled && !g_force_scalar.load(std::memory_order_relaxed);
}

bool UseAvx2Gemm() {
  const CpuFeatures& f = HostCpuFeatures();
  return f.avx2 && f.fma && SimdEnabled();
}

bool UseAesGcmAccel() {
  const CpuFeatures& f = HostCpuFeatures();
  return f.aes && f.pclmul && f.ssse3 && SimdEnabled();
}

bool UseAvx2Elementwise() {
  return HostCpuFeatures().avx2 && SimdEnabled();
}

std::string CpuFeatureString() {
  const CpuFeatures& f = HostCpuFeatures();
  std::string out;
  auto add = [&](bool has, const char* name) {
    if (!has) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  add(f.avx2, "avx2");
  add(f.fma, "fma");
  add(f.aes, "aes");
  add(f.pclmul, "pclmul");
  add(f.ssse3, "ssse3");
  add(f.avx512f, "avx512f");
  add(f.avx512bw, "avx512bw");
  add(f.vaes, "vaes");
  add(f.vpclmulqdq, "vpclmulqdq");
  if (out.empty()) out = "scalar";
  return out;
}

ScopedForceScalar::ScopedForceScalar() {
  g_force_scalar.store(true, std::memory_order_relaxed);
}

ScopedForceScalar::~ScopedForceScalar() {
  g_force_scalar.store(false, std::memory_order_relaxed);
}

}  // namespace mvtee::util
