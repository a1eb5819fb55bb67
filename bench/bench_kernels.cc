// Kernel-layer microbench (DESIGN.md §14): the three levers of the
// throughput pass, each against the path it replaced.
//
//   1. Prepacked GEMM: FullyConnected through a PackedWeightCache-style
//      PackedGemmB vs the self-contained path that re-derives the B
//      operand every call, per backend, on a serving-shaped m=1 FC.
//      Acceptance floor: >= 1.3x on kNaive (always) and on kAvx2 where
//      the vector kernel dispatches.
//   2. Conv scratch: direct loops vs im2col+GEMM on a 3x3 and a 1x1
//      (identity-cols fast path) layer, with a steady-state gate that
//      the pooled im2col/pack scratch takes zero fresh allocations
//      (BufferPool miss delta == 0 once warm).
//   2b. Depthwise lowering: MobileNetV3-shaped depthwise layers (3x3
//      s1, 3x3 s2, 5x5 s1 at the serving benchmark's scale) on naive,
//      blocked and transposed, the direct depthwise loops vs the same
//      conv as one groups=1 im2col conv per channel (the lowering they
//      replaced), outputs checked bitwise equal in-process.
//      Acceptance floor: >= 1.5x over the three layers on blocked.
//   3. Elementwise dispatch: relu / relu6 / hardswish / add / softmax
//      through the AVX2 tier vs util::ScopedForceScalar on L2-resident
//      arrays, asserting the outputs stay bitwise identical.
//      Acceptance floor: hardswish >= 1.2x where AVX2 dispatches.
//   4. Executor per-op cost: ns per executed op of Executor::Run over a
//      chain of 256 Relu nodes on a 16-float tensor, where kernel time
//      is small next to what every op pays on top of it: dispatch,
//      buffer reclamation and the executor.op.* instrumentation.
//      Report only, no floor.
//   5. Narrow-map convs: one-conv graphs through Executor::Run on the
//      shapes of the mvx panel stages (1x1 convs on 1x1 and 2x2 maps, a
//      5x5 depthwise conv on 1x1), per backend, with the pack cache on
//      and off. Report only, no floor; the outputs of cache on, cache
//      off and forced scalar are compared bitwise in-process and a
//      mismatch fails the run.
//
// Results go to stdout and to a JSON summary at $MVTEE_BENCH_JSON
// (default ./BENCH_kernels.json). Floors the host cannot fail are
// recorded as floor_applies=false + floor_waived=true, same convention
// as bench_data_plane.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "graph/builder.h"
#include "runtime/executor.h"
#include "runtime/gemm.h"
#include "runtime/kernels.h"
#include "runtime/pack_cache.h"
#include "tensor/tensor.h"
#include "util/buffer_pool.h"
#include "util/cpu_features.h"
#include "util/rng.h"

namespace mvtee::bench {
namespace {

using tensor::Shape;
using tensor::Tensor;

double MedianSeconds(std::vector<double> secs) {
  std::sort(secs.begin(), secs.end());
  return secs[secs.size() / 2];
}

template <typename Fn>
double TimeMedian(int reps, const Fn& fn) {
  std::vector<double> secs;
  secs.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = util::NowNanos();
    fn();
    secs.push_back(static_cast<double>(util::NowNanos() - t0) * 1e-9);
  }
  return MedianSeconds(std::move(secs));
}

// ------------------------------------------------- prepacked GEMM

struct PrepackResult {
  runtime::GemmBackend backend;
  int64_t m = 0, n = 0, k = 0;
  double repack_us = 0.0;     // FullyConnected, packed = nullptr
  double prepacked_us = 0.0;  // FullyConnected, bind-time PackedGemmB
  bool floor_applies = false;
  double speedup() const {
    return prepacked_us > 0 ? repack_us / prepacked_us : 0.0;
  }
};

PrepackResult RunPrepack(runtime::GemmBackend backend, int64_t m, int64_t n,
                         int64_t k) {
  util::Rng rng(static_cast<uint64_t>(n * 31 + k));
  const Tensor input = Tensor::RandomUniform(Shape({m, k}), rng);
  const Tensor weight = Tensor::RandomUniform(Shape({n, k}), rng);
  const Tensor bias = Tensor::RandomUniform(Shape({n}), rng);
  const runtime::PackedGemmB packed = runtime::PackGemmWeightTransposed(
      backend, weight.data(), n, k, &util::BufferPool::Default());

  PrepackResult out;
  out.backend = backend;
  out.m = m;
  out.n = n;
  out.k = k;

  auto repack = [&] {
    Tensor y = runtime::FullyConnected(input, weight, &bias, backend, nullptr);
    MVTEE_CHECK(y.shape().dim(0) == m);
  };
  auto prepacked = [&] {
    Tensor y = runtime::FullyConnected(input, weight, &bias, backend, &packed);
    MVTEE_CHECK(y.shape().dim(0) == m);
  };
  // Bitwise identity first (the cache only relocates values), then warm
  // the scratch pool so the timed loops measure reuse, not cold misses.
  {
    const Tensor a = runtime::FullyConnected(input, weight, &bias, backend,
                                             nullptr);
    const Tensor b = runtime::FullyConnected(input, weight, &bias, backend,
                                             &packed);
    MVTEE_CHECK(std::memcmp(a.data(), b.data(), a.byte_size()) == 0);
  }
  const int iters = 64;
  out.repack_us = TimeMedian(5, [&] {
                    for (int i = 0; i < iters; ++i) repack();
                  }) /
                  iters * 1e6;
  out.prepacked_us = TimeMedian(5, [&] {
                       for (int i = 0; i < iters; ++i) prepacked();
                     }) /
                     iters * 1e6;
  return out;
}

// ------------------------------------------------------------ conv

struct ConvResult {
  const char* label = "";
  double direct_us = 0.0;
  double im2col_us = 0.0;
  uint64_t warm_pool_misses = 0;  // fresh allocations once warm
  double ratio() const {
    return im2col_us > 0 ? direct_us / im2col_us : 0.0;
  }
};

ConvResult RunConv(const char* label, int64_t C, int64_t H, int64_t OC,
                   int64_t K, int64_t stride, int64_t padding,
                   runtime::GemmBackend gemm) {
  util::Rng rng(static_cast<uint64_t>(C * 131 + OC));
  const Tensor input = Tensor::RandomUniform(Shape({1, C, H, H}), rng);
  const Tensor weight = Tensor::RandomUniform(Shape({OC, C, K, K}), rng);
  const Tensor bias = Tensor::RandomUniform(Shape({OC}), rng);
  const runtime::ConvParams params{stride, padding, /*groups=*/1};

  ConvResult out;
  out.label = label;
  auto direct = [&] {
    runtime::Conv2d(input, weight, &bias, params, runtime::ConvAlgo::kDirect,
                    gemm);
  };
  auto im2col = [&] {
    runtime::Conv2d(input, weight, &bias, params, runtime::ConvAlgo::kIm2col,
                    gemm);
  };
  direct();  // warm
  im2col();  // warm scratch pool with this layer's im2col sizes

  const int iters = 8;
  const util::BufferPool::Stats warm = util::BufferPool::Default().stats();
  out.direct_us = TimeMedian(5, [&] {
                    for (int i = 0; i < iters; ++i) direct();
                  }) /
                  iters * 1e6;
  out.im2col_us = TimeMedian(5, [&] {
                    for (int i = 0; i < iters; ++i) im2col();
                  }) /
                  iters * 1e6;
  const util::BufferPool::Stats after = util::BufferPool::Default().stats();
  out.warm_pool_misses = after.misses - warm.misses;
  return out;
}

// ------------------------------------------------------- depthwise

struct DepthwiseResult {
  const char* label = "";
  runtime::GemmBackend backend = runtime::GemmBackend::kBlocked;
  double lowered_us = 0.0;      // Conv2d with groups == channels
  double per_channel_us = 0.0;  // one groups=1 im2col conv per channel
  bool bitwise_equal = false;
  double speedup() const {
    return lowered_us > 0 ? per_channel_us / lowered_us : 0.0;
  }
};

DepthwiseResult RunDepthwise(const char* label, int64_t C, int64_t H,
                             int64_t K, int64_t stride,
                             runtime::GemmBackend gemm) {
  util::Rng rng(static_cast<uint64_t>(C * 17 + H * 5 + K));
  const Tensor input = Tensor::RandomUniform(Shape({1, C, H, H}), rng);
  const Tensor weight = Tensor::RandomUniform(Shape({C, 1, K, K}), rng);
  const Tensor bias = Tensor::RandomUniform(Shape({C}), rng);
  const runtime::ConvParams params{stride, K / 2, /*groups=*/C};
  const runtime::ConvParams single{stride, K / 2, /*groups=*/1};
  // Per-channel operands are sliced once, outside the timed loop.
  std::vector<Tensor> xs, ws, bs;
  for (int64_t c = 0; c < C; ++c) {
    xs.emplace_back(Shape({1, 1, H, H}),
                    std::vector<float>(input.data() + c * H * H,
                                       input.data() + (c + 1) * H * H));
    ws.emplace_back(Shape({1, 1, K, K}),
                    std::vector<float>(weight.data() + c * K * K,
                                       weight.data() + (c + 1) * K * K));
    bs.emplace_back(Shape({1}), std::vector<float>{bias.data()[c]});
  }

  DepthwiseResult out;
  out.label = label;
  out.backend = gemm;
  auto lowered = [&] {
    return runtime::Conv2d(input, weight, &bias, params,
                           runtime::ConvAlgo::kIm2col, gemm);
  };
  auto per_channel = [&](std::vector<Tensor>* ys) {
    for (int64_t c = 0; c < C; ++c) {
      Tensor y = runtime::Conv2d(xs[static_cast<size_t>(c)],
                                 ws[static_cast<size_t>(c)],
                                 &bs[static_cast<size_t>(c)], single,
                                 runtime::ConvAlgo::kIm2col, gemm);
      if (ys != nullptr) ys->push_back(std::move(y));
    }
  };
  {
    const Tensor y = lowered();
    std::vector<Tensor> ys;
    per_channel(&ys);
    const size_t plane = static_cast<size_t>(ys[0].num_elements());
    out.bitwise_equal = true;
    for (int64_t c = 0; c < C; ++c) {
      out.bitwise_equal =
          out.bitwise_equal &&
          std::memcmp(y.data() + static_cast<size_t>(c) * plane,
                      ys[static_cast<size_t>(c)].data(),
                      plane * sizeof(float)) == 0;
    }
  }
  const int iters = 64;
  out.lowered_us = TimeMedian(7, [&] {
                     for (int i = 0; i < iters; ++i) lowered();
                   }) /
                   iters * 1e6;
  out.per_channel_us = TimeMedian(7, [&] {
                         for (int i = 0; i < iters; ++i) per_channel(nullptr);
                       }) /
                       iters * 1e6;
  return out;
}

// Below this the direct depthwise loop fails its floor on blocked.
constexpr double kDepthwiseFloor = 1.5;

// ------------------------------------------------------ elementwise

struct ElementwiseResult {
  const char* op = "";
  double bytes_per_call = 0.0;  // reads + writes
  double vector_gbps = 0.0;     // default dispatch
  double scalar_gbps = 0.0;     // under ScopedForceScalar
  bool dispatched = false;      // did the AVX2 tier actually run?
  double speedup() const {
    return scalar_gbps > 0 ? vector_gbps / scalar_gbps : 0.0;
  }
};

// `probe` returns the current output pointer (re-evaluated after each
// run: ops that hand back a fresh Tensor move their storage).
template <typename Fn, typename Probe>
ElementwiseResult RunElementwise(const char* op, double bytes_per_call,
                                 const Probe& probe, size_t probe_bytes,
                                 const Fn& fn) {
  ElementwiseResult out;
  out.op = op;
  out.bytes_per_call = bytes_per_call;
  out.dispatched = util::UseAvx2Elementwise();

  const int iters = 256;
  fn();  // warm
  std::vector<uint8_t> vector_probe(probe_bytes);
  std::memcpy(vector_probe.data(), probe(), probe_bytes);
  out.vector_gbps = bytes_per_call * iters /
                    TimeMedian(5, [&] {
                      for (int i = 0; i < iters; ++i) fn();
                    }) /
                    1e9;
  {
    util::ScopedForceScalar force_scalar;
    fn();
    // Dispatch is a speed decision, never a diversity axis: the scalar
    // twin must reproduce the vector tier bit for bit.
    MVTEE_CHECK(std::memcmp(vector_probe.data(), probe(), probe_bytes) == 0);
    out.scalar_gbps = bytes_per_call * iters /
                      TimeMedian(5, [&] {
                        for (int i = 0; i < iters; ++i) fn();
                      }) /
                      1e9;
  }
  return out;
}

// -------------------------------------------------- executor per op

constexpr int kChainOps = 256;

// Median ns per executed op of Executor::Run (reference preset) over a
// kChainOps-long Relu chain on a [1, 16] tensor.
double RunExecutorPerOp() {
  graph::ModelBuilder b(7);
  graph::NodeId x = b.Input("x", Shape({1, 16}));
  for (int i = 0; i < kChainOps; ++i) x = b.Relu(x);
  b.MarkOutput(x);
  auto exec = runtime::Executor::Create(b.Build(),
                                        runtime::ReferenceExecutorConfig());
  MVTEE_CHECK(exec.ok());
  util::Rng rng(9);
  const std::vector<Tensor> inputs = {
      Tensor::RandomUniform(Shape({1, 16}), rng)};
  auto run = [&] { MVTEE_CHECK((*exec)->Run(inputs).ok()); };
  run();  // warm the buffer pool
  const int iters = 16;
  return TimeMedian(31, [&] {
           for (int i = 0; i < iters; ++i) run();
         }) /
         (iters * kChainOps) * 1e9;
}

// ------------------------------------------------- narrow-map convs

struct NarrowResult {
  const char* layer = "";
  std::string preset;
  double cache_on_us = 0.0;   // per Executor::Run of the one-conv graph
  double cache_off_us = 0.0;  // under ScopedDisablePackCache
  bool bitwise_equal = false;
};

// Median us per Run of a graph holding one conv, input [1, C, H, H],
// `groups` groups, same padding.
NarrowResult RunNarrowConv(const char* layer, runtime::ExecutorConfig config,
                           int64_t C, int64_t H, int64_t OC, int64_t K,
                           int64_t groups) {
  graph::ModelBuilder b(11);
  graph::NodeId x = b.Input("x", Shape({1, C, H, H}));
  x = b.Conv(x, OC, K, 1, K / 2, groups, /*bias=*/true);
  b.MarkOutput(x);
  config.slowdown_factor = 1.0;  // time the kernels, not the sleep
  auto exec = runtime::Executor::Create(b.Build(), config);
  MVTEE_CHECK(exec.ok());
  util::Rng rng(static_cast<uint64_t>(C * 7 + OC));
  const std::vector<Tensor> inputs = {
      Tensor::RandomUniform(Shape({1, C, H, H}), rng)};
  auto run = [&] {
    auto out = (*exec)->Run(inputs);
    MVTEE_CHECK(out.ok());
    return std::move((*out)[0]);
  };

  NarrowResult r;
  r.layer = layer;
  r.preset = config.name;
  const Tensor on = run();
  Tensor off, scalar;
  {
    runtime::ScopedDisablePackCache cache_off;
    off = run();
  }
  {
    util::ScopedForceScalar force_scalar;
    scalar = run();
  }
  r.bitwise_equal =
      std::memcmp(on.data(), off.data(), on.byte_size()) == 0 &&
      std::memcmp(on.data(), scalar.data(), on.byte_size()) == 0;
  const int iters = 200;
  auto time_runs = [&] {
    return TimeMedian(15, [&] {
             for (int i = 0; i < iters; ++i) run();
           }) /
           iters * 1e6;
  };
  r.cache_on_us = time_runs();
  {
    runtime::ScopedDisablePackCache cache_off;
    r.cache_off_us = time_runs();
  }
  return r;
}

// --------------------------------------------------------------- main

const char* BackendName(runtime::GemmBackend b) {
  switch (b) {
    case runtime::GemmBackend::kNaive: return "naive";
    case runtime::GemmBackend::kBlocked: return "blocked";
    case runtime::GemmBackend::kTransposed: return "transposed";
    case runtime::GemmBackend::kAvx2: return "avx2";
  }
  return "unknown";
}

void WriteJson(const std::vector<PrepackResult>& packs,
               const std::vector<ConvResult>& convs,
               const std::vector<DepthwiseResult>& dws, double dw_blocked_x,
               const std::vector<ElementwiseResult>& elws,
               uint64_t steady_pool_misses, double executor_ns_per_op,
               const std::vector<NarrowResult>& narrow) {
  const char* path = std::getenv("MVTEE_BENCH_JSON");
  if (path == nullptr) path = "BENCH_kernels.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("could not open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"kernels\",\n");
  std::fprintf(f, "  \"cpu_features\": \"%s\",\n",
               util::CpuFeatureString().c_str());
  std::fprintf(f, "  \"gemm_prepack\": [\n");
  for (size_t i = 0; i < packs.size(); ++i) {
    const PrepackResult& r = packs[i];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"m\": %lld, \"n\": %lld, "
                 "\"k\": %lld, \"repack_us\": %.2f, \"prepacked_us\": %.2f, "
                 "\"speedup_x\": %.2f, \"floor_applies\": %s, "
                 "\"floor_waived\": %s}%s\n",
                 BackendName(r.backend), static_cast<long long>(r.m),
                 static_cast<long long>(r.n), static_cast<long long>(r.k),
                 r.repack_us, r.prepacked_us, r.speedup(),
                 r.floor_applies ? "true" : "false",
                 r.floor_applies ? "false" : "true",
                 i + 1 < packs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"conv\": [\n");
  for (size_t i = 0; i < convs.size(); ++i) {
    const ConvResult& r = convs[i];
    std::fprintf(f,
                 "    {\"layer\": \"%s\", \"direct_us\": %.2f, "
                 "\"im2col_us\": %.2f, \"direct_over_im2col_x\": %.2f, "
                 "\"warm_pool_misses\": %llu}%s\n",
                 r.label, r.direct_us, r.im2col_us, r.ratio(),
                 static_cast<unsigned long long>(r.warm_pool_misses),
                 i + 1 < convs.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"steady_state_pool_misses\": %llu,\n"
               "  \"depthwise\": [\n",
               static_cast<unsigned long long>(steady_pool_misses));
  for (size_t i = 0; i < dws.size(); ++i) {
    const DepthwiseResult& r = dws[i];
    std::fprintf(f,
                 "    {\"layer\": \"%s\", \"backend\": \"%s\", "
                 "\"lowered_us\": %.2f, \"per_channel_us\": %.2f, "
                 "\"speedup_x\": %.2f, \"bitwise_equal\": %s}%s\n",
                 r.label, BackendName(r.backend), r.lowered_us,
                 r.per_channel_us, r.speedup(),
                 r.bitwise_equal ? "true" : "false",
                 i + 1 < dws.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"depthwise_blocked_speedup_x\": %.2f,\n"
               "  \"depthwise_floor\": %.1f,\n"
               "  \"depthwise_floor_applies\": true,\n"
               "  \"depthwise_floor_waived\": false,\n"
               "  \"elementwise\": [\n",
               dw_blocked_x, kDepthwiseFloor);
  for (size_t i = 0; i < elws.size(); ++i) {
    const ElementwiseResult& r = elws[i];
    const bool floor_applies =
        r.dispatched && std::strcmp(r.op, "hardswish") == 0;
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"vector_gbps\": %.2f, "
                 "\"scalar_gbps\": %.2f, \"speedup_x\": %.2f, "
                 "\"dispatched\": %s, \"floor_applies\": %s, "
                 "\"floor_waived\": %s}%s\n",
                 r.op, r.vector_gbps, r.scalar_gbps, r.speedup(),
                 r.dispatched ? "true" : "false",
                 floor_applies ? "true" : "false",
                 floor_applies ? "false" : "true",
                 i + 1 < elws.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"executor_per_op\": {\"chain\": \"%d x relu [1,16]\", "
               "\"preset\": \"reference\", \"ns_per_op\": %.1f},\n"
               "  \"narrow_conv\": [\n",
               kChainOps, executor_ns_per_op);
  for (size_t i = 0; i < narrow.size(); ++i) {
    const NarrowResult& r = narrow[i];
    std::fprintf(f,
                 "    {\"layer\": \"%s\", \"preset\": \"%s\", "
                 "\"cache_on_us\": %.2f, \"cache_off_us\": %.2f, "
                 "\"bitwise_equal\": %s}%s\n",
                 r.layer, r.preset.c_str(), r.cache_on_us, r.cache_off_us,
                 r.bitwise_equal ? "true" : "false",
                 i + 1 < narrow.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

int Main() {
  PrintFigureHeader("Kernel layer",
                    "Prepacked constant-weight GEMM, pooled im2col "
                    "scratch, the depthwise lowering, and AVX2 elementwise "
                    "dispatch vs the paths they replaced");

  // 1. Prepacked vs per-call-repacked FullyConnected, serving shape
  //    (m=1 single-request inference; the pack cost the cache removes
  //    is n*k floats regardless of m).
  const bool avx2 = runtime::GemmAvx2Accelerated();
  std::printf("FC m=1 n=512 k=512 (prepacked vs per-call repack)\n");
  PrintRule();
  std::printf("%-10s | %10s %12s | %6s\n", "backend", "repack us",
              "prepacked us", "x");
  std::vector<PrepackResult> packs;
  for (auto backend :
       {runtime::GemmBackend::kNaive, runtime::GemmBackend::kBlocked,
        runtime::GemmBackend::kTransposed, runtime::GemmBackend::kAvx2}) {
    packs.push_back(RunPrepack(backend, 1, 512, 512));
    PrepackResult& r = packs.back();
    // The 1.3x floor binds on the scalar reference backend (kNaive,
    // host-independent) and on kAvx2 when the vector kernel dispatches;
    // kBlocked shares kNaive's layout and kTransposed's pack is a
    // straight copy of W, so those two are report-only.
    r.floor_applies =
        r.backend == runtime::GemmBackend::kNaive ||
        (r.backend == runtime::GemmBackend::kAvx2 && avx2);
    std::printf("%-10s | %10.2f %12.2f | %5.2fx%s\n", BackendName(r.backend),
                r.repack_us, r.prepacked_us, r.speedup(),
                !r.floor_applies         ? "  (report only)"
                : r.speedup() >= 1.3 ? ""
                                         : "  ** BELOW FLOOR **");
  }

  // 2. Conv direct vs im2col (diversity axis, report only) with the
  //    zero-fresh-allocation gate on the warm scratch pool.
  std::printf("\nConv2d direct vs im2col (pooled scratch)\n");
  PrintRule();
  std::printf("%-22s | %10s %10s | %6s | %s\n", "layer", "direct us",
              "im2col us", "d/i", "warm pool misses");
  auto base = MetricsBaseline();
  const runtime::GemmBackend conv_gemm =
      avx2 ? runtime::GemmBackend::kAvx2 : runtime::GemmBackend::kBlocked;
  std::vector<ConvResult> convs;
  convs.push_back(RunConv("3x3 s1 p1 16->32 @32", 16, 32, 32, 3, 1, 1,
                          conv_gemm));
  convs.push_back(RunConv("1x1 s1 p0 32->64 @16", 32, 16, 64, 1, 1, 0,
                          conv_gemm));
  uint64_t steady_pool_misses = 0;
  for (const ConvResult& r : convs) {
    steady_pool_misses += r.warm_pool_misses;
    std::printf("%-22s | %10.2f %10.2f | %5.2fx | %llu\n", r.label,
                r.direct_us, r.im2col_us, r.ratio(),
                static_cast<unsigned long long>(r.warm_pool_misses));
  }
  std::printf("steady-state fresh allocations: %llu (floor: 0)%s\n",
              static_cast<unsigned long long>(steady_pool_misses),
              steady_pool_misses == 0 ? "" : "  ** BELOW FLOOR **");
  obs::SyncDataPlaneMetrics();
  DumpMetricsJson("kernels/conv_steady_state", &base);

  // 2b. Depthwise lowering vs the per-channel im2col composition it
  //     replaced, at the serving benchmark's MobileNetV3 scale.
  std::printf("\nDepthwise Conv2d: direct loop vs per-channel im2col\n");
  PrintRule();
  std::printf("%-18s %-10s | %10s %14s | %6s | %s\n", "layer", "backend",
              "direct us", "per-channel us", "x", "bitwise");
  std::vector<DepthwiseResult> dws;
  double dw_blocked_lowered = 0.0, dw_blocked_per_channel = 0.0;
  bool dw_bits_ok = true;
  for (auto backend :
       {runtime::GemmBackend::kNaive, runtime::GemmBackend::kBlocked,
        runtime::GemmBackend::kTransposed}) {
    dws.push_back(RunDepthwise("3x3 s1 18ch @8", 18, 8, 3, 1, backend));
    dws.push_back(RunDepthwise("3x3 s2 16ch @16", 16, 16, 3, 2, backend));
    dws.push_back(RunDepthwise("5x5 s1 30ch @4", 30, 4, 5, 1, backend));
    for (size_t i = dws.size() - 3; i < dws.size(); ++i) {
      const DepthwiseResult& r = dws[i];
      dw_bits_ok = dw_bits_ok && r.bitwise_equal;
      if (backend == runtime::GemmBackend::kBlocked) {
        dw_blocked_lowered += r.lowered_us;
        dw_blocked_per_channel += r.per_channel_us;
      }
      std::printf("%-18s %-10s | %10.2f %14.2f | %5.2fx | %s\n", r.label,
                  BackendName(r.backend), r.lowered_us, r.per_channel_us,
                  r.speedup(), r.bitwise_equal ? "equal" : "** DIFFERS **");
    }
  }
  const double dw_blocked_x = dw_blocked_lowered > 0
                                  ? dw_blocked_per_channel / dw_blocked_lowered
                                  : 0.0;
  std::printf("blocked, three layers: %.2fx (floor: %.1fx)%s\n",
              dw_blocked_x, kDepthwiseFloor,
              dw_blocked_x >= kDepthwiseFloor ? "" : "  ** BELOW FLOOR **");

  // 3. Elementwise AVX2 tier vs forced-scalar, L2-resident arrays.
  const size_t n = 64 << 10;  // 256 KiB per array
  util::Rng rng(5);
  std::vector<float> x(n), y(n), z(n);
  for (auto& v : x) v = rng.UniformFloat(-8.0f, 8.0f);
  for (auto& v : y) v = rng.UniformFloat(-8.0f, 8.0f);
  const size_t probe_bytes = n * sizeof(float);
  const Tensor sm_in = Tensor::RandomUniform(Shape({64, 1024}), rng);
  Tensor sm_out = runtime::Softmax(sm_in);

  std::printf("\nElementwise %zuK floats, AVX2 dispatch vs forced scalar\n",
              n >> 10);
  PrintRule();
  std::printf("%-10s | %10s %10s | %6s\n", "op", "simd GB/s", "scalar GB/s",
              "x");
  std::vector<ElementwiseResult> elws;
  const auto z_probe = [&] { return z.data(); };
  elws.push_back(RunElementwise("relu", 2.0 * probe_bytes, z_probe,
                                probe_bytes, [&] {
                                  runtime::elementwise::Relu(x.data(),
                                                             z.data(), n);
                                }));
  elws.push_back(RunElementwise("relu6", 2.0 * probe_bytes, z_probe,
                                probe_bytes, [&] {
                                  runtime::elementwise::Relu6(x.data(),
                                                              z.data(), n);
                                }));
  elws.push_back(RunElementwise("hardswish", 2.0 * probe_bytes, z_probe,
                                probe_bytes, [&] {
                                  runtime::elementwise::HardSwish(
                                      x.data(), z.data(), n);
                                }));
  elws.push_back(RunElementwise("add", 3.0 * probe_bytes, z_probe,
                                probe_bytes, [&] {
                                  runtime::elementwise::Add(
                                      x.data(), y.data(), z.data(), n);
                                }));
  elws.push_back(RunElementwise(
      "softmax", 2.0 * static_cast<double>(sm_in.byte_size()),
      [&] { return sm_out.data(); }, sm_out.byte_size(),
      [&] { sm_out = runtime::Softmax(sm_in); }));
  bool elw_ok = true;
  for (const ElementwiseResult& r : elws) {
    const bool floor_applies =
        r.dispatched && std::strcmp(r.op, "hardswish") == 0;
    if (floor_applies && r.speedup() < 1.2) elw_ok = false;
    std::printf("%-10s | %10.2f %10.2f | %5.2fx%s\n", r.op, r.vector_gbps,
                r.scalar_gbps, r.speedup(),
                !floor_applies         ? ""
                : r.speedup() >= 1.2 ? ""
                                       : "  ** BELOW FLOOR **");
  }

  // 4. Executor per-op overhead (report only).
  const double executor_ns_per_op = RunExecutorPerOp();
  std::printf("\nExecutor::Run, %d x relu on [1,16], reference preset\n",
              kChainOps);
  PrintRule();
  std::printf("ns per executed op: %.1f  (report only)\n",
              executor_ns_per_op);

  // 5. Narrow-map convs (report only; bitwise checked).
  std::printf("\nNarrow-map convs, one-conv graph per Executor::Run\n");
  PrintRule();
  std::printf("%-24s %-9s | %11s %12s | %s\n", "layer", "preset",
              "cache on us", "cache off us", "bitwise");
  std::vector<NarrowResult> narrow;
  bool narrow_bits_ok = true;
  for (const runtime::ExecutorConfig& config :
       {runtime::OrtLikeExecutorConfig(), runtime::TvmLikeExecutorConfig(),
        runtime::HardenedExecutorConfig()}) {
    narrow.push_back(
        RunNarrowConv("1x1 240->320 @1x1", config, 240, 1, 320, 1, 1));
    narrow.push_back(
        RunNarrowConv("1x1 40->240 @1x1", config, 40, 1, 240, 1, 1));
    narrow.push_back(
        RunNarrowConv("1x1 32->192 @2x2", config, 32, 2, 192, 1, 1));
    narrow.push_back(
        RunNarrowConv("dw 5x5 240ch @1x1", config, 240, 1, 240, 5, 240));
  }
  for (const NarrowResult& r : narrow) {
    narrow_bits_ok = narrow_bits_ok && r.bitwise_equal;
    std::printf("%-24s %-9s | %11.2f %12.2f | %s\n", r.layer, r.preset.c_str(),
                r.cache_on_us, r.cache_off_us,
                r.bitwise_equal ? "equal" : "** DIFFERS **");
  }

  WriteJson(packs, convs, dws, dw_blocked_x, elws, steady_pool_misses,
            executor_ns_per_op, narrow);
  bool pack_ok = true;
  for (const PrepackResult& r : packs) {
    if (r.floor_applies && r.speedup() < 1.3) pack_ok = false;
  }
  const bool ok = pack_ok && steady_pool_misses == 0 && elw_ok &&
                  dw_bits_ok && dw_blocked_x >= kDepthwiseFloor &&
                  narrow_bits_ok;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace mvtee::bench

int main() { return mvtee::bench::Main(); }
