#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>

#include "graph/builder.h"
#include "graph/model_zoo.h"
#include "obs/metrics.h"
#include "runtime/executor.h"
#include "runtime/gemm.h"
#include "runtime/kernels.h"
#include "runtime/pack_cache.h"
#include "util/buffer_pool.h"
#include "util/clock.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "tricky_floats.h"

namespace mvtee::runtime {
namespace {

using graph::Graph;
using graph::ModelBuilder;
using graph::NodeId;
using tensor::AllClose;
using tensor::CosineSimilarity;
using tensor::MaxAbsDiff;
using tensor::Shape;
using tensor::Tensor;

// ------------------------------------------------------------------- GEMM

class GemmBackendTest : public ::testing::TestWithParam<GemmBackend> {};

TEST_P(GemmBackendTest, SmallKnownProduct) {
  // A = [[1,2],[3,4]], B = [[5,6],[7,8]] -> C = [[19,22],[43,50]]
  const float a[] = {1, 2, 3, 4};
  const float b[] = {5, 6, 7, 8};
  float c[4] = {};
  Gemm(GetParam(), a, b, c, 2, 2, 2);
  EXPECT_FLOAT_EQ(c[0], 19);
  EXPECT_FLOAT_EQ(c[1], 22);
  EXPECT_FLOAT_EQ(c[2], 43);
  EXPECT_FLOAT_EQ(c[3], 50);
}

TEST_P(GemmBackendTest, IdentityMatrix) {
  const int64_t n = 17;
  std::vector<float> eye(n * n, 0.0f), x(n * n), out(n * n);
  for (int64_t i = 0; i < n; ++i) eye[i * n + i] = 1.0f;
  util::Rng rng(3);
  for (auto& v : x) v = rng.UniformFloat(-1, 1);
  Gemm(GetParam(), eye.data(), x.data(), out.data(), n, n, n);
  for (int64_t i = 0; i < n * n; ++i) EXPECT_FLOAT_EQ(out[i], x[i]);
}

TEST_P(GemmBackendTest, NonSquareAndOddSizes) {
  // Verify against naive for irregular shapes (exercises tile edges).
  for (auto [m, n, k] : std::vector<std::tuple<int, int, int>>{
           {1, 1, 1}, {3, 5, 7}, {65, 63, 66}, {128, 1, 130}}) {
    std::vector<float> a(m * k), b(k * n), c(m * n), ref(m * n);
    util::Rng rng(m * 1000 + n * 100 + k);
    for (auto& v : a) v = rng.UniformFloat(-1, 1);
    for (auto& v : b) v = rng.UniformFloat(-1, 1);
    Gemm(GetParam(), a.data(), b.data(), c.data(), m, n, k);
    Gemm(GemmBackend::kNaive, a.data(), b.data(), ref.data(), m, n, k);
    for (int i = 0; i < m * n; ++i) {
      EXPECT_NEAR(c[i], ref[i], 1e-4) << "backend "
                                      << GemmBackendName(GetParam());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, GemmBackendTest,
                         ::testing::Values(GemmBackend::kNaive,
                                           GemmBackend::kBlocked,
                                           GemmBackend::kTransposed,
                                           GemmBackend::kAvx2),
                         [](const auto& info) {
                           return std::string(GemmBackendName(info.param));
                         });

TEST(GemmAvx2Test, DispatchPathsAreBitwiseIdentical) {
  // The whole point of the scalar fallbacks: MVTEE_SIMD=0 (or a host
  // without AVX2) must produce the exact same bits as the vector
  // kernels, NaN payloads included, so dispatch is a speed decision and
  // never a diversity axis. kAvx2 pairs its FMA microkernel with an
  // fmaf chain; kBlocked pairs its register tiles with the scalar loop
  // nest. The grid reaches every tile edge of both: kAvx2's 6-row
  // microkernel and its 1-5 row remainders (m mod 6), the blocked tier's
  // 4-row blocks plus 1-3 leftover rows, 8-row blocks of narrow C, 16-
  // and 8-wide column tiles and masked column tails. Each grid shape
  // runs twice: on TrickyFloats() operands for the specials (at k = 66
  // nearly every output is then non-finite), and on finite operands so
  // long finite chains are compared too. The last five shapes, finite
  // only, span several kAvx2 panels and the loop nest's 64-wide tiles.
  const std::vector<float> tricky = TrickyFloats();
  util::Rng rng(0xa2f);
  std::vector<std::tuple<int, int, int, bool>> cases;
  for (int m : {1, 2, 3, 4, 5, 6, 9, 11, 19}) {
    for (int n : {1, 7, 8, 9, 15, 16, 17, 63}) {
      for (int k : {1, 9, 66}) {
        cases.emplace_back(m, n, k, true);
        cases.emplace_back(m, n, k, false);
      }
    }
  }
  for (auto [m, n, k] : std::vector<std::tuple<int, int, int>>{
           {3, 5, 7}, {6, 16, 4}, {17, 16, 9}, {65, 63, 66}, {64, 48, 32}}) {
    cases.emplace_back(m, n, k, false);
  }
  for (GemmBackend backend : {GemmBackend::kAvx2, GemmBackend::kBlocked}) {
    for (auto [m, n, k, specials] : cases) {
      std::vector<float> a(static_cast<size_t>(m) * k),
          b(static_cast<size_t>(k) * n);
      for (std::vector<float>* v : {&a, &b}) {
        for (auto& x : *v) {
          x = specials ? tricky[static_cast<size_t>(rng.UniformInt(
                             0, static_cast<int64_t>(tricky.size()) - 1))]
                       : rng.UniformFloat(-1, 1);
        }
      }
      std::vector<float> fast(static_cast<size_t>(m) * n, -1.0f);
      std::vector<float> scalar(static_cast<size_t>(m) * n, 1.0f);
      Gemm(backend, a.data(), b.data(), fast.data(), m, n, k);
      {
        util::ScopedForceScalar force_scalar;
        ASSERT_FALSE(GemmAvx2Accelerated());
        ASSERT_FALSE(GemmBlockedAccelerated());
        Gemm(backend, a.data(), b.data(), scalar.data(), m, n, k);
      }
      ASSERT_EQ(std::memcmp(fast.data(), scalar.data(),
                            fast.size() * sizeof(float)),
                0)
          << GemmBackendName(backend) << " " << m << "x" << n << "x" << k
          << (specials ? " specials" : " finite");
    }
  }
}

// DESIGN.md section 10's accumulation order for one output C[i][j] of
// `backend`, one term at a time in plain C++: what every loop nest,
// vector tier and interleaving of chains must reproduce on finite data.
float OracleOutput(GemmBackend backend, const float* a_row, const float* b,
                   int64_t n, int64_t j, int64_t k) {
  auto term = [&](int64_t p) { return a_row[p] * b[p * n + j]; };
  int64_t p = 0;
  float acc = 0.0f;
  if (backend == GemmBackend::kTransposed) {
    float s[4] = {0.0f, 0.0f, 0.0f, 0.0f};
    for (; p + 4 <= k; p += 4) {
      for (int64_t l = 0; l < 4; ++l) s[l] = s[l] + term(p + l);
    }
    acc = (s[0] + s[1]) + (s[2] + s[3]);
  }
  for (; p < k; ++p) acc = acc + term(p);
  return acc;
}

TEST(GemmOrderTest, EveryBackendMatchesItsScalarOracle) {
  // m, n, k over {1, 7, 8, 9, 15, 33} reach every block edge: kNaive's
  // 8, 4, 2 and 1 chains of rows or columns (15 = 8 + 4 + 2 + 1),
  // kTransposed's 4, 2 and 1, and kBlocked's tiles, masked tails and
  // 8-row weight panels (through GemmBlockedPacked), with SIMD dispatch
  // on and forced off.
  util::Rng rng(0x0dde);
  const int64_t sizes[] = {1, 7, 8, 9, 15, 33};
  for (int64_t m : sizes) {
    for (int64_t n : sizes) {
      for (int64_t k : sizes) {
        std::vector<float> a(static_cast<size_t>(m * k)),
            b(static_cast<size_t>(k * n));
        for (auto& v : a) v = rng.UniformFloat(-1, 1);
        for (auto& v : b) v = rng.UniformFloat(-1, 1);
        const util::PooledBuffer panels =
            PackBlockedPanels(a.data(), m, k, &util::BufferPool::Default());
        for (bool force_scalar : {false, true}) {
          std::unique_ptr<util::ScopedForceScalar> scalar;
          if (force_scalar) scalar = std::make_unique<util::ScopedForceScalar>();
          for (GemmBackend backend : {GemmBackend::kNaive, GemmBackend::kBlocked,
                                      GemmBackend::kTransposed}) {
            std::vector<float> oracle(static_cast<size_t>(m * n));
            for (int64_t i = 0; i < m; ++i) {
              for (int64_t j = 0; j < n; ++j) {
                oracle[static_cast<size_t>(i * n + j)] =
                    OracleOutput(backend, a.data() + i * k, b.data(), n, j, k);
              }
            }
            std::vector<float> c(oracle.size(), -1.0f);
            Gemm(backend, a.data(), b.data(), c.data(), m, n, k);
            const std::string where =
                std::string(GemmBackendName(backend)) + " " +
                std::to_string(m) + "x" + std::to_string(n) + "x" +
                std::to_string(k) + (force_scalar ? " scalar" : "");
            EXPECT_EQ(std::memcmp(c.data(), oracle.data(),
                                  c.size() * sizeof(float)),
                      0)
                << where;
            if (backend != GemmBackend::kBlocked) continue;
            std::fill(c.begin(), c.end(), -1.0f);
            GemmBlockedPacked(a.data(),
                              reinterpret_cast<const float*>(panels.data()),
                              b.data(), c.data(), m, n, k);
            EXPECT_EQ(std::memcmp(c.data(), oracle.data(),
                                  c.size() * sizeof(float)),
                      0)
                << where << " packed";
          }
        }
      }
    }
  }
}

TEST(GemmAvx2Test, ParallelBitwiseIdenticalToSerial) {
  util::Rng rng(0x517);
  util::ThreadPool pool(4);
  for (auto [m, n, k] : std::vector<std::tuple<int, int, int>>{
           {128, 128, 128}, {200, 96, 160}, {257, 129, 70}}) {
    std::vector<float> a(static_cast<size_t>(m) * k),
        b(static_cast<size_t>(k) * n);
    for (auto& v : a) v = rng.UniformFloat(-0.5f, 0.5f);
    for (auto& v : b) v = rng.UniformFloat(-0.5f, 0.5f);
    std::vector<float> serial(static_cast<size_t>(m) * n);
    std::vector<float> parallel(static_cast<size_t>(m) * n);
    Gemm(GemmBackend::kAvx2, a.data(), b.data(), serial.data(), m, n, k,
         nullptr);
    Gemm(GemmBackend::kAvx2, a.data(), b.data(), parallel.data(), m, n, k,
         &pool);
    ASSERT_EQ(std::memcmp(serial.data(), parallel.data(),
                          serial.size() * sizeof(float)),
              0)
        << m << "x" << n << "x" << k;
  }
}

TEST(GemmAvx2Test, CloseToNaiveButDistinctRoundingProfile) {
  // kAvx2 is the fourth diversity backend: numerically close to naive
  // (threshold voting tolerates it) while its FMA accumulation gives a
  // different bit pattern on deep reductions.
  const int m = 64, n = 64, k = 512;
  util::Rng rng(0xbeef);
  std::vector<float> a(static_cast<size_t>(m) * k),
      b(static_cast<size_t>(k) * n);
  for (auto& v : a) v = rng.UniformFloat(-1, 1);
  for (auto& v : b) v = rng.UniformFloat(-1, 1);
  std::vector<float> avx2(static_cast<size_t>(m) * n),
      naive(static_cast<size_t>(m) * n);
  Gemm(GemmBackend::kAvx2, a.data(), b.data(), avx2.data(), m, n, k);
  Gemm(GemmBackend::kNaive, a.data(), b.data(), naive.data(), m, n, k);
  float max_diff = 0;
  for (size_t i = 0; i < avx2.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(avx2[i] - naive[i]));
  }
  EXPECT_LT(max_diff, 1e-3f);
  EXPECT_NE(avx2, naive);  // fused rounding differs from two-step
}

TEST(GemmParallelTest, BitwiseIdenticalToSerial) {
  util::Rng rng(0x6e3a);
  util::ThreadPool pool(4);
  // Sizes straddling the sharding threshold, including non-multiples of
  // the 64-row tile; each output row's accumulation order is shard-
  // independent, so parallel results must match serial ones bit for bit.
  const int64_t sizes[][3] = {
      {65, 64, 64}, {128, 128, 128}, {200, 96, 160}, {257, 129, 70}};
  for (const auto& [m, n, k] : sizes) {
    std::vector<float> a(static_cast<size_t>(m * k)),
        b(static_cast<size_t>(k * n));
    for (auto& v : a) v = rng.UniformFloat(-0.5f, 0.5f);
    for (auto& v : b) v = rng.UniformFloat(-0.5f, 0.5f);
    std::vector<float> serial(static_cast<size_t>(m * n), -1.0f);
    std::vector<float> parallel(static_cast<size_t>(m * n), 1.0f);
    Gemm(GemmBackend::kBlocked, a.data(), b.data(), serial.data(), m, n, k,
         nullptr);
    Gemm(GemmBackend::kBlocked, a.data(), b.data(), parallel.data(), m, n, k,
         &pool);
    ASSERT_EQ(std::memcmp(serial.data(), parallel.data(),
                          serial.size() * sizeof(float)),
              0)
        << m << "x" << n << "x" << k;
  }
}

TEST(GemmParallelTest, SharedPoolDefaultMatchesSerial) {
  util::Rng rng(0x77);
  const int64_t m = 192, n = 80, k = 300;  // above the fan-out threshold
  std::vector<float> a(static_cast<size_t>(m * k)),
      b(static_cast<size_t>(k * n));
  for (auto& v : a) v = rng.UniformFloat(-0.5f, 0.5f);
  for (auto& v : b) v = rng.UniformFloat(-0.5f, 0.5f);
  std::vector<float> serial(static_cast<size_t>(m * n));
  std::vector<float> pooled(static_cast<size_t>(m * n));
  Gemm(GemmBackend::kBlocked, a.data(), b.data(), serial.data(), m, n, k,
       nullptr);
  Gemm(GemmBackend::kBlocked, a.data(), b.data(), pooled.data(), m, n, k);
  EXPECT_EQ(std::memcmp(serial.data(), pooled.data(),
                        serial.size() * sizeof(float)),
            0);
}

TEST(GemmCheckedTest, MatchesUnchecked) {
  std::vector<float> a(6), b(6), c1(4), c2(4);
  util::Rng rng(1);
  for (auto& v : a) v = rng.UniformFloat(-1, 1);
  for (auto& v : b) v = rng.UniformFloat(-1, 1);
  Gemm(GemmBackend::kBlocked, a.data(), b.data(), c1.data(), 2, 2, 3);
  GemmChecked(GemmBackend::kBlocked, a.data(), a.size(), b.data(), b.size(),
              c2.data(), c2.size(), 2, 2, 3);
  EXPECT_EQ(c1, c2);
}

TEST(GemmCheckedDeathTest, DimensionProductOverflowAborts) {
  // Regression: m*k near INT64_MAX used to wrap around in the bounds
  // validation, so a huge bogus shape could pass the size checks and
  // index out of bounds. The overflow itself must now trip the check.
  float a[1] = {0}, b[1] = {0}, c[1] = {0};
  const int64_t big = (int64_t{1} << 62) + 11;  // big * 4 wraps int64
  EXPECT_DEATH(GemmChecked(GemmBackend::kNaive, a, 1, b, 1, c, 1,
                           /*m=*/big, /*n=*/1, /*k=*/4),
               "mul_overflow");
  EXPECT_DEATH(GemmChecked(GemmBackend::kNaive, a, 1, b, 1, c, 1,
                           /*m=*/1, /*n=*/big, /*k=*/4),
               "mul_overflow");
}

// ---------------------------------------------------------------- kernels

TEST(KernelTest, Conv1x1IsChannelMix) {
  // 1x1 conv = per-pixel linear map over channels.
  Tensor x(Shape({1, 2, 2, 2}), {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor w(Shape({1, 2, 1, 1}), {2.0f, 0.5f});  // out = 2*c0 + 0.5*c1
  ConvParams p;
  auto out = Conv2d(x, w, nullptr, p, ConvAlgo::kDirect, GemmBackend::kNaive);
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at(0), 2 * 1 + 0.5f * 5);
  EXPECT_FLOAT_EQ(out.at(3), 2 * 4 + 0.5f * 8);
}

TEST(KernelTest, Conv3x3KnownValues) {
  // 3x3 all-ones kernel over a 3x3 all-ones image, pad 1: counts of the
  // overlapping window = [[4,6,4],[6,9,6],[4,6,4]].
  Tensor x = Tensor::Full(Shape({1, 1, 3, 3}), 1.0f);
  Tensor w = Tensor::Full(Shape({1, 1, 3, 3}), 1.0f);
  ConvParams p;
  p.padding = 1;
  auto out = Conv2d(x, w, nullptr, p, ConvAlgo::kDirect, GemmBackend::kNaive);
  const float expected[] = {4, 6, 4, 6, 9, 6, 4, 6, 4};
  for (int i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(out.at(i), expected[i]);
}

TEST(KernelTest, ConvBiasApplied) {
  Tensor x = Tensor::Full(Shape({1, 1, 2, 2}), 0.0f);
  Tensor w = Tensor::Full(Shape({3, 1, 1, 1}), 1.0f);
  Tensor b(Shape({3}), {1.0f, 2.0f, 3.0f});
  ConvParams p;
  auto out = Conv2d(x, w, &b, p, ConvAlgo::kDirect, GemmBackend::kNaive);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 1, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 2, 0, 0), 3.0f);
}

TEST(KernelTest, ConvDirectMatchesIm2col) {
  util::Rng rng(11);
  for (int64_t groups : {int64_t{1}, int64_t{4}}) {
    Tensor x = Tensor::RandomUniform(Shape({2, 8, 9, 9}), rng);
    Tensor w = Tensor::RandomUniform(Shape({8, 8 / groups, 3, 3}), rng);
    Tensor b = Tensor::RandomUniform(Shape({8}), rng);
    ConvParams p;
    p.stride = 2;
    p.padding = 1;
    p.groups = groups;
    auto direct =
        Conv2d(x, w, &b, p, ConvAlgo::kDirect, GemmBackend::kNaive);
    for (GemmBackend backend : {GemmBackend::kNaive, GemmBackend::kBlocked,
                                GemmBackend::kTransposed}) {
      auto gemm = Conv2d(x, w, &b, p, ConvAlgo::kIm2col, backend);
      EXPECT_EQ(gemm.shape(), direct.shape());
      EXPECT_LT(MaxAbsDiff(direct, gemm), 1e-4);
    }
  }
}

TEST(KernelTest, DepthwiseConv) {
  // groups == channels: each output channel sees only its own input.
  Tensor x(Shape({1, 2, 2, 2}), {1, 1, 1, 1, 2, 2, 2, 2});
  Tensor w(Shape({2, 1, 1, 1}), {3.0f, 5.0f});
  ConvParams p;
  p.groups = 2;
  auto out = Conv2d(x, w, nullptr, p, ConvAlgo::kDirect, GemmBackend::kNaive);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 3.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 1, 0, 0), 10.0f);
}

TEST(KernelTest, FullyConnectedKnown) {
  Tensor x(Shape({1, 3}), {1, 2, 3});
  Tensor w(Shape({2, 3}), {1, 0, 0, 0, 1, 1});  // y0 = x0, y1 = x1+x2
  Tensor b(Shape({2}), {10, 20});
  auto out = FullyConnected(x, w, &b, GemmBackend::kNaive);
  EXPECT_FLOAT_EQ(out.at(0), 11);
  EXPECT_FLOAT_EQ(out.at(1), 25);
}

TEST(KernelTest, Activations) {
  Tensor x(Shape({5}), {-2, -0.5f, 0, 1, 8});
  auto relu = Relu(x);
  EXPECT_FLOAT_EQ(relu.at(0), 0);
  EXPECT_FLOAT_EQ(relu.at(3), 1);
  auto relu6 = Relu6(x);
  EXPECT_FLOAT_EQ(relu6.at(4), 6);
  auto sig = Sigmoid(x);
  EXPECT_NEAR(sig.at(2), 0.5, 1e-6);
  EXPECT_GT(sig.at(4), 0.999);
  auto hs = HardSwish(x);
  EXPECT_FLOAT_EQ(hs.at(0), -2 * 1.0f / 6.0f);  // relu6(-2+3)=1
  EXPECT_FLOAT_EQ(hs.at(4), 8);                 // saturated: 8*6/6
  auto th = Tanh(x);
  EXPECT_NEAR(th.at(2), 0.0, 1e-7);
}

TEST(KernelTest, MaxPoolKnown) {
  Tensor x(Shape({1, 1, 4, 4}),
           {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  auto out = MaxPool(x, 2, 2, 0);
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at(0), 6);
  EXPECT_FLOAT_EQ(out.at(1), 8);
  EXPECT_FLOAT_EQ(out.at(2), 14);
  EXPECT_FLOAT_EQ(out.at(3), 16);
}

TEST(KernelTest, AvgPoolKnown) {
  Tensor x(Shape({1, 1, 2, 2}), {1, 3, 5, 7});
  auto out = AvgPool(x, 2, 2, 0);
  EXPECT_FLOAT_EQ(out.at(0), 4.0f);
}

TEST(KernelTest, GlobalAvgPool) {
  Tensor x(Shape({1, 2, 2, 2}), {1, 2, 3, 4, 10, 20, 30, 40});
  auto out = GlobalAvgPool(x);
  EXPECT_EQ(out.shape(), Shape({1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(out.at(0), 2.5f);
  EXPECT_FLOAT_EQ(out.at(1), 25.0f);
}

TEST(KernelTest, BatchNormIdentityParams) {
  util::Rng rng(5);
  Tensor x = Tensor::RandomUniform(Shape({1, 3, 4, 4}), rng);
  Tensor ones = Tensor::Full(Shape({3}), 1.0f);
  Tensor zeros = Tensor::Zeros(Shape({3}));
  auto out = BatchNorm(x, ones, zeros, zeros, ones, 0.0f);
  EXPECT_LT(MaxAbsDiff(x, out), 1e-6);
}

TEST(KernelTest, BatchNormNormalizes) {
  Tensor x(Shape({1, 1, 1, 2}), {4.0f, 8.0f});
  Tensor scale = Tensor::Full(Shape({1}), 2.0f);
  Tensor bias = Tensor::Full(Shape({1}), 1.0f);
  Tensor mean = Tensor::Full(Shape({1}), 6.0f);
  Tensor var = Tensor::Full(Shape({1}), 4.0f);  // stddev 2
  auto out = BatchNorm(x, scale, bias, mean, var, 0.0f);
  EXPECT_NEAR(out.at(0), 2.0f * (4 - 6) / 2 + 1, 1e-5);  // -1
  EXPECT_NEAR(out.at(1), 2.0f * (8 - 6) / 2 + 1, 1e-5);  // 3
}

TEST(KernelTest, MulChannelBroadcast) {
  Tensor a(Shape({1, 2, 1, 2}), {1, 2, 3, 4});
  Tensor gate(Shape({1, 2, 1, 1}), {10.0f, 100.0f});
  auto out = Mul(a, gate);
  EXPECT_FLOAT_EQ(out.at(0), 10);
  EXPECT_FLOAT_EQ(out.at(1), 20);
  EXPECT_FLOAT_EQ(out.at(2), 300);
  EXPECT_FLOAT_EQ(out.at(3), 400);
}

TEST(KernelTest, ConcatChannels) {
  Tensor a = Tensor::Full(Shape({1, 1, 2, 2}), 1.0f);
  Tensor b = Tensor::Full(Shape({1, 2, 2, 2}), 2.0f);
  auto out = Concat({&a, &b});
  EXPECT_EQ(out.shape(), Shape({1, 3, 2, 2}));
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 1, 1, 1), 2.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 2, 0, 1), 2.0f);
}

TEST(KernelTest, SoftmaxRowsSumToOne) {
  Tensor x(Shape({2, 3}), {1, 2, 3, -1, 0, 1});
  auto out = Softmax(x);
  for (int64_t r = 0; r < 2; ++r) {
    double sum = 0;
    for (int64_t c = 0; c < 3; ++c) sum += out.at2(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
  // Monotone in logits.
  EXPECT_GT(out.at2(0, 2), out.at2(0, 1));
}

TEST(KernelTest, SoftmaxNumericallyStable) {
  Tensor x(Shape({1, 2}), {1000.0f, 1001.0f});
  auto out = Softmax(x);
  EXPECT_FALSE(tensor::HasNonFinite(out));
  EXPECT_NEAR(out.at(0) + out.at(1), 1.0, 1e-6);
}

// --------------------------------------------------------------- executor

Graph SmallConvNet(uint64_t seed = 9) {
  ModelBuilder b(seed);
  NodeId x = b.Input("img", Shape({1, 3, 16, 16}));
  x = b.ConvBnRelu(x, 8, 3, 1, 1);
  NodeId branch = b.Conv(x, 8, 3, 1, 1);
  x = b.Relu(b.Add(b.BatchNorm(branch), x));
  x = b.MaxPool(x, 2, 2);
  x = b.SqueezeExcite(x);
  x = b.GlobalAvgPool(x);
  x = b.Flatten(x);
  x = b.Gemm(x, 10);
  x = b.Softmax(x);
  b.MarkOutput(x);
  return b.Build();
}

TEST(ExecutorTest, RunsSmallNet) {
  Graph g = SmallConvNet();
  auto exec = Executor::Create(g, ReferenceExecutorConfig());
  ASSERT_TRUE(exec.ok());
  util::Rng rng(1);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);
  auto out = (*exec)->Run({input});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].shape(), Shape({1, 10}));
  EXPECT_FALSE(tensor::HasNonFinite((*out)[0]));

  // Outputs move out of the executor's environment; a node listed twice
  // must still yield two equal tensors.
  g.MarkOutput(g.outputs()[0]);
  auto twice = Executor::Create(g, ReferenceExecutorConfig());
  ASSERT_TRUE(twice.ok());
  auto outs = (*twice)->Run({input});
  ASSERT_TRUE(outs.ok()) << outs.status().ToString();
  ASSERT_EQ(outs->size(), 2u);
  ASSERT_EQ((*outs)[0].shape(), Shape({1, 10}));
  ASSERT_EQ((*outs)[1].shape(), (*outs)[0].shape());
  EXPECT_EQ(std::memcmp((*outs)[0].data(), (*outs)[1].data(),
                        (*outs)[0].byte_size()),
            0);
  EXPECT_EQ(std::memcmp((*outs)[0].data(), (*out)[0].data(),
                        (*out)[0].byte_size()),
            0);
}

TEST(ExecutorTest, RejectsWrongInputCount) {
  Graph g = SmallConvNet();
  auto exec = Executor::Create(g, ReferenceExecutorConfig());
  ASSERT_TRUE(exec.ok());
  EXPECT_FALSE((*exec)->Run({}).ok());
}

TEST(ExecutorTest, RejectsWrongInputShape) {
  Graph g = SmallConvNet();
  auto exec = Executor::Create(g, ReferenceExecutorConfig());
  ASSERT_TRUE(exec.ok());
  util::Rng rng(1);
  auto bad = Tensor::RandomUniform(Shape({1, 3, 8, 8}), rng);
  EXPECT_FALSE((*exec)->Run({bad}).ok());
}

TEST(ExecutorTest, AllPresetsAgreeNumerically) {
  Graph g = SmallConvNet();
  util::Rng rng(2);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);

  std::vector<Tensor> results;
  for (const auto& cfg :
       {ReferenceExecutorConfig(), OrtLikeExecutorConfig(),
        TvmLikeExecutorConfig(), HardenedExecutorConfig(),
        MklLikeExecutorConfig()}) {
    auto exec = Executor::Create(g, cfg);
    ASSERT_TRUE(exec.ok());
    auto out = (*exec)->Run({input});
    ASSERT_TRUE(out.ok()) << cfg.name << ": " << out.status().ToString();
    results.push_back((*out)[0]);
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GT(CosineSimilarity(results[0], results[i]), 0.9999);
    EXPECT_LT(MaxAbsDiff(results[0], results[i]), 1e-3);
  }
}

TEST(ExecutorTest, DiversifiedBackendsDifferBitwise) {
  // The whole premise of threshold-based checking: different backends
  // produce close-but-not-identical floats on deep nets.
  Graph g = SmallConvNet();
  util::Rng rng(2);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);
  auto ref = Executor::Create(g, ReferenceExecutorConfig());
  auto tvm = Executor::Create(g, TvmLikeExecutorConfig());
  ASSERT_TRUE(ref.ok() && tvm.ok());
  auto a = (*ref)->Run({input});
  auto b = (*tvm)->Run({input});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE((*a)[0].vec(), (*b)[0].vec());
}

TEST(ExecutorTest, DeterministicRepeatedRuns) {
  Graph g = SmallConvNet();
  auto exec = Executor::Create(g, OrtLikeExecutorConfig());
  ASSERT_TRUE(exec.ok());
  util::Rng rng(3);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);
  auto a = (*exec)->Run({input});
  auto b = (*exec)->Run({input});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ((*a)[0], (*b)[0]);
}

TEST(ExecutorTest, FoldBatchNormPreservesOutputs) {
  Graph g = SmallConvNet();
  util::Rng rng(4);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);

  auto plain = ReferenceExecutorConfig();
  auto folded = ReferenceExecutorConfig();
  folded.fold_batch_norm = true;
  auto e1 = Executor::Create(g, plain);
  auto e2 = Executor::Create(g, folded);
  ASSERT_TRUE(e1.ok() && e2.ok());
  auto a = (*e1)->Run({input});
  auto b = (*e2)->Run({input});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(MaxAbsDiff((*a)[0], (*b)[0]), 1e-4);
}

TEST(ExecutorTest, FoldBatchNormPassCountsFolds) {
  Graph g = SmallConvNet();
  size_t folds = FoldBatchNormPass(g);
  EXPECT_GE(folds, 2u);  // ConvBnRelu + branch BN
  EXPECT_TRUE(g.Validate().ok());
  // Folded graph still executes.
  auto exec = Executor::Create(g, ReferenceExecutorConfig());
  ASSERT_TRUE(exec.ok());
}

// Hand-built single-reshape graph: Input [1,3,4,4] (48 elements) ->
// Reshape(dims) -> output.
Graph ReshapeGraph(std::vector<int64_t> dims) {
  Graph g;
  NodeId x = g.AddInput("x", Shape({1, 3, 4, 4}));
  graph::Attributes attrs;
  attrs.SetInts("dims", std::move(dims));
  NodeId r = g.AddNode("reshape", graph::OpType::kReshape, {x}, {}, attrs);
  g.MarkOutput(r);
  return g;
}

TEST(ExecutorTest, ReshapeInfersMinusOneDim) {
  Graph g = ReshapeGraph({2, -1});
  auto shapes = g.InferShapes();
  ASSERT_TRUE(shapes.ok()) << shapes.status().ToString();
  EXPECT_EQ((*shapes)[1], Shape({2, 24}));

  auto exec = Executor::Create(g, ReferenceExecutorConfig());
  ASSERT_TRUE(exec.ok());
  util::Rng rng(11);
  auto input = Tensor::RandomUniform(Shape({1, 3, 4, 4}), rng);
  auto out = (*exec)->Run({input});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ((*out)[0].shape(), Shape({2, 24}));
  // Reshape is a metadata change: element order must survive untouched.
  EXPECT_EQ((*out)[0].vec(), input.vec());
}

TEST(ExecutorTest, ReshapeRejectsProductMismatch) {
  Graph g = ReshapeGraph({5, 7});  // 35 != 48
  EXPECT_FALSE(g.InferShapes().ok());
  EXPECT_FALSE(Executor::Create(g, ReferenceExecutorConfig()).ok());
}

TEST(ExecutorTest, ReshapeRejectsNonPositiveDims) {
  EXPECT_FALSE(ReshapeGraph({0, 48}).InferShapes().ok());
  EXPECT_FALSE(ReshapeGraph({-2, 24}).InferShapes().ok());
}

TEST(ExecutorTest, ReshapeRejectsMultipleInferredDims) {
  EXPECT_FALSE(ReshapeGraph({-1, -1}).InferShapes().ok());
}

TEST(ExecutorTest, ReshapeRejectsUninferrableMinusOne) {
  EXPECT_FALSE(ReshapeGraph({5, -1}).InferShapes().ok());  // 48 % 5 != 0
}

// Hand-built conv->bn chain for exercising the fold pass's operand
// validation. `scale_elems` sizes the BN params; `register_bn_params`
// controls whether they exist as initializers at all.
Graph ConvBnChain(bool register_bn_params, int64_t scale_elems) {
  Graph g;
  NodeId x = g.AddInput("x", Shape({1, 2, 4, 4}));
  g.AddInitializer("w", Tensor::Full(Shape({2, 2, 3, 3}), 0.1f));
  graph::Attributes cattrs;
  cattrs.SetInt("stride", 1);
  cattrs.SetInt("padding", 1);
  NodeId c = g.AddNode("conv", graph::OpType::kConv2d, {x}, {"w"}, cattrs);
  if (register_bn_params) {
    for (const char* name : {"scale", "bias", "mean", "var"}) {
      g.AddInitializer(name, Tensor::Full(Shape({scale_elems}), 1.0f));
    }
  }
  graph::Attributes battrs;
  battrs.SetFloat("epsilon", 1e-5f);
  NodeId bn = g.AddNode("bn", graph::OpType::kBatchNorm, {c},
                        {"scale", "bias", "mean", "var"}, battrs);
  g.MarkOutput(bn);
  return g;
}

TEST(ExecutorTest, FoldBatchNormSkipsMissingInitializers) {
  // BN params reference names with no backing initializer (a state
  // rewrite passes can produce mid-flight): the pass must skip the
  // fold, not crash.
  Graph g = ConvBnChain(/*register_bn_params=*/false, 2);
  EXPECT_EQ(FoldBatchNormPass(g), 0u);
  EXPECT_EQ(g.node(2).op, graph::OpType::kBatchNorm);  // untouched
  // Conv weight must not have been scaled by a partial fold.
  EXPECT_FLOAT_EQ(g.FindInitializer("w")->at(0), 0.1f);
}

TEST(ExecutorTest, FoldBatchNormSkipsMisSizedParams) {
  // 3-element BN params against 2 conv output channels.
  Graph g = ConvBnChain(/*register_bn_params=*/true, 3);
  EXPECT_EQ(FoldBatchNormPass(g), 0u);
  EXPECT_EQ(g.node(2).op, graph::OpType::kBatchNorm);
  EXPECT_FLOAT_EQ(g.FindInitializer("w")->at(0), 0.1f);
}

TEST(ExecutorTest, FoldBatchNormStillFoldsValidChain) {
  // Sanity check the guards did not over-reject: a well-formed chain
  // still folds and the BN node degrades to identity.
  Graph g = ConvBnChain(/*register_bn_params=*/true, 2);
  EXPECT_EQ(FoldBatchNormPass(g), 1u);
  EXPECT_EQ(g.node(2).op, graph::OpType::kIdentity);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(ExecutorTest, SlowdownFactorDelaysExecution) {
  Graph g = SmallConvNet();
  auto fast_cfg = OrtLikeExecutorConfig();
  auto slow_cfg = OrtLikeExecutorConfig();
  slow_cfg.slowdown_factor = 3.0;
  auto fast = Executor::Create(g, fast_cfg);
  auto slow = Executor::Create(g, slow_cfg);
  ASSERT_TRUE(fast.ok() && slow.ok());
  util::Rng rng(5);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);
  // Warm up.
  (void)(*fast)->Run({input});
  auto t0 = std::chrono::steady_clock::now();
  (void)(*fast)->Run({input});
  auto t1 = std::chrono::steady_clock::now();
  (void)(*slow)->Run({input});
  auto t2 = std::chrono::steady_clock::now();
  EXPECT_GT((t2 - t1).count(), (t1 - t0).count());
}

// Fault hook: corruption and crash are observable.
class CorruptOutputHook : public FaultHook {
 public:
  explicit CorruptOutputHook(std::string target) : target_(std::move(target)) {}
  void OnNodeComplete(const graph::Node& node, Tensor& out) override {
    if (node.name == target_ && out.num_elements() > 0) {
      out.data()[0] += 1000.0f;
      fired = true;
    }
  }
  std::string target_;
  bool fired = false;
};

class CrashHook : public FaultHook {
 public:
  explicit CrashHook(std::string target) : target_(std::move(target)) {}
  util::Status OnNodeStart(const graph::Node& node) override {
    if (node.name == target_) {
      return util::Aborted("simulated crash in " + node.name);
    }
    return util::OkStatus();
  }
  std::string target_;
};

TEST(ExecutorTest, FaultHookCorruptsOutput) {
  Graph g = SmallConvNet();
  util::Rng rng(6);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);

  auto clean_exec = Executor::Create(g, ReferenceExecutorConfig());
  auto faulty_exec = Executor::Create(g, ReferenceExecutorConfig());
  ASSERT_TRUE(clean_exec.ok() && faulty_exec.ok());
  // Corrupt the first conv's output.
  auto hook = std::make_shared<CorruptOutputHook>("conv_0");
  (*faulty_exec)->SetFaultHook(hook);

  auto clean = (*clean_exec)->Run({input});
  auto faulty = (*faulty_exec)->Run({input});
  ASSERT_TRUE(clean.ok() && faulty.ok());
  EXPECT_TRUE(hook->fired);
  EXPECT_GT(MaxAbsDiff((*clean)[0], (*faulty)[0]), 0.0);
}

TEST(ExecutorTest, FaultHookCrashPropagates) {
  Graph g = SmallConvNet();
  auto exec = Executor::Create(g, ReferenceExecutorConfig());
  ASSERT_TRUE(exec.ok());
  (*exec)->SetFaultHook(std::make_shared<CrashHook>("conv_0"));
  util::Rng rng(7);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);
  auto out = (*exec)->Run({input});
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), util::StatusCode::kAborted);
}

// Per-op CPU accounting: every executed op observes its
// executor.op.<Op>_us histogram once per Run, with a share of the op
// loop's thread CPU.

// executor.op.* histograms of the default registry (which every
// executor records into), by name.
std::map<std::string, obs::HistogramStats> OpHistograms() {
  std::map<std::string, obs::HistogramStats> out;
  for (const auto& [name, stats] :
       obs::Registry::Default().Snapshot().histograms) {
    if (name.rfind("executor.op.", 0) == 0) out[name] = stats;
  }
  return out;
}

// Executed ops per histogram among the first `limit` nodes of `g`
// (input nodes are not executed).
std::map<std::string, uint64_t> OpsPerHistogram(const Graph& g,
                                                NodeId limit) {
  std::map<std::string, uint64_t> out;
  for (const graph::Node& node : g.nodes()) {
    if (node.id >= limit) break;
    if (node.op == graph::OpType::kInput) continue;
    ++out["executor.op." + std::string(graph::OpTypeName(node.op)) + "_us"];
  }
  return out;
}

// Observations added between two OpHistograms() snapshots must equal
// `runs` x `per_run` exactly, histogram by histogram.
void ExpectOpCounts(const std::map<std::string, obs::HistogramStats>& before,
                    const std::map<std::string, obs::HistogramStats>& after,
                    const std::map<std::string, uint64_t>& per_run,
                    uint64_t runs) {
  for (const auto& [name, stats] : after) {
    const uint64_t base = before.count(name) ? before.at(name).count : 0;
    const uint64_t want = per_run.count(name) ? runs * per_run.at(name) : 0;
    EXPECT_EQ(stats.count - base, want) << name;
  }
  for (const auto& [name, ops] : per_run) {
    EXPECT_TRUE(after.count(name)) << name;
  }
}

// Sum of the values the executor.op.* histograms took between the two
// snapshots.
double OpSumDelta(const std::map<std::string, obs::HistogramStats>& before,
                  const std::map<std::string, obs::HistogramStats>& after) {
  double sum = 0;
  for (const auto& [name, stats] : after) {
    sum += stats.sum - (before.count(name) ? before.at(name).sum : 0);
  }
  return sum;
}

TEST(ExecutorOpCpuTest, EveryRunObservesEachExecutedOpOnce) {
  // The ORT-like preset folds BN into Identity and runs activations in
  // place, so the executor's own graph is what it counts.
  for (const ExecutorConfig& cfg :
       {ReferenceExecutorConfig(), OrtLikeExecutorConfig()}) {
    auto exec = Executor::Create(SmallConvNet(), cfg);
    ASSERT_TRUE(exec.ok());
    util::Rng rng(11);
    auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);
    constexpr uint64_t kRuns = 7;
    const auto before = OpHistograms();
    for (uint64_t r = 0; r < kRuns; ++r) {
      ASSERT_TRUE((*exec)->Run({input}).ok());
    }
    const Graph& g = (*exec)->graph();
    ExpectOpCounts(before, OpHistograms(),
                   OpsPerHistogram(g, g.num_nodes()), kRuns);
  }
}

TEST(ExecutorOpCpuTest, RunValuesSumToAtMostItsThreadCpu) {
  auto exec = Executor::Create(SmallConvNet(), OrtLikeExecutorConfig());
  ASSERT_TRUE(exec.ok());
  util::Rng rng(12);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);
  for (int r = 0; r < 20; ++r) {
    const auto before = OpHistograms();
    const int64_t cpu0 = util::ThreadCpuMicros();
    ASSERT_TRUE((*exec)->Run({input}).ok());
    const int64_t run_cpu_us = util::ThreadCpuMicros() - cpu0;
    const auto after = OpHistograms();
    // Histogram::Observe clamps a negative value to 0, so a value below
    // 0 cannot be seen alone: it would lift the sum above the loop's
    // CPU, which this bounds. The 1 µs covers truncating both readings
    // of run_cpu_us to whole µs.
    EXPECT_LE(OpSumDelta(before, after), static_cast<double>(run_cpu_us + 1))
        << "run " << r;
  }
}

TEST(ExecutorOpCpuTest, FailedRunObservesExactlyTheOpsBeforeTheFailure) {
  auto exec = Executor::Create(SmallConvNet(), ReferenceExecutorConfig());
  ASSERT_TRUE(exec.ok());
  const Graph& g = (*exec)->graph();
  // Fail mid-graph, at the first Add: the convs, BN and ReLU before it
  // have completed.
  NodeId fail_at = graph::kInvalidNode;
  for (const graph::Node& node : g.nodes()) {
    if (node.op == graph::OpType::kAdd) {
      fail_at = node.id;
      break;
    }
  }
  ASSERT_NE(fail_at, graph::kInvalidNode);
  (*exec)->SetFaultHook(std::make_shared<CrashHook>(g.node(fail_at).name));
  util::Rng rng(13);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);
  constexpr uint64_t kRuns = 3;
  const auto first = OpHistograms();
  for (uint64_t r = 0; r < kRuns; ++r) {
    const auto before = OpHistograms();
    const int64_t cpu0 = util::ThreadCpuMicros();
    auto out = (*exec)->Run({input});
    const int64_t run_cpu_us = util::ThreadCpuMicros() - cpu0;
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), util::StatusCode::kAborted);
    EXPECT_LE(OpSumDelta(before, OpHistograms()),
              static_cast<double>(run_cpu_us + 1));
  }
  ExpectOpCounts(first, OpHistograms(), OpsPerHistogram(g, fail_at), kRuns);
}

// Full zoo end-to-end under the optimized executor.
class ZooExecutionTest : public ::testing::TestWithParam<graph::ModelKind> {};

TEST_P(ZooExecutionTest, ProducesFiniteDistribution) {
  graph::ZooConfig cfg;
  cfg.input_hw = 32;
  cfg.width_mult = 0.25;
  cfg.depth_mult = 0.34;
  Graph g = BuildModel(GetParam(), cfg);
  auto exec = Executor::Create(g, OrtLikeExecutorConfig());
  ASSERT_TRUE(exec.ok());
  util::Rng rng(8);
  auto input =
      Tensor::RandomUniform(Shape({cfg.batch, 3, cfg.input_hw, cfg.input_hw}),
                            rng);
  auto out = (*exec)->Run({input});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const Tensor& probs = (*out)[0];
  EXPECT_FALSE(tensor::HasNonFinite(probs));
  double sum = 0;
  for (int64_t i = 0; i < probs.num_elements(); ++i) {
    EXPECT_GE(probs.at(i), 0.0f);
    sum += probs.at(i);
  }
  EXPECT_NEAR(sum, 1.0, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooExecutionTest,
                         ::testing::ValuesIn(graph::AllModels()),
                         [](const auto& info) {
                           std::string name(graph::ModelName(info.param));
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ------------------------------------------------- conv param checks

TEST(ConvParamDeathTest, GarbageParamsAbort) {
  // Garbage conv geometry must fail loudly at the kernel boundary, not
  // compute a garbage output shape (OutDim with stride 0 would divide
  // by zero; negative padding would read out of bounds).
  util::Rng rng(21);
  Tensor x = Tensor::RandomUniform(Shape({1, 4, 8, 8}), rng);
  Tensor w = Tensor::RandomUniform(Shape({4, 4, 3, 3}), rng);
  auto run = [&](int64_t stride, int64_t padding, int64_t groups) {
    ConvParams p;
    p.stride = stride;
    p.padding = padding;
    p.groups = groups;
    Conv2d(x, w, nullptr, p, ConvAlgo::kDirect, GemmBackend::kNaive);
  };
  EXPECT_DEATH(run(0, 1, 1), "stride");
  EXPECT_DEATH(run(-2, 1, 1), "stride");
  EXPECT_DEATH(run(1, -1, 1), "pad");
  EXPECT_DEATH(run(1, 1, 0), "groups");
  // groups must divide the output-channel count.
  EXPECT_DEATH(run(1, 1, 3), "groups");
}

TEST(ConvParamDeathTest, KernelLargerThanPaddedInputAborts) {
  util::Rng rng(22);
  Tensor x = Tensor::RandomUniform(Shape({1, 1, 2, 2}), rng);
  Tensor w = Tensor::RandomUniform(Shape({1, 1, 5, 5}), rng);
  ConvParams p;  // 5x5 kernel over an unpadded 2x2 input
  EXPECT_DEATH(Conv2d(x, w, nullptr, p, ConvAlgo::kDirect,
                      GemmBackend::kNaive),
               "");
}

// ------------------------------------------------- prepacked weights

TEST(PackedGemmTest, PrepackedBitwiseMatchesRepackOnEveryBackend) {
  // The cache only relocates bytes; the accumulation order per output
  // element is untouched, so prepacked FullyConnected must reproduce
  // the self-contained path bit for bit — on every backend, and with
  // SIMD dispatch both allowed and forced off.
  util::Rng rng(31);
  const int64_t m = 3, out_dim = 33, in_dim = 47;
  Tensor x = Tensor::RandomUniform(Shape({m, in_dim}), rng);
  Tensor w = Tensor::RandomUniform(Shape({out_dim, in_dim}), rng);
  Tensor b = Tensor::RandomUniform(Shape({out_dim}), rng);
  for (GemmBackend backend :
       {GemmBackend::kNaive, GemmBackend::kBlocked, GemmBackend::kTransposed,
        GemmBackend::kAvx2}) {
    PackedGemmB packed = PackGemmWeightTransposed(
        backend, w.data(), out_dim, in_dim, &util::BufferPool::Default());
    ASSERT_TRUE(static_cast<bool>(packed));
    EXPECT_EQ(packed.n, out_dim);
    EXPECT_EQ(packed.k, in_dim);
    for (bool force_scalar : {false, true}) {
      std::unique_ptr<util::ScopedForceScalar> scalar;
      if (force_scalar) scalar = std::make_unique<util::ScopedForceScalar>();
      Tensor repack = FullyConnected(x, w, &b, backend, nullptr);
      Tensor cached = FullyConnected(x, w, &b, backend, &packed);
      ASSERT_EQ(repack.shape(), cached.shape());
      EXPECT_EQ(std::memcmp(repack.data(), cached.data(), repack.byte_size()),
                0)
          << GemmBackendName(backend)
          << (force_scalar ? " (forced scalar)" : "");
    }
  }
}

TEST(PackedGemmTest, GemmPrepackedMatchesGemmOnEveryBackend) {
  // Same property one layer down: PackGemmB + GemmPrepacked vs the
  // one-shot Gemm entry point on a raw row-major B.
  util::Rng rng(32);
  for (auto [m, n, k] : std::vector<std::tuple<int, int, int>>{
           {1, 17, 19}, {6, 16, 4}, {5, 40, 23}}) {
    std::vector<float> a(static_cast<size_t>(m) * k),
        b(static_cast<size_t>(k) * n);
    for (auto& v : a) v = rng.UniformFloat(-1, 1);
    for (auto& v : b) v = rng.UniformFloat(-1, 1);
    for (GemmBackend backend :
         {GemmBackend::kNaive, GemmBackend::kBlocked,
          GemmBackend::kTransposed, GemmBackend::kAvx2}) {
      PackedGemmB packed = PackGemmB(backend, b.data(), n, k,
                                     &util::BufferPool::Default());
      std::vector<float> direct(static_cast<size_t>(m) * n, -1.0f);
      std::vector<float> pre(static_cast<size_t>(m) * n, 1.0f);
      Gemm(backend, a.data(), b.data(), direct.data(), m, n, k);
      GemmPrepacked(a.data(), packed, pre.data(), m);
      EXPECT_EQ(std::memcmp(direct.data(), pre.data(),
                            direct.size() * sizeof(float)),
                0)
          << GemmBackendName(backend) << " " << m << "x" << n << "x" << k;
    }
  }
}

TEST(PackedGemmDeathTest, BackendMismatchAborts) {
  util::Rng rng(33);
  Tensor x = Tensor::RandomUniform(Shape({1, 8}), rng);
  Tensor w = Tensor::RandomUniform(Shape({4, 8}), rng);
  PackedGemmB packed = PackGemmWeightTransposed(
      GemmBackend::kNaive, w.data(), 4, 8, &util::BufferPool::Default());
  EXPECT_DEATH(FullyConnected(x, w, nullptr, GemmBackend::kAvx2, &packed),
               "");
}

// ------------------------------------------------- pack cache

std::vector<NodeId> NodesOf(const Graph& g, graph::OpType op) {
  std::vector<NodeId> ids;
  for (const auto& node : g.nodes()) {
    if (node.op == op) ids.push_back(node.id);
  }
  return ids;
}

// Every conv shape the pack cache decides on: a dense 3x3 conv on a
// 4x4 map (16 pixels), a strided dense conv down to 2x2, a depthwise
// conv on 2x2, a 1x1 conv on 1x1, then an FC.
Graph NarrowConvNet() {
  ModelBuilder b(17);
  NodeId x = b.Input("img", Shape({1, 6, 4, 4}));
  x = b.Conv(x, 8, 3, 1, 1, 1, true);    // 4x4: reads W as is
  x = b.Conv(x, 12, 3, 2, 1, 1, true);   // 2x2: kBlocked panels
  x = b.Conv(x, 12, 3, 1, 1, 12, true);  // depthwise: lanes
  x = b.GlobalAvgPool(x);
  x = b.Conv(x, 20, 1, 1, 0, 1, true);   // 1x1: kBlocked panels
  x = b.Gemm(b.Flatten(x), 5);
  b.MarkOutput(x);
  return b.Build();
}

// Bytes the cache holds for `w` packed as `layout`.
size_t PackedBytes(const Tensor& w, ConvPackLayout layout) {
  const int64_t rows = w.shape().dim(0);
  const int64_t patch = w.num_elements() / rows;
  const int64_t block = layout == ConvPackLayout::kBlockedPanels ? 8 : 4;
  return static_cast<size_t>((rows + block - 1) / block * block * patch) *
         sizeof(float);
}

TEST(PackCacheTest, BindPacksConstantGemmWeights) {
  // Every FC weight is packed on every backend. Conv weights are packed
  // only where a narrow-map path reads them packed: kBlocked's panels
  // for groups == 1 convs with fewer than 8 output pixels, and the
  // depthwise loop's lanes on kBlocked and kTransposed.
  const Graph g = NarrowConvNet();
  const std::vector<Shape> shapes = *g.InferShapes();
  const std::vector<NodeId> convs = NodesOf(g, graph::OpType::kConv2d);
  ASSERT_EQ(convs.size(), 4u);
  const NodeId fc = NodesOf(g, graph::OpType::kGemm).at(0);
  auto weight = [&](NodeId id) {
    return g.FindInitializer(g.node(id).weights[0]);
  };
  const std::optional<ConvPackLayout> none;
  const struct {
    GemmBackend backend;
    std::optional<ConvPackLayout> layouts[4];
  } cases[] = {
      {GemmBackend::kBlocked,
       {none, ConvPackLayout::kBlockedPanels, ConvPackLayout::kDepthwiseLanes,
        ConvPackLayout::kBlockedPanels}},
      {GemmBackend::kTransposed,
       {none, none, ConvPackLayout::kDepthwiseLanes, none}},
      {GemmBackend::kNaive, {none, none, none, none}},
      {GemmBackend::kAvx2, {none, none, none, none}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(GemmBackendName(c.backend));
    PackedWeightCache cache;
    cache.Bind(g, shapes, c.backend, ConvAlgo::kIm2col);
    if (!PackedWeightCache::EnabledFromEnv()) {
      // MVTEE_PACK_CACHE=0 CI leg: nothing is packed and every lookup
      // of a packable node is a (counted) miss.
      EXPECT_FALSE(cache.bound());
      EXPECT_EQ(cache.entries(), 0u);
      EXPECT_EQ(cache.packed_bytes(), 0u);
      EXPECT_EQ(cache.FindGemm(fc), nullptr);
      for (NodeId id : convs) EXPECT_EQ(cache.FindConv(id), nullptr);
      continue;
    }
    ASSERT_TRUE(cache.bound());
    const PackedGemmB* packed_fc = cache.FindGemm(fc);
    ASSERT_NE(packed_fc, nullptr);
    EXPECT_EQ(packed_fc->backend, c.backend);
    EXPECT_EQ(packed_fc->n, weight(fc)->shape().dim(0));
    EXPECT_EQ(packed_fc->k, weight(fc)->shape().dim(1));
    size_t entries = 1, bytes = packed_fc->bytes();
    for (size_t i = 0; i < convs.size(); ++i) {
      const PackedConvWeight* packed = cache.FindConv(convs[i]);
      ASSERT_EQ(packed != nullptr, c.layouts[i].has_value()) << "conv " << i;
      if (packed == nullptr) continue;
      EXPECT_EQ(packed->layout, *c.layouts[i]) << "conv " << i;
      EXPECT_EQ(packed->weight_shape, weight(convs[i])->shape());
      EXPECT_EQ(packed->bytes(), PackedBytes(*weight(convs[i]), packed->layout));
      ++entries;
      bytes += packed->bytes();
    }
    EXPECT_EQ(cache.entries(), entries);
    EXPECT_EQ(cache.packed_bytes(), bytes);
  }
  // The direct conv algorithm reads no packed conv weight.
  PackedWeightCache direct;
  direct.Bind(g, shapes, GemmBackend::kBlocked, ConvAlgo::kDirect);
  for (NodeId id : convs) EXPECT_EQ(direct.FindConv(id), nullptr);
}

TEST(PackCacheTest, ScopedDisableForcesColdLookups) {
  if (!PackedWeightCache::EnabledFromEnv()) {
    GTEST_SKIP() << "MVTEE_PACK_CACHE=0: nothing to scope-disable";
  }
  const Graph g = NarrowConvNet();
  PackedWeightCache cache;
  cache.Bind(g, *g.InferShapes(), GemmBackend::kBlocked, ConvAlgo::kIm2col);
  const NodeId fc = NodesOf(g, graph::OpType::kGemm).at(0);
  const NodeId panel_conv = NodesOf(g, graph::OpType::kConv2d).at(1);
  ASSERT_NE(cache.FindGemm(fc), nullptr);
  ASSERT_NE(cache.FindConv(panel_conv), nullptr);
  {
    ScopedDisablePackCache off;
    EXPECT_FALSE(PackCacheEnabled());
    EXPECT_EQ(cache.FindGemm(fc), nullptr);
    EXPECT_EQ(cache.FindConv(panel_conv), nullptr);
  }
  EXPECT_NE(cache.FindGemm(fc), nullptr);
  EXPECT_NE(cache.FindConv(panel_conv), nullptr);
}

TEST(PackCacheTest, EachRunCountsOneLookupPerPackedOperand) {
  // pack.bytes grows by exactly what each executor binds, and every Run
  // looks up each packable node once: a hit when the cache serves it, a
  // miss when it is disabled; other nodes are not counted.
  const Graph g = NarrowConvNet();
  util::Rng rng(43);
  const Tensor input = Tensor::RandomUniform(Shape({1, 6, 4, 4}), rng);
  auto& reg = obs::Registry::Default();
  const struct {
    ExecutorConfig config;
    uint64_t packable;  // NarrowConvNet nodes with a packed operand
  } cases[] = {{OrtLikeExecutorConfig(), 4},
               {TvmLikeExecutorConfig(), 2},
               {HardenedExecutorConfig(), 1},
               {MklLikeExecutorConfig(), 1},
               {ReferenceExecutorConfig(), 1}};
  for (auto c : cases) {
    SCOPED_TRACE(c.config.name);
    c.config.slowdown_factor = 1.0;
    const int64_t bytes0 = reg.GetGauge("pack.bytes").value();
    auto exec = Executor::Create(g, c.config);
    ASSERT_TRUE(exec.ok());
    const PackedWeightCache& cache = (*exec)->pack_cache();
    EXPECT_EQ(reg.GetGauge("pack.bytes").value() - bytes0,
              static_cast<int64_t>(cache.packed_bytes()));
    const bool serving = PackedWeightCache::EnabledFromEnv();
    EXPECT_EQ(cache.entries(), serving ? c.packable : 0u);
    for (bool disabled : {false, true}) {
      std::unique_ptr<ScopedDisablePackCache> off;
      if (disabled) off = std::make_unique<ScopedDisablePackCache>();
      const uint64_t hits0 = reg.GetCounter("pack.hits").value();
      const uint64_t misses0 = reg.GetCounter("pack.misses").value();
      for (int run = 0; run < 3; ++run) ASSERT_TRUE((*exec)->Run({input}).ok());
      const bool hit = serving && !disabled;
      EXPECT_EQ(reg.GetCounter("pack.hits").value() - hits0,
                hit ? 3 * c.packable : 0u);
      EXPECT_EQ(reg.GetCounter("pack.misses").value() - misses0,
                hit ? 0u : 3 * c.packable);
    }
  }
}

TEST(PackCacheTest, ExecutorOutputsBitwiseIdenticalWithCacheDisabled) {
  // MVTEE_PACK_CACHE is a speed knob, never a diversity axis: the same
  // executor must produce the same bits with the cache on and off.
  Graph g = SmallConvNet();
  util::Rng rng(41);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);
  auto exec = Executor::Create(g, OrtLikeExecutorConfig());
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ((*exec)->pack_cache().bound(),
            PackedWeightCache::EnabledFromEnv());
  auto hot = (*exec)->Run({input});
  ASSERT_TRUE(hot.ok());
  util::Result<std::vector<Tensor>> cold(util::Internal("unset"));
  {
    ScopedDisablePackCache off;
    cold = (*exec)->Run({input});
  }
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ((*hot)[0], (*cold)[0]);
}

TEST(PackCacheTest, SteadyStateInferenceTakesNoFreshPoolAllocations) {
  // After one warm-up inference every Gemm/Conv scratch acquisition
  // must be served from the BufferPool freelists: zero fresh
  // allocations on the steady-state path.
  Graph g = SmallConvNet();
  util::Rng rng(42);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);
  auto exec = Executor::Create(g, MklLikeExecutorConfig());
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE((*exec)->Run({input}).ok());  // warm scratch sizes
  ASSERT_TRUE((*exec)->Run({input}).ok());
  const util::BufferPool::Stats before = util::BufferPool::Default().stats();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*exec)->Run({input}).ok());
  }
  const util::BufferPool::Stats after = util::BufferPool::Default().stats();
  EXPECT_EQ(after.misses - before.misses, 0u);
  EXPECT_GT(after.hits - before.hits, 0u);
}

// ------------------------------------------------- elementwise dispatch

TEST(ElementwiseDispatchTest, VectorAndScalarTiersAreBitwiseIdentical) {
  const std::vector<float> in = TrickyFloats();
  const std::vector<float> rhs = [&] {
    std::vector<float> r = in;
    std::reverse(r.begin(), r.end());
    return r;
  }();
  const int64_t n = static_cast<int64_t>(in.size());
  const size_t bytes = in.size() * sizeof(float);

  auto run_all = [&](std::vector<std::vector<float>>& outs) {
    outs.assign(7, std::vector<float>(in.size(), -99.0f));
    elementwise::Relu(in.data(), outs[0].data(), n);
    elementwise::Relu6(in.data(), outs[1].data(), n);
    elementwise::HardSwish(in.data(), outs[2].data(), n);
    elementwise::Add(in.data(), rhs.data(), outs[3].data(), n);
    elementwise::AddScalar(in.data(), 0.625f, outs[4].data(), n);
    elementwise::Scale(in.data(), 1.25f, -0.375f, outs[5].data(), n);
    outs[6] = in;
    elementwise::MulScalar(outs[6].data(), 0.8125f, n);
  };
  // MaxReduce's bitwise contract covers finite inputs (maxps and
  // std::max diverge on NaN by design of the ISA); mask the NaN here.
  std::vector<float> finite = in;
  for (auto& v : finite) {
    if (std::isnan(v)) v = 0.5f;
  }
  std::vector<std::vector<float>> fast, scalar;
  run_all(fast);
  const float fast_max = elementwise::MaxReduce(finite.data(), n);
  {
    util::ScopedForceScalar force_scalar;
    EXPECT_FALSE(util::UseAvx2Elementwise());
    run_all(scalar);
    const float scalar_max = elementwise::MaxReduce(finite.data(), n);
    EXPECT_EQ(std::memcmp(&fast_max, &scalar_max, sizeof(float)), 0);
  }
  const char* names[] = {"relu", "relu6",     "hardswish", "add",
                         "adds", "scale",     "muls"};
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(std::memcmp(fast[i].data(), scalar[i].data(), bytes), 0)
        << names[i];
  }
}

TEST(ElementwiseDispatchTest, AddsReturnTheFirstOperandsNaN) {
  // Both operands NaN with different payloads: x86 returns the first
  // source's, and both tiers pin `a` (Add) and `in` (AddScalar) first,
  // in the vector body and in the scalar tail alike.
  const float pos = std::numeric_limits<float>::quiet_NaN();
  const float neg = -pos;
  const int64_t n = 19;
  const std::vector<float> pos_v(n, pos), neg_v(n, neg);
  for (bool force_scalar : {false, true}) {
    std::unique_ptr<util::ScopedForceScalar> scalar;
    if (force_scalar) scalar = std::make_unique<util::ScopedForceScalar>();
    std::vector<float> out(n);
    elementwise::Add(pos_v.data(), neg_v.data(), out.data(), n);
    EXPECT_EQ(std::memcmp(out.data(), pos_v.data(), n * sizeof(float)), 0);
    elementwise::Add(neg_v.data(), pos_v.data(), out.data(), n);
    EXPECT_EQ(std::memcmp(out.data(), neg_v.data(), n * sizeof(float)), 0);
    elementwise::AddScalar(pos_v.data(), neg, out.data(), n);
    EXPECT_EQ(std::memcmp(out.data(), pos_v.data(), n * sizeof(float)), 0);
  }
}

TEST(ElementwiseDispatchTest, ToleratesAliasing) {
  const std::vector<float> in = TrickyFloats();
  const int64_t n = static_cast<int64_t>(in.size());
  std::vector<float> separate(in.size());
  elementwise::HardSwish(in.data(), separate.data(), n);
  std::vector<float> aliased = in;
  elementwise::HardSwish(aliased.data(), aliased.data(), n);
  EXPECT_EQ(std::memcmp(separate.data(), aliased.data(),
                        in.size() * sizeof(float)),
            0);
}

TEST(ElementwiseDispatchTest, SoftmaxBitwiseStableAcrossDispatch) {
  util::Rng rng(52);
  Tensor x = Tensor::RandomUniform(Shape({5, 37}), rng);
  Tensor fast = Softmax(x);
  util::ScopedForceScalar force_scalar;
  Tensor scalar = Softmax(x);
  EXPECT_EQ(std::memcmp(fast.data(), scalar.data(), fast.byte_size()), 0);
}

TEST(ElementwiseDispatchTest, MaxReduceEmptyAborts) {
  const float x = 1.0f;
  EXPECT_DEATH(elementwise::MaxReduce(&x, 0), "");
}

}  // namespace
}  // namespace mvtee::runtime
