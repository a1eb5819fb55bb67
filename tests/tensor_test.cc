#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace mvtee::tensor {
namespace {

TEST(ShapeTest, Basics) {
  Shape s({2, 3, 4});
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.num_elements(), 24);
  EXPECT_EQ(s.ToString(), "[2,3,4]");
  EXPECT_EQ(s, Shape({2, 3, 4}));
  EXPECT_NE(s, Shape({2, 3, 5}));
}

TEST(ShapeTest, ScalarShape) {
  Shape s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.num_elements(), 1);
}

TEST(TensorTest, ZerosAndFull) {
  auto z = Tensor::Zeros(Shape({2, 2}));
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(z.at(i), 0.0f);
  auto f = Tensor::Full(Shape({3}), 2.5f);
  for (int64_t i = 0; i < 3; ++i) EXPECT_EQ(f.at(i), 2.5f);
}

TEST(TensorTest, RandomUniformRange) {
  util::Rng rng(1);
  auto t = Tensor::RandomUniform(Shape({1000}), rng, -2.0f, 3.0f);
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    EXPECT_GE(t.at(i), -2.0f);
    EXPECT_LT(t.at(i), 3.0f);
  }
}

TEST(TensorTest, RandomNormalDeterministicBySeed) {
  util::Rng a(5), b(5);
  auto x = Tensor::RandomNormal(Shape({64}), a);
  auto y = Tensor::RandomNormal(Shape({64}), b);
  EXPECT_EQ(x, y);
}

TEST(TensorTest, At4Indexing) {
  Tensor t(Shape({2, 3, 4, 5}));
  t.at4(1, 2, 3, 4) = 7.0f;
  // linear index = ((1*3+2)*4+3)*5+4 = 119
  EXPECT_EQ(t.at(119), 7.0f);
  EXPECT_EQ(t.at4(1, 2, 3, 4), 7.0f);
}

TEST(TensorTest, At2Indexing) {
  Tensor t(Shape({3, 4}));
  t.at2(2, 1) = 9.0f;
  EXPECT_EQ(t.at(9), 9.0f);
}

TEST(TensorTest, SerializeRoundTrip) {
  util::Rng rng(7);
  auto t = Tensor::RandomUniform(Shape({2, 3, 5}), rng);
  auto bytes = t.Serialize();
  auto back = Tensor::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);
}

TEST(TensorTest, SerializeScalarShape) {
  Tensor t{Shape({1})};
  t.at(0) = 42.0f;
  auto back = Tensor::Deserialize(t.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->at(0), 42.0f);
}

TEST(TensorTest, DeserializeRejectsCorruption) {
  util::Rng rng(7);
  auto bytes = Tensor::RandomUniform(Shape({4, 4}), rng).Serialize();
  // Bad magic.
  auto bad = bytes;
  bad[0] ^= 0xff;
  EXPECT_FALSE(Tensor::Deserialize(bad).ok());
  // Truncation.
  auto truncated = bytes;
  truncated.resize(truncated.size() - 5);
  EXPECT_FALSE(Tensor::Deserialize(truncated).ok());
  // Empty.
  EXPECT_FALSE(Tensor::Deserialize({}).ok());
}

// A serialized tensor header with no payload: magic, rank, dims, count.
util::Bytes TensorHeader(const std::vector<uint64_t>& dims, uint64_t count) {
  util::Bytes out;
  util::AppendU32(out, 0x4d565431);
  util::AppendU32(out, static_cast<uint32_t>(dims.size()));
  for (uint64_t d : dims) util::AppendU64(out, d);
  util::AppendU64(out, count);
  return out;
}

TEST(TensorTest, DeserializeRejectsCountMismatch) {
  util::Rng rng(7);
  auto t = Tensor::RandomUniform(Shape({2, 2}), rng);
  auto bytes = t.Serialize();
  // Flip the element count field (offset: 4 magic + 4 rank + 16 dims).
  bytes[24 + 7] ^= 0x01;
  EXPECT_FALSE(Tensor::Deserialize(bytes).ok());

  // Headers whose sizes wrap: 2^62 floats are 2^64 ≡ 0 bytes, and
  // 2^32 x 2^32 elements overflow int64_t.
  const auto keepalive = std::make_shared<int>(0);
  for (const util::Bytes& header :
       {TensorHeader({1ULL << 31, 1ULL << 31}, 1ULL << 62),
        TensorHeader({1ULL << 32, 1ULL << 32}, 0)}) {
    EXPECT_EQ(Tensor::Deserialize(header).status().code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ(Tensor::DeserializeView(header, keepalive).status().code(),
              util::StatusCode::kInvalidArgument);
  }
}

TEST(MetricsTest, CosineSimilarityIdentical) {
  util::Rng rng(3);
  auto t = Tensor::RandomUniform(Shape({100}), rng);
  EXPECT_NEAR(CosineSimilarity(t, t), 1.0, 1e-9);
}

TEST(MetricsTest, CosineSimilarityOpposite) {
  Tensor a(Shape({3}), {1, 2, 3});
  Tensor b(Shape({3}), {-1, -2, -3});
  EXPECT_NEAR(CosineSimilarity(a, b), -1.0, 1e-9);
}

TEST(MetricsTest, CosineSimilarityOrthogonal) {
  Tensor a(Shape({2}), {1, 0});
  Tensor b(Shape({2}), {0, 1});
  EXPECT_NEAR(CosineSimilarity(a, b), 0.0, 1e-9);
}

TEST(MetricsTest, CosineSimilarityZeroVectors) {
  Tensor z(Shape({4}));
  Tensor nz(Shape({4}), {1, 1, 1, 1});
  EXPECT_EQ(CosineSimilarity(z, z), 1.0);
  EXPECT_EQ(CosineSimilarity(z, nz), 0.0);
}

TEST(MetricsTest, MseAndMaxAbsDiff) {
  Tensor a(Shape({4}), {1, 2, 3, 4});
  Tensor b(Shape({4}), {1, 2, 3, 8});
  EXPECT_NEAR(MeanSquaredError(a, b), 4.0, 1e-9);  // 16/4
  EXPECT_NEAR(MaxAbsDiff(a, b), 4.0, 1e-9);
  EXPECT_EQ(MeanSquaredError(a, a), 0.0);
}

TEST(MetricsTest, AllClose) {
  Tensor a(Shape({3}), {1.0f, 2.0f, 3.0f});
  Tensor b(Shape({3}), {1.0f + 1e-7f, 2.0f, 3.0f});
  EXPECT_TRUE(AllClose(a, b));
  Tensor c(Shape({3}), {1.1f, 2.0f, 3.0f});
  EXPECT_FALSE(AllClose(a, c));
  // Shape mismatch -> false, not crash.
  Tensor d(Shape({2}), {1.0f, 2.0f});
  EXPECT_FALSE(AllClose(a, d));
}

TEST(MetricsTest, AllCloseRejectsNan) {
  Tensor a(Shape({2}), {1.0f, std::nanf("")});
  EXPECT_FALSE(AllClose(a, a));
}

TEST(MetricsTest, AllCloseRelativeTolerance) {
  Tensor a(Shape({1}), {1000.0f});
  Tensor b(Shape({1}), {1000.005f});
  EXPECT_TRUE(AllClose(a, b, 1e-5, 1e-8));   // within rtol*1000 = 0.01
  EXPECT_FALSE(AllClose(a, b, 1e-6, 1e-8));  // rtol*1000 = 0.001
}

TEST(MetricsTest, HasNonFinite) {
  Tensor ok(Shape({3}), {1, 2, 3});
  EXPECT_FALSE(HasNonFinite(ok));
  Tensor with_nan(Shape({2}), {1.0f, std::nanf("")});
  EXPECT_TRUE(HasNonFinite(with_nan));
  Tensor with_inf(Shape({2}), {1.0f, INFINITY});
  EXPECT_TRUE(HasNonFinite(with_inf));
}

}  // namespace
}  // namespace mvtee::tensor
