// Operator kernels. Each kernel is a pure function Tensor(s) -> Tensor.
//
// Conv offers two algorithms (direct loops vs im2col+GEMM) — another
// diversification axis mirroring different inference-runtime lowerings.
#pragma once

#include <optional>

#include "graph/ir.h"
#include "runtime/gemm.h"
#include "tensor/tensor.h"

namespace mvtee::runtime {

enum class ConvAlgo : uint8_t {
  kDirect = 0,   // straightforward 7-deep loop nest
  kIm2col,       // lower to GEMM via column matrix
};

std::string_view ConvAlgoName(ConvAlgo algo);

struct ConvParams {
  int64_t stride = 1;
  int64_t padding = 0;
  int64_t groups = 1;
};

// A kConv2d node's stride, padding and groups attributes.
ConvParams ConvParamsOf(const graph::Node& node);

// A conv weight packed once at bind (PackedWeightCache) for a narrow-map
// path, which otherwise re-derives it from the initializer per call:
//   kBlockedPanels : kBlocked im2col convs with groups == 1 and fewer
//                    than 8 output pixels: 8-row panels P[q][p][l] =
//                    W[8q+l][p], zero past OC (PackBlockedPanels).
//   kDepthwiseLanes: the depthwise loop of kBlocked and kTransposed:
//                    four channels per block, one per lane, as
//                    [C/4][taps][4], spare lanes zero.
enum class ConvPackLayout : uint8_t { kBlockedPanels, kDepthwiseLanes };

struct PackedConvWeight {
  util::PooledBuffer storage;
  ConvPackLayout layout = ConvPackLayout::kBlockedPanels;
  tensor::Shape weight_shape;  // of the initializer it was packed from

  size_t bytes() const { return storage.size(); }
};

// The layout Conv2d reads a packed weight in for this conv, whose output
// map has `out_pixels` = OH*OW pixels; nullopt where it reads the
// initializer as is.
std::optional<ConvPackLayout> ConvPackLayoutFor(const tensor::Shape& weight,
                                                const ConvParams& params,
                                                ConvAlgo algo,
                                                GemmBackend gemm,
                                                int64_t out_pixels);

PackedConvWeight PackConvWeight(const tensor::Tensor& weight,
                                ConvPackLayout layout,
                                util::BufferPool* pool);

// Aborts (MVTEE_CHECK) unless stride > 0, padding >= 0, groups > 0 and
// the kernel extents yield positive output dims — garbage conv params
// must fail loudly, never compute a garbage shape. The second overload
// also reads `packed` (nullptr: none), which must be this weight packed
// in this conv's ConvPackLayoutFor layout; outputs are bitwise identical
// either way, since packing only relocates values.
tensor::Tensor Conv2d(const tensor::Tensor& input, const tensor::Tensor& weight,
                      const tensor::Tensor* bias, const ConvParams& params,
                      ConvAlgo algo, GemmBackend gemm);
tensor::Tensor Conv2d(const tensor::Tensor& input, const tensor::Tensor& weight,
                      const tensor::Tensor* bias, const ConvParams& params,
                      ConvAlgo algo, GemmBackend gemm,
                      const PackedConvWeight* packed);

// y = x W^T + b, x:[N,IN], w:[OUT,IN]. The second overload consumes a
// weight prepacked with PackGemmWeightTransposed (the PackedWeightCache
// hot path): bitwise identical to the first, but the per-call W
// transpose and any backend-side packing are skipped. Pass nullptr to
// fall back to the self-contained path.
tensor::Tensor FullyConnected(const tensor::Tensor& input,
                              const tensor::Tensor& weight,
                              const tensor::Tensor* bias, GemmBackend gemm);
tensor::Tensor FullyConnected(const tensor::Tensor& input,
                              const tensor::Tensor& weight,
                              const tensor::Tensor* bias, GemmBackend gemm,
                              const PackedGemmB* packed);

tensor::Tensor Relu(const tensor::Tensor& x);
tensor::Tensor Relu6(const tensor::Tensor& x);
tensor::Tensor Sigmoid(const tensor::Tensor& x);
tensor::Tensor HardSwish(const tensor::Tensor& x);
tensor::Tensor Tanh(const tensor::Tensor& x);

tensor::Tensor MaxPool(const tensor::Tensor& x, int64_t kernel, int64_t stride,
                       int64_t padding);
tensor::Tensor AvgPool(const tensor::Tensor& x, int64_t kernel, int64_t stride,
                       int64_t padding);
tensor::Tensor GlobalAvgPool(const tensor::Tensor& x);

tensor::Tensor BatchNorm(const tensor::Tensor& x, const tensor::Tensor& scale,
                         const tensor::Tensor& bias,
                         const tensor::Tensor& mean, const tensor::Tensor& var,
                         float epsilon);

tensor::Tensor Add(const tensor::Tensor& a, const tensor::Tensor& b);
// Elementwise mul; rhs may be [N,C,1,1] against lhs [N,C,H,W].
tensor::Tensor Mul(const tensor::Tensor& a, const tensor::Tensor& b);
tensor::Tensor Concat(const std::vector<const tensor::Tensor*>& xs);
tensor::Tensor Flatten(const tensor::Tensor& x);
tensor::Tensor Softmax(const tensor::Tensor& x);
tensor::Tensor Scale(const tensor::Tensor& x, float alpha, float beta);

// Dispatched elementwise primitives shared by the tensor kernels above
// and the executor's in-place activation fast path. Each selects the
// AVX2 tier (kernels_avx2.cc) when util::UseAvx2Elementwise() allows
// and the scalar fallback otherwise; the two are bitwise identical for
// every input, so dispatch never shows up in checkpoint comparisons.
// All tolerate exact aliasing (in == out).
namespace elementwise {
void Relu(const float* in, float* out, int64_t n);
void Relu6(const float* in, float* out, int64_t n);
void HardSwish(const float* in, float* out, int64_t n);
void Add(const float* a, const float* b, float* out, int64_t n);
void AddScalar(const float* in, float s, float* out, int64_t n);
void Scale(const float* in, float alpha, float beta, float* out, int64_t n);
float MaxReduce(const float* x, int64_t n);  // n >= 1
void MulScalar(float* data, float s, int64_t n);
}  // namespace elementwise

}  // namespace mvtee::runtime
