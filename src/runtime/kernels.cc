#include "runtime/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "runtime/kernels_avx2.h"
#include "runtime/scratch.h"
#include "util/cpu_features.h"
#include "util/dataplane_stats.h"

namespace mvtee::runtime {

using tensor::Shape;
using tensor::Tensor;

std::string_view ConvAlgoName(ConvAlgo algo) {
  switch (algo) {
    case ConvAlgo::kDirect: return "direct";
    case ConvAlgo::kIm2col: return "im2col";
  }
  return "unknown";
}

namespace internal {

bool UseAvx2ElementwiseTier() {
  return Avx2ElementwiseCompiled() && util::UseAvx2Elementwise();
}

}  // namespace internal

namespace {

// Window geometry is validated before any output dim is computed: a
// non-positive stride, negative padding or non-positive kernel would
// silently produce garbage shapes (division by zero or negative
// extents), so they abort loudly instead (ISSUE: OutDim accepted
// stride <= 0 without complaint).
int64_t OutDim(int64_t in, int64_t k, int64_t stride, int64_t pad) {
  MVTEE_CHECK(stride > 0);
  MVTEE_CHECK(pad >= 0);
  MVTEE_CHECK(k > 0);
  MVTEE_CHECK(in > 0);
  return (in + 2 * pad - k) / stride + 1;
}

void ConvDirect(const Tensor& input, const Tensor& weight, const float* bias,
                const ConvParams& p, Tensor& out) {
  const int64_t N = input.shape().dim(0), C = input.shape().dim(1),
                H = input.shape().dim(2), W = input.shape().dim(3);
  const int64_t OC = weight.shape().dim(0), CG = weight.shape().dim(1),
                KH = weight.shape().dim(2), KW = weight.shape().dim(3);
  const int64_t OH = out.shape().dim(2), OW = out.shape().dim(3);
  const int64_t oc_per_group = OC / p.groups;

  for (int64_t n = 0; n < N; ++n) {
    for (int64_t oc = 0; oc < OC; ++oc) {
      const int64_t g = oc / oc_per_group;
      const float b = bias ? bias[oc] : 0.0f;
      for (int64_t oh = 0; oh < OH; ++oh) {
        for (int64_t ow = 0; ow < OW; ++ow) {
          float acc = b;
          for (int64_t cg = 0; cg < CG; ++cg) {
            const int64_t c = g * CG + cg;
            for (int64_t kh = 0; kh < KH; ++kh) {
              const int64_t ih = oh * p.stride + kh - p.padding;
              if (ih < 0 || ih >= H) continue;
              for (int64_t kw = 0; kw < KW; ++kw) {
                const int64_t iw = ow * p.stride + kw - p.padding;
                if (iw < 0 || iw >= W) continue;
                acc += input.data()[((n * C + c) * H + ih) * W + iw] *
                       weight.data()[((oc * CG + cg) * KH + kh) * KW + kw];
              }
            }
          }
          out.data()[((n * OC + oc) * OH + oh) * OW + ow] = acc;
        }
      }
    }
  }
}

// `panels`: the weight packed as kBlockedPanels, or nullptr.
void ConvIm2col(const Tensor& input, const Tensor& weight, const float* bias,
                const ConvParams& p, GemmBackend gemm, const float* panels,
                Tensor& out) {
  const int64_t N = input.shape().dim(0), C = input.shape().dim(1),
                H = input.shape().dim(2), W = input.shape().dim(3);
  const int64_t OC = weight.shape().dim(0), CG = weight.shape().dim(1),
                KH = weight.shape().dim(2), KW = weight.shape().dim(3);
  const int64_t OH = out.shape().dim(2), OW = out.shape().dim(3);
  const int64_t oc_per_group = OC / p.groups;
  const int64_t patch = CG * KH * KW;
  const int64_t cols = OH * OW;

  // 1x1/stride-1/no-padding convs (projection layers, SE blocks) have a
  // column matrix that IS the input group block: channels of one group
  // are contiguous, so col[cg][oh*OW+ow] == in_plane[oh*W+ow] exactly.
  // Feed the input to the GEMM directly — the fill and the col scratch
  // vanish, and the GEMM reads identical values, so outputs stay
  // bitwise identical to the filled path.
  const bool identity_cols =
      KH == 1 && KW == 1 && p.stride == 1 && p.padding == 0;

  // Scratch from the buffer pool: steady-state inference recycles this
  // chunk (pool.hits) instead of hitting the heap per call.
  util::PooledBuffer col_buf;
  if (!identity_cols) {
    col_buf = AcquireFloatScratch(static_cast<size_t>(patch * cols));
  }
  float* col = identity_cols ? nullptr : FloatScratch(col_buf);

  for (int64_t n = 0; n < N; ++n) {
    for (int64_t g = 0; g < p.groups; ++g) {
      const float* cols_matrix;
      if (identity_cols) {
        cols_matrix = input.data() + (n * C + g * CG) * H * W;
      } else {
        // im2col for this (batch, group).
        for (int64_t cg = 0; cg < CG; ++cg) {
          const int64_t c = g * CG + cg;
          const float* in_plane = input.data() + (n * C + c) * H * W;
          for (int64_t kh = 0; kh < KH; ++kh) {
            for (int64_t kw = 0; kw < KW; ++kw) {
              float* col_row = col + ((cg * KH + kh) * KW + kw) * cols;
              for (int64_t oh = 0; oh < OH; ++oh) {
                const int64_t ih = oh * p.stride + kh - p.padding;
                if (ih < 0 || ih >= H) {
                  std::fill(col_row + oh * OW, col_row + (oh + 1) * OW, 0.0f);
                  continue;
                }
                for (int64_t ow = 0; ow < OW; ++ow) {
                  const int64_t iw = ow * p.stride + kw - p.padding;
                  col_row[oh * OW + ow] =
                      (iw < 0 || iw >= W) ? 0.0f : in_plane[ih * W + iw];
                }
              }
            }
          }
        }
        cols_matrix = col;
      }
      // GEMM: weight[g] (oc_per_group x patch) * col (patch x cols),
      // straight into the group's output planes: C's row ocg is the
      // plane of channel g * oc_per_group + ocg.
      const float* w_group = weight.data() + g * oc_per_group * patch;
      float* out_group = out.data() + (n * OC + g * oc_per_group) * cols;
      if (panels != nullptr) {
        GemmBlockedPacked(w_group, panels, cols_matrix, out_group,
                          oc_per_group, cols, patch);
      } else {
        Gemm(gemm, w_group, cols_matrix, out_group, oc_per_group, cols,
             patch);
      }
      if (bias == nullptr) continue;
      const float* bias_group = bias + g * oc_per_group;
      if (cols == 1) {
        // A 1x1 map puts the group's outputs side by side: one vector
        // add over the group, the same result + bias per element.
        elementwise::Add(out_group, bias_group, out_group, oc_per_group);
        continue;
      }
      for (int64_t ocg = 0; ocg < oc_per_group; ++ocg) {
        float* plane = out_group + ocg * cols;
        elementwise::AddScalar(plane, bias_group[ocg], plane, cols);
      }
    }
  }
}

// Depthwise convs (one input and one output channel per group) skip
// im2col: per channel, the column matrix is K x (OH*OW) and the GEMM
// has m = 1, so the lowering costs more than the taps. The direct loop
// below reads the same values (a zero-padded copy of the plane, so
// padded taps multiply +0.0f exactly like the column matrix's zeros)
// and accumulates each output's K taps in the backend's own GEMM order,
// which keeps every variant's bits. kBlocked and kTransposed share
// ConvDepthwise, so for depthwise convs the ORT- and TVM-like presets
// are one failure domain (DESIGN.md section 14). kNaive, the hardened
// preset's backend, runs ConvDepthwiseNaive, which shares no code with
// it, as kNaive shares no GEMM code with kBlocked. kAvx2 keeps im2col:
// its fmaf chain in this baseline TU is a libm call per tap.
bool UseDepthwiseLowering(const Shape& weight, const ConvParams& p,
                          GemmBackend gemm) {
  return p.groups > 1 && weight.dim(1) == 1 && weight.dim(0) == p.groups &&
         gemm != GemmBackend::kAvx2;
}

// The hardened preset's depthwise loop: one channel at a time over a
// zero-padded plane, each output's taps as GemmNaive's chain
// (acc = +0, then acc += w[t] * x[t] in tap order).
void ConvDepthwiseNaive(const Tensor& input, const Tensor& weight,
                        const float* bias, const ConvParams& p, Tensor& out) {
  const int64_t N = input.shape().dim(0), C = input.shape().dim(1),
                H = input.shape().dim(2), W = input.shape().dim(3);
  const int64_t KH = weight.shape().dim(2), KW = weight.shape().dim(3);
  const int64_t OH = out.shape().dim(2), OW = out.shape().dim(3);
  const int64_t PH = H + 2 * p.padding, PW = W + 2 * p.padding;
  util::PooledBuffer scratch =
      AcquireFloatScratch(static_cast<size_t>(PH * PW));
  float* padded = FloatScratch(scratch);
  std::fill(padded, padded + PH * PW, 0.0f);
  for (int64_t n = 0; n < N; ++n) {
    for (int64_t c = 0; c < C; ++c) {
      const float* in_plane = input.data() + (n * C + c) * H * W;
      for (int64_t h = 0; h < H; ++h) {
        std::memcpy(padded + (h + p.padding) * PW + p.padding,
                    in_plane + h * W, static_cast<size_t>(W) * sizeof(float));
      }
      const float* w = weight.data() + c * KH * KW;
      float* out_plane = out.data() + (n * C + c) * OH * OW;
      for (int64_t oh = 0; oh < OH; ++oh) {
        for (int64_t ow = 0; ow < OW; ++ow) {
          const float* x = padded + oh * p.stride * PW + ow * p.stride;
          float acc = 0.0f;
          for (int64_t kh = 0; kh < KH; ++kh) {
            for (int64_t kw = 0; kw < KW; ++kw) {
              acc += w[kh * KW + kw] * x[kh * PW + kw];
            }
          }
          out_plane[oh * OW + ow] = acc;
        }
      }
      if (bias) elementwise::AddScalar(out_plane, bias[c], out_plane, OH * OW);
    }
  }
}

// Four channels side by side, one per lane. Lane arithmetic is plain
// IEEE mul and add on each element, so a lane computes exactly what the
// scalar loop would for its channel; the vector width only removes the
// per-channel loop overhead that dominates the small maps of MobileNet-
// style models.
using ChannelLanes = float __attribute__((vector_size(16)));
constexpr int64_t kChannelLanes = 4;

// One block of `lanes` (<= 4) channels' weights, w[c][t] for c < lanes,
// as taps x lanes with the spare lanes zero: the layout the depthwise
// loop reads, from a bind-time pack (kDepthwiseLanes) or from here.
void InterleaveWeights(const float* w, int64_t lanes, int64_t taps,
                       ChannelLanes* out) {
  for (int64_t t = 0; t < taps; ++t) {
    out[t] = ChannelLanes{};
    for (int64_t l = 0; l < lanes; ++l) out[t][l] = w[l * taps + t];
  }
}

// acc[ow] += w * src[ow * stride] for one output row and one tap: the
// mul-then-add step of every GEMM order, four channels at a time.
inline void AccumulateTap(ChannelLanes* __restrict acc, ChannelLanes w,
                          const ChannelLanes* __restrict src,
                          int64_t ow_count, int64_t stride) {
  for (int64_t ow = 0; ow < ow_count; ++ow) acc[ow] += w * src[ow * stride];
}

// `lanes_packed`: the weight packed as kDepthwiseLanes, or nullptr to
// interleave each block's weights here.
void ConvDepthwise(const Tensor& input, const Tensor& weight,
                   const ChannelLanes* lanes_packed, const float* bias,
                   const ConvParams& p, GemmBackend gemm, Tensor& out) {
  const int64_t N = input.shape().dim(0), C = input.shape().dim(1),
                H = input.shape().dim(2), W = input.shape().dim(3);
  const int64_t KH = weight.shape().dim(2), KW = weight.shape().dim(3);
  const int64_t OH = out.shape().dim(2), OW = out.shape().dim(3);
  const int64_t PH = H + 2 * p.padding, PW = W + 2 * p.padding;
  const int64_t taps = KH * KW;
  // GemmTransposedFromBt's order: four partial sums over p mod 4, then
  // (s0+s1)+(s2+s3), then the remaining taps in order. GemmBlockedRows
  // runs the plain sequential chain.
  const bool four_way = gemm == GemmBackend::kTransposed;
  const int64_t split = four_way ? taps - taps % 4 : 0;

  // One pooled chunk: the lane-interleaved padded planes, output planes,
  // weights and partial-sum rows, then each tap's offset into a plane.
  const int64_t lane_vectors = PH * PW + OH * OW + taps + 4 * OW;
  util::PooledBuffer scratch = util::BufferPool::Default().Acquire(
      static_cast<size_t>(lane_vectors) * sizeof(ChannelLanes) +
      static_cast<size_t>(taps) * sizeof(int64_t));
  MVTEE_CHECK(reinterpret_cast<uintptr_t>(scratch.data()) %
                  alignof(ChannelLanes) ==
              0);
  ChannelLanes* padded = reinterpret_cast<ChannelLanes*>(scratch.data());
  ChannelLanes* acc_plane = padded + PH * PW;
  ChannelLanes* w_block = acc_plane + OH * OW;
  ChannelLanes* partial = w_block + taps;
  int64_t* tap_offset = reinterpret_cast<int64_t*>(padded + lane_vectors);
  for (int64_t kh = 0; kh < KH; ++kh) {
    for (int64_t kw = 0; kw < KW; ++kw) tap_offset[kh * KW + kw] = kh * PW + kw;
  }
  // The border stays zero; only the interior is rewritten per block.
  // In a last, partial block the spare lanes get zero weights, compute
  // on the previous block's inputs, and are dropped.
  std::fill(padded, padded + PH * PW, ChannelLanes{});

  for (int64_t n = 0; n < N; ++n) {
    for (int64_t c0 = 0; c0 < C; c0 += kChannelLanes) {
      const int64_t lanes = std::min(kChannelLanes, C - c0);
      const ChannelLanes* w = w_block;
      if (lanes_packed != nullptr) {
        w = lanes_packed + c0 / kChannelLanes * taps;
      } else {
        InterleaveWeights(weight.data() + c0 * taps, lanes, taps, w_block);
      }
      for (int64_t l = 0; l < lanes; ++l) {
        const float* in_plane = input.data() + (n * C + c0 + l) * H * W;
        for (int64_t h = 0; h < H; ++h) {
          ChannelLanes* row = padded + (h + p.padding) * PW + p.padding;
          for (int64_t x = 0; x < W; ++x) row[x][l] = in_plane[h * W + x];
        }
      }
      for (int64_t oh = 0; oh < OH; ++oh) {
        const ChannelLanes* rows = padded + oh * p.stride * PW;
        ChannelLanes* acc = acc_plane + oh * OW;
        if (four_way) {
          std::fill(partial, partial + 4 * OW, ChannelLanes{});
          for (int64_t t = 0; t < split; ++t) {
            AccumulateTap(partial + (t % 4) * OW, w[t], rows + tap_offset[t],
                          OW, p.stride);
          }
          for (int64_t ow = 0; ow < OW; ++ow) {
            acc[ow] = (partial[ow] + partial[OW + ow]) +
                      (partial[2 * OW + ow] + partial[3 * OW + ow]);
          }
        } else {
          std::fill(acc, acc + OW, ChannelLanes{});
        }
        for (int64_t t = split; t < taps; ++t) {
          AccumulateTap(acc, w[t], rows + tap_offset[t], OW, p.stride);
        }
      }
      if (bias) {
        // acc + bias per element, as the im2col scatter adds it, in lane
        // space (spare lanes add +0 and are dropped).
        ChannelLanes b{};
        for (int64_t l = 0; l < lanes; ++l) b[l] = bias[c0 + l];
        for (int64_t i = 0; i < OH * OW; ++i) acc_plane[i] = acc_plane[i] + b;
      }
      for (int64_t l = 0; l < lanes; ++l) {
        float* out_plane = out.data() + (n * C + c0 + l) * OH * OW;
        for (int64_t i = 0; i < OH * OW; ++i) out_plane[i] = acc_plane[i][l];
      }
    }
  }
}

template <typename F>
Tensor ElementwiseUnary(const Tensor& x, F f) {
  Tensor out(x.shape());
  const float* in = x.data();
  float* o = out.data();
  for (int64_t i = 0; i < x.num_elements(); ++i) o[i] = f(in[i]);
  return out;
}

}  // namespace

ConvParams ConvParamsOf(const graph::Node& node) {
  ConvParams params;
  params.stride = node.attrs.GetInt("stride", 1);
  params.padding = node.attrs.GetInt("padding", 0);
  params.groups = node.attrs.GetInt("groups", 1);
  return params;
}

std::optional<ConvPackLayout> ConvPackLayoutFor(const Shape& weight,
                                                const ConvParams& params,
                                                ConvAlgo algo,
                                                GemmBackend gemm,
                                                int64_t out_pixels) {
  if (algo != ConvAlgo::kIm2col || weight.rank() != 4 ||
      weight.num_elements() <= 0) {
    return std::nullopt;
  }
  if (UseDepthwiseLowering(weight, params, gemm)) {
    if (gemm == GemmBackend::kNaive) return std::nullopt;
    return ConvPackLayout::kDepthwiseLanes;
  }
  if (params.groups == 1 && gemm == GemmBackend::kBlocked &&
      out_pixels < internal::kBlockedPanelRows) {
    return ConvPackLayout::kBlockedPanels;
  }
  return std::nullopt;
}

PackedConvWeight PackConvWeight(const Tensor& weight, ConvPackLayout layout,
                                util::BufferPool* pool) {
  const Shape& shape = weight.shape();
  MVTEE_CHECK(shape.rank() == 4 && weight.num_elements() > 0);
  const int64_t rows = shape.dim(0);
  const int64_t patch = shape.dim(1) * shape.dim(2) * shape.dim(3);
  PackedConvWeight out;
  out.layout = layout;
  out.weight_shape = shape;
  if (layout == ConvPackLayout::kBlockedPanels) {
    out.storage = PackBlockedPanels(weight.data(), rows, patch, pool);
    return out;
  }
  const int64_t blocks = (rows + kChannelLanes - 1) / kChannelLanes;
  out.storage = pool->Acquire(static_cast<size_t>(blocks * patch) *
                              sizeof(ChannelLanes));
  MVTEE_CHECK(reinterpret_cast<uintptr_t>(out.storage.data()) %
                  alignof(ChannelLanes) ==
              0);
  ChannelLanes* dst = reinterpret_cast<ChannelLanes*>(out.storage.data());
  for (int64_t b = 0; b < blocks; ++b) {
    const int64_t c0 = b * kChannelLanes;
    InterleaveWeights(weight.data() + c0 * patch,
                      std::min(kChannelLanes, rows - c0), patch,
                      dst + b * patch);
  }
  util::CountDataPlaneCopy(out.bytes());
  return out;
}

Tensor Conv2d(const Tensor& input, const Tensor& weight, const Tensor* bias,
              const ConvParams& params, ConvAlgo algo, GemmBackend gemm) {
  return Conv2d(input, weight, bias, params, algo, gemm, nullptr);
}

Tensor Conv2d(const Tensor& input, const Tensor& weight, const Tensor* bias,
              const ConvParams& params, ConvAlgo algo, GemmBackend gemm,
              const PackedConvWeight* packed) {
  MVTEE_CHECK(input.shape().rank() == 4 && weight.shape().rank() == 4);
  MVTEE_CHECK(params.groups > 0);
  MVTEE_CHECK(weight.shape().dim(0) % params.groups == 0);
  MVTEE_CHECK(input.shape().dim(1) ==
              weight.shape().dim(1) * params.groups);
  const int64_t OH = OutDim(input.shape().dim(2), weight.shape().dim(2),
                            params.stride, params.padding);
  const int64_t OW = OutDim(input.shape().dim(3), weight.shape().dim(3),
                            params.stride, params.padding);
  MVTEE_CHECK(OH > 0 && OW > 0);
  Tensor out(
      Shape({input.shape().dim(0), weight.shape().dim(0), OH, OW}));
  const float* b = bias ? bias->data() : nullptr;
  const uint8_t* packed_bytes = nullptr;
  if (packed != nullptr) {
    MVTEE_CHECK(packed->weight_shape == weight.shape());
    MVTEE_CHECK(ConvPackLayoutFor(weight.shape(), params, algo, gemm,
                                  OH * OW) == packed->layout);
    packed_bytes = packed->storage.data();
  }
  if (algo == ConvAlgo::kDirect) {
    ConvDirect(input, weight, b, params, out);
  } else if (UseDepthwiseLowering(weight.shape(), params, gemm)) {
    if (gemm == GemmBackend::kNaive) {
      ConvDepthwiseNaive(input, weight, b, params, out);
    } else {
      ConvDepthwise(input, weight,
                    reinterpret_cast<const ChannelLanes*>(packed_bytes), b,
                    params, gemm, out);
    }
  } else {
    ConvIm2col(input, weight, b, params, gemm,
               reinterpret_cast<const float*>(packed_bytes), out);
  }
  return out;
}

Tensor FullyConnected(const Tensor& input, const Tensor& weight,
                      const Tensor* bias, GemmBackend gemm) {
  return FullyConnected(input, weight, bias, gemm, nullptr);
}

Tensor FullyConnected(const Tensor& input, const Tensor& weight,
                      const Tensor* bias, GemmBackend gemm,
                      const PackedGemmB* packed) {
  MVTEE_CHECK(input.shape().rank() == 2 && weight.shape().rank() == 2);
  const int64_t N = input.shape().dim(0), IN = input.shape().dim(1),
                OUT = weight.shape().dim(0);
  MVTEE_CHECK(weight.shape().dim(1) == IN);
  Tensor out(Shape({N, OUT}));
  if (packed != nullptr) {
    // Cached weight: B = W^T is already in the backend's hot-path
    // layout, so the per-call transpose (and any backend-side packing)
    // is skipped entirely. Bitwise identical to the cold path below —
    // packing only relocates values, never reorders accumulation.
    MVTEE_CHECK(packed->backend == gemm);
    MVTEE_CHECK(packed->n == OUT && packed->k == IN);
    GemmPrepacked(input.data(), *packed, out.data(), N);
  } else {
    // Transpose W to [IN, OUT] then GEMM x[N,IN] * wt[IN,OUT]; the
    // transpose scratch comes from the buffer pool.
    util::PooledBuffer wt_buf =
        AcquireFloatScratch(static_cast<size_t>(IN * OUT));
    float* wt = FloatScratch(wt_buf);
    for (int64_t o = 0; o < OUT; ++o) {
      for (int64_t i = 0; i < IN; ++i) {
        wt[i * OUT + o] = weight.data()[o * IN + i];
      }
    }
    Gemm(gemm, input.data(), wt, out.data(), N, OUT, IN);
  }
  if (bias) {
    // Row-wise vector add of the bias (out += b per row).
    for (int64_t n = 0; n < N; ++n) {
      float* out_row = out.data() + n * OUT;
      elementwise::Add(out_row, bias->data(), out_row, OUT);
    }
  }
  return out;
}

Tensor Relu(const Tensor& x) {
  Tensor out(x.shape());
  elementwise::Relu(x.data(), out.data(), x.num_elements());
  return out;
}

Tensor Relu6(const Tensor& x) {
  Tensor out(x.shape());
  elementwise::Relu6(x.data(), out.data(), x.num_elements());
  return out;
}

Tensor Sigmoid(const Tensor& x) {
  return ElementwiseUnary(
      x, [](float v) { return 1.0f / (1.0f + std::exp(-v)); });
}

Tensor HardSwish(const Tensor& x) {
  Tensor out(x.shape());
  elementwise::HardSwish(x.data(), out.data(), x.num_elements());
  return out;
}

Tensor Tanh(const Tensor& x) {
  return ElementwiseUnary(x, [](float v) { return std::tanh(v); });
}

namespace {
template <bool kMax>
Tensor Pool(const Tensor& x, int64_t kernel, int64_t stride, int64_t padding) {
  MVTEE_CHECK(x.shape().rank() == 4);
  const int64_t N = x.shape().dim(0), C = x.shape().dim(1),
                H = x.shape().dim(2), W = x.shape().dim(3);
  const int64_t OH = OutDim(H, kernel, stride, padding);
  const int64_t OW = OutDim(W, kernel, stride, padding);
  MVTEE_CHECK(OH > 0 && OW > 0);
  Tensor out(Shape({N, C, OH, OW}));
  for (int64_t n = 0; n < N; ++n) {
    for (int64_t c = 0; c < C; ++c) {
      const float* in_plane = x.data() + (n * C + c) * H * W;
      float* out_plane = out.data() + (n * C + c) * OH * OW;
      for (int64_t oh = 0; oh < OH; ++oh) {
        for (int64_t ow = 0; ow < OW; ++ow) {
          float acc = kMax ? -std::numeric_limits<float>::infinity() : 0.0f;
          for (int64_t kh = 0; kh < kernel; ++kh) {
            const int64_t ih = oh * stride + kh - padding;
            if (ih < 0 || ih >= H) continue;
            for (int64_t kw = 0; kw < kernel; ++kw) {
              const int64_t iw = ow * stride + kw - padding;
              if (iw < 0 || iw >= W) continue;
              const float v = in_plane[ih * W + iw];
              if constexpr (kMax) {
                acc = std::max(acc, v);
              } else {
                acc += v;
              }
            }
          }
          if constexpr (!kMax) {
            acc /= static_cast<float>(kernel * kernel);
          }
          out_plane[oh * OW + ow] = acc;
        }
      }
    }
  }
  return out;
}
}  // namespace

Tensor MaxPool(const Tensor& x, int64_t kernel, int64_t stride,
               int64_t padding) {
  return Pool<true>(x, kernel, stride, padding);
}

Tensor AvgPool(const Tensor& x, int64_t kernel, int64_t stride,
               int64_t padding) {
  return Pool<false>(x, kernel, stride, padding);
}

Tensor GlobalAvgPool(const Tensor& x) {
  MVTEE_CHECK(x.shape().rank() == 4);
  const int64_t N = x.shape().dim(0), C = x.shape().dim(1),
                HW = x.shape().dim(2) * x.shape().dim(3);
  Tensor out(Shape({N, C, 1, 1}));
  for (int64_t n = 0; n < N; ++n) {
    for (int64_t c = 0; c < C; ++c) {
      const float* plane = x.data() + (n * C + c) * HW;
      double acc = 0;
      for (int64_t i = 0; i < HW; ++i) acc += plane[i];
      out.data()[n * C + c] = static_cast<float>(acc / HW);
    }
  }
  return out;
}

Tensor BatchNorm(const Tensor& x, const Tensor& scale, const Tensor& bias,
                 const Tensor& mean, const Tensor& var, float epsilon) {
  MVTEE_CHECK(x.shape().rank() == 4);
  const int64_t N = x.shape().dim(0), C = x.shape().dim(1),
                HW = x.shape().dim(2) * x.shape().dim(3);
  MVTEE_CHECK(scale.num_elements() == C);
  Tensor out(x.shape());
  for (int64_t c = 0; c < C; ++c) {
    const float inv_std = 1.0f / std::sqrt(var.at(c) + epsilon);
    const float a = scale.at(c) * inv_std;
    const float b = bias.at(c) - mean.at(c) * a;
    for (int64_t n = 0; n < N; ++n) {
      const float* in_plane = x.data() + (n * C + c) * HW;
      float* out_plane = out.data() + (n * C + c) * HW;
      for (int64_t i = 0; i < HW; ++i) out_plane[i] = in_plane[i] * a + b;
    }
  }
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  MVTEE_CHECK(a.shape() == b.shape());
  Tensor out(a.shape());
  elementwise::Add(a.data(), b.data(), out.data(), a.num_elements());
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  if (a.shape() == b.shape()) {
    Tensor out(a.shape());
    for (int64_t i = 0; i < a.num_elements(); ++i) {
      out.data()[i] = a.at(i) * b.at(i);
    }
    return out;
  }
  // Channel broadcast: b is [N,C,1,1].
  MVTEE_CHECK(a.shape().rank() == 4 && b.shape().rank() == 4);
  MVTEE_CHECK(b.shape().dim(2) == 1 && b.shape().dim(3) == 1);
  MVTEE_CHECK(a.shape().dim(0) == b.shape().dim(0) &&
              a.shape().dim(1) == b.shape().dim(1));
  const int64_t N = a.shape().dim(0), C = a.shape().dim(1),
                HW = a.shape().dim(2) * a.shape().dim(3);
  Tensor out(a.shape());
  for (int64_t n = 0; n < N; ++n) {
    for (int64_t c = 0; c < C; ++c) {
      const float s = b.data()[n * C + c];
      const float* in_plane = a.data() + (n * C + c) * HW;
      float* out_plane = out.data() + (n * C + c) * HW;
      for (int64_t i = 0; i < HW; ++i) out_plane[i] = in_plane[i] * s;
    }
  }
  return out;
}

Tensor Concat(const std::vector<const Tensor*>& xs) {
  MVTEE_CHECK(xs.size() >= 2);
  const Shape& first = xs[0]->shape();
  MVTEE_CHECK(first.rank() == 4);
  int64_t channels = 0;
  for (const Tensor* t : xs) channels += t->shape().dim(1);
  const int64_t N = first.dim(0), H = first.dim(2), W = first.dim(3);
  Tensor out(Shape({N, channels, H, W}));
  const int64_t hw = H * W;
  for (int64_t n = 0; n < N; ++n) {
    int64_t c_off = 0;
    for (const Tensor* t : xs) {
      const int64_t tc = t->shape().dim(1);
      MVTEE_CHECK(t->shape().dim(0) == N && t->shape().dim(2) == H &&
                  t->shape().dim(3) == W);
      std::copy(t->data() + n * tc * hw, t->data() + (n + 1) * tc * hw,
                out.data() + (n * channels + c_off) * hw);
      c_off += tc;
    }
  }
  return out;
}

Tensor Flatten(const Tensor& x) {
  MVTEE_CHECK(x.shape().rank() >= 2);
  int64_t rest = 1;
  for (int64_t i = 1; i < x.shape().rank(); ++i) rest *= x.shape().dim(i);
  // Pure reshape: alias the input's storage (views included) instead of
  // copying the element vector.
  return Tensor::Reshape(x, Shape({x.shape().dim(0), rest}));
}

Tensor Softmax(const Tensor& x) {
  MVTEE_CHECK(x.shape().rank() == 2);
  const int64_t N = x.shape().dim(0), D = x.shape().dim(1);
  Tensor out(x.shape());
  for (int64_t n = 0; n < N; ++n) {
    const float* row = x.data() + n * D;
    float* out_row = out.data() + n * D;
    // Max and normalize passes dispatch to the AVX2 tier; the exp and
    // double-precision sum passes stay scalar on purpose — libm's exp
    // has no bitwise-identical vector twin, and dispatch must never
    // change a variant's numeric profile.
    const float max_v = elementwise::MaxReduce(row, D);
    double sum = 0;
    for (int64_t i = 0; i < D; ++i) {
      out_row[i] = std::exp(row[i] - max_v);
      sum += out_row[i];
    }
    const float inv = static_cast<float>(1.0 / sum);
    elementwise::MulScalar(out_row, inv, D);
  }
  return out;
}

Tensor Scale(const Tensor& x, float alpha, float beta) {
  Tensor out(x.shape());
  elementwise::Scale(x.data(), alpha, beta, out.data(), x.num_elements());
  return out;
}

namespace elementwise {

// Scalar fallbacks mirror the vector tier's per-element semantics
// exactly (see kernels_avx2.h); both sides round once per operation,
// so the memcmp parity tests hold for arbitrary inputs.

namespace {

// a + b with a as the first source operand, as the AVX2 tier pins it:
// the two agree on NaN payloads when both operands are NaN.
inline float AddFirst(float a, float b) {
#if defined(__SSE2__)
  asm("addss %1, %0" : "+x"(a) : "x"(b));
  return a;
#else
  return a + b;
#endif
}

}  // namespace

void Relu(const float* in, float* out, int64_t n) {
  if (internal::UseAvx2ElementwiseTier()) {
    internal::ReluAvx2(in, out, n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) out[i] = in[i] > 0 ? in[i] : 0.0f;
}

void Relu6(const float* in, float* out, int64_t n) {
  if (internal::UseAvx2ElementwiseTier()) {
    internal::Relu6Avx2(in, out, n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) {
    out[i] = std::min(6.0f, std::max(0.0f, in[i]));
  }
}

void HardSwish(const float* in, float* out, int64_t n) {
  if (internal::UseAvx2ElementwiseTier()) {
    internal::HardSwishAvx2(in, out, n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) {
    out[i] = in[i] * std::min(6.0f, std::max(0.0f, in[i] + 3.0f)) / 6.0f;
  }
}

void Add(const float* a, const float* b, float* out, int64_t n) {
  if (internal::UseAvx2ElementwiseTier()) {
    internal::AddAvx2(a, b, out, n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) out[i] = AddFirst(a[i], b[i]);
}

void AddScalar(const float* in, float s, float* out, int64_t n) {
  if (internal::UseAvx2ElementwiseTier()) {
    internal::AddScalarAvx2(in, s, out, n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) out[i] = AddFirst(in[i], s);
}

void Scale(const float* in, float alpha, float beta, float* out, int64_t n) {
  if (internal::UseAvx2ElementwiseTier()) {
    internal::ScaleAvx2(in, alpha, beta, out, n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) out[i] = in[i] * alpha + beta;
}

float MaxReduce(const float* x, int64_t n) {
  MVTEE_CHECK(n >= 1);
  if (internal::UseAvx2ElementwiseTier()) return internal::MaxReduceAvx2(x, n);
  float m = x[0];
  for (int64_t i = 1; i < n; ++i) m = std::max(m, x[i]);
  return m;
}

void MulScalar(float* data, float s, int64_t n) {
  if (internal::UseAvx2ElementwiseTier()) {
    internal::MulScalarAvx2(data, s, n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) data[i] *= s;
}

}  // namespace elementwise

}  // namespace mvtee::runtime
