// Property-based and fuzz-style tests across module boundaries:
// parameterized sweeps over sizes, partition counts and transform
// compositions, plus decoder robustness against truncation/corruption.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/consistency.h"
#include "core/messages.h"
#include "crypto/aead.h"
#include "crypto/sha256.h"
#include "graph/builder.h"
#include "graph/model_zoo.h"
#include "partition/partition.h"
#include "runtime/executor.h"
#include "runtime/kernels.h"
#include "runtime/pack_cache.h"
#include "util/cpu_features.h"
#include "tee/enclave.h"
#include "obs/metrics.h"
#include "transport/channel.h"
#include "transport/secure_channel.h"
#include "variant/spec.h"
#include "tricky_floats.h"

namespace mvtee {
namespace {

using graph::Graph;
using tensor::Shape;
using tensor::Tensor;

// ------------------------------------------------------------ crypto sweep

class GcmSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(GcmSizeSweep, SealOpenRoundTrip) {
  util::Bytes key(32, 0x5a), nonce(12, 0x21);
  util::Rng rng(GetParam() + 1);
  util::Bytes pt(GetParam());
  for (auto& b : pt) b = static_cast<uint8_t>(rng.NextU64());
  crypto::AesGcm gcm(key);
  auto sealed = gcm.Seal(nonce, util::ToBytes("aad"), pt);
  EXPECT_EQ(sealed.size(), pt.size() + crypto::kGcmTagSize);
  auto opened = gcm.Open(nonce, util::ToBytes("aad"), sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
}

TEST_P(GcmSizeSweep, SingleBitFlipAnywhereDetected) {
  if (GetParam() > 4096) GTEST_SKIP() << "bit sweep too slow";
  util::Bytes key(32, 0x5a), nonce(12, 0x22);
  util::Bytes pt(GetParam(), 0x77);
  crypto::AesGcm gcm(key);
  auto sealed = gcm.Seal(nonce, {}, pt);
  util::Rng rng(3);
  // Sample up to 32 random byte positions (plus first/last).
  std::vector<size_t> positions = {0, sealed.size() - 1};
  for (int i = 0; i < 32; ++i) {
    positions.push_back(rng.UniformU64(sealed.size()));
  }
  for (size_t pos : positions) {
    auto corrupt = sealed;
    corrupt[pos] ^= static_cast<uint8_t>(1u << rng.UniformU64(8));
    EXPECT_FALSE(gcm.Open(nonce, {}, corrupt).ok()) << "pos " << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GcmSizeSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 33, 255,
                                           256, 1000, 65536));

TEST(Sha256Property, DistinctInputsDistinctDigests) {
  // Sanity over a family of near-identical messages.
  std::set<std::string> digests;
  util::Bytes msg(128, 0);
  for (int i = 0; i < 200; ++i) {
    msg[static_cast<size_t>(i) % msg.size()] ^= 1;
    digests.insert(util::HexEncode(crypto::Sha256Bytes(msg)));
  }
  EXPECT_EQ(digests.size(), 200u);
}

// -------------------------------------------------------- partition sweep

struct PartitionCase {
  graph::ModelKind model;
  int64_t parts;
};

class PartitionSweep
    : public ::testing::TestWithParam<std::tuple<graph::ModelKind, int>> {};

TEST_P(PartitionSweep, ValidCoverAndOrdering) {
  auto [kind, parts] = GetParam();
  graph::ZooConfig cfg;
  cfg.input_hw = 32;
  Graph g = graph::BuildModel(kind, cfg);
  partition::PartitionOptions opts;
  opts.target_partitions = parts;
  opts.seed = 97;
  auto set = partition::RandomContraction(g, opts);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_EQ(set->num_partitions(), parts);

  // Exact cover.
  std::set<graph::NodeId> seen;
  for (const auto& p : set->partitions) {
    for (auto id : p.nodes) EXPECT_TRUE(seen.insert(id).second);
  }
  EXPECT_EQ(static_cast<int64_t>(seen.size()), g.num_nodes());

  // Forward-only cross-partition edges.
  std::map<graph::NodeId, size_t> stage_of;
  for (size_t si = 0; si < set->partitions.size(); ++si) {
    for (auto id : set->partitions[si].nodes) stage_of[id] = si;
  }
  for (const auto& node : g.nodes()) {
    for (auto in : node.inputs) {
      EXPECT_LE(stage_of[in], stage_of[node.id]);
    }
  }

  // The partitioned model stays executable and equivalent.
  auto pm = partition::BuildPartitionedModel(g, *set);
  ASSERT_TRUE(pm.ok()) << pm.status().ToString();
  for (const auto& stage : pm->stages) {
    EXPECT_TRUE(stage.Validate().ok());
    EXPECT_TRUE(stage.InferShapes().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionSweep,
    ::testing::Combine(::testing::Values(graph::ModelKind::kResNet50,
                                         graph::ModelKind::kGoogleNet,
                                         graph::ModelKind::kEfficientNetB7),
                       ::testing::Values(2, 4, 6, 9)),
    [](const auto& info) {
      std::string name(graph::ModelName(std::get<0>(info.param)));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_p" + std::to_string(std::get<1>(info.param));
    });

// ----------------------------------------------- transform compositions

TEST(TransformComposition, RandomOrdersStayEquivalent) {
  graph::ModelBuilder b(77);
  auto x = b.Input("in", Shape({1, 4, 12, 12}));
  x = b.ConvBnRelu(x, 8, 3, 1, 1);
  auto skip = x;
  x = b.ConvBnRelu(x, 8, 3, 1, 1);
  x = b.Relu(b.Add(x, skip));
  x = b.GlobalAvgPool(x);
  x = b.Flatten(x);
  x = b.Gemm(x, 6);
  b.MarkOutput(x);
  Graph g = b.Build();

  util::Rng rng(5);
  auto input = Tensor::RandomUniform(Shape({1, 4, 12, 12}), rng);
  auto ref_exec =
      runtime::Executor::Create(g, runtime::ReferenceExecutorConfig());
  ASSERT_TRUE(ref_exec.ok());
  auto expected = (*ref_exec)->Run({input});
  ASSERT_TRUE(expected.ok());

  std::vector<variant::GraphTransform> all = {
      variant::GraphTransform::kInsertDummyOps,
      variant::GraphTransform::kSplitConv,
      variant::GraphTransform::kShuffleChannels,
      variant::GraphTransform::kReorderCommutative,
      variant::GraphTransform::kSelectiveBnFold,
      variant::GraphTransform::kConvToFc,
  };
  for (uint64_t trial = 0; trial < 6; ++trial) {
    auto order = all;
    util::Rng order_rng(trial);
    order_rng.Shuffle(order);
    variant::VariantSpec spec;
    spec.id = "trial" + std::to_string(trial);
    spec.graph_transforms = order;
    spec.transform_seed = trial * 31 + 7;
    spec.exec_config = runtime::OrtLikeExecutorConfig();
    auto vg = variant::BuildVariantGraph(g, spec);
    ASSERT_TRUE(vg.ok()) << trial << ": " << vg.status().ToString();
    auto exec = runtime::Executor::Create(*vg, spec.exec_config);
    ASSERT_TRUE(exec.ok());
    auto out = (*exec)->Run({input});
    ASSERT_TRUE(out.ok());
    EXPECT_GT(tensor::CosineSimilarity((*expected)[0], (*out)[0]), 0.9999)
        << "trial " << trial;
  }
}

// ------------------------------------------- decoder fuzz (every message)
//
// Deterministic mutation fuzz over every wire message type. Each valid
// frame is truncated, bit-flipped, has every 4-byte window inflated,
// and is decoded under all 256 tags by every type's decoder. Every call
// must return a status; a mutated frame that decodes must re-encode to
// a fixed point of decode + encode.

template <template <class...> class List>
using WireMessages =
    List<core::AssignIdentityMsg, core::IdentityAckMsg, core::InferMsg,
         core::InferResultMsg, core::ShutdownMsg, core::SetupRoutesMsg,
         core::RoutesAckMsg, core::StageDataMsg, core::ProvisionMsg,
         core::ProvisionResultMsg, core::AttestQueryMsg,
         core::AttestReplyMsg, core::SessionSubmitMsg,
         core::SessionReplyMsg>;

template <class... Ms>
struct TypeList {};

// Calls f(std::type_identity<M>{}) for every wire message type M.
template <class F, class... Ms>
void ForEachMessage(TypeList<Ms...>, F&& f) {
  (f(std::type_identity<Ms>{}), ...);
}

Tensor FuzzTensor(Shape shape, uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::RandomUniform(std::move(shape), rng);
}

// One valid message of type M that sets every field of M.
template <class M>
M SampleMessage();

template <>
core::AssignIdentityMsg SampleMessage() {
  return {.variant_id = "v0", .variant_key = util::Bytes(32, 1)};
}
template <>
core::IdentityAckMsg SampleMessage() {
  core::IdentityAckMsg m{.variant_id = "v0", .ok = true, .error = "e"};
  m.manifest_hash.fill(7);
  return m;
}
template <>
core::InferMsg SampleMessage() {
  return {.batch_id = 5,
          .vtime_us = 9,
          .slots = {0, 1},
          .inputs = {FuzzTensor(Shape({2, 3}), 1), FuzzTensor(Shape({4}), 2)}};
}
template <>
core::InferResultMsg SampleMessage() {
  return {.batch_id = 5,
          .vtime_us = 9,
          .ok = true,
          .outputs = {FuzzTensor(Shape({3, 3}), 3)},
          .error = "partial"};
}
template <>
core::ShutdownMsg SampleMessage() {
  return {};
}
template <>
core::SetupRoutesMsg SampleMessage() {
  return {.upstream = {{.pipe_id = 5}},
          .downstream = {{.pipe_id = 6, .output_to_slot = {{0, 1}, {1, 0}}}},
          .report_to_monitor = false};
}
template <>
core::RoutesAckMsg SampleMessage() {
  return {.ok = false, .error = "nope"};
}
template <>
core::StageDataMsg SampleMessage() {
  return {.batch_id = 3,
          .vtime_us = 4,
          .slots = {2},
          .tensors = {FuzzTensor(Shape({5}), 4)}};
}
template <>
core::ProvisionMsg SampleMessage() {
  return {.nonce = util::Bytes(16, 2),
          .bundle_config = util::Bytes(20, 3),
          .stage_variant_ids = {{"a", "bb"}, {"ccc"}}};
}
template <>
core::ProvisionResultMsg SampleMessage() {
  return {.nonce = util::Bytes(16, 2),
          .ok = true,
          .error = "late",
          .bound_variant_ids = {"a", "bb"}};
}
template <>
core::AttestQueryMsg SampleMessage() {
  return {.nonce = util::Bytes(24, 4)};
}
template <>
core::AttestReplyMsg SampleMessage() {
  return {.nonce = util::Bytes(24, 4),
          .variant_reports = {util::Bytes(20, 5), util::Bytes(21, 6)}};
}
template <>
core::SessionSubmitMsg SampleMessage() {
  return {.seq = 21,
          .deadline_us = -5,
          .tenant = "t",
          .priority = -2,
          .model = "m",
          .inputs = {FuzzTensor(Shape({2, 2}), 5)}};
}
template <>
core::SessionReplyMsg SampleMessage() {
  return {.seq = 21,
          .code = 3,
          .latency_us = 250,
          .error = "x",
          .outputs = {FuzzTensor(Shape({3}), 6)}};
}

template <class M>
void ExpectFixedPoint(const util::Result<M>& decoded) {
  if (!decoded.ok()) {
    EXPECT_EQ(decoded.status().code(), util::StatusCode::kInvalidArgument);
    return;
  }
  const util::Bytes canonical = core::Encode(*decoded);
  const auto again = core::Decode<M>(canonical);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(core::Encode(*again), canonical);
}

// Decodes `bytes` as M into owned tensors and, from a pinned copy, into
// views; runs the untyped parsers on the same bytes.
template <class M>
void FuzzDecode(util::ByteSpan bytes) {
  (void)core::PeekType(bytes);
  (void)core::DecodeTraceContext(bytes);
  ExpectFixedPoint(core::Decode<M>(bytes));
  ExpectFixedPoint(core::Decode<M>(
      transport::InFrame::Adopt(util::Bytes(bytes.begin(), bytes.end()))));
}

template <class M>
class MessageDecoderFuzz : public ::testing::Test {
 protected:
  const util::Bytes frame_ = core::Encode(SampleMessage<M>());
};

TYPED_TEST_SUITE(MessageDecoderFuzz, WireMessages<::testing::Types>);

TYPED_TEST(MessageDecoderFuzz, Truncation) {
  const util::Bytes& frame = this->frame_;
  ASSERT_TRUE(core::Decode<TypeParam>(frame).ok());
  // Every field's length follows from the bytes before it, so no strict
  // prefix of a frame is a frame.
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    const util::ByteSpan prefix(frame.data(), cut);
    EXPECT_FALSE(core::Decode<TypeParam>(prefix).ok()) << "cut " << cut;
    FuzzDecode<TypeParam>(prefix);
  }
}

TYPED_TEST(MessageDecoderFuzz, Corruption) {
  const util::Bytes& frame = this->frame_;
  util::Rng rng(static_cast<uint64_t>(TypeParam::kType));
  for (int i = 0; i < 256; ++i) {
    util::Bytes flipped = frame;
    const uint64_t bit = rng.UniformU64(frame.size() * 8);
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    FuzzDecode<TypeParam>(flipped);
  }
  // Inflated counts and lengths: each big-endian 4-byte window becomes
  // 0xFFFFFFFF, 0x80000000 and its own value + 1.
  for (size_t pos = 0; pos + 4 <= frame.size(); ++pos) {
    uint32_t own = 0;
    for (size_t i = 0; i < 4; ++i) own = own << 8 | frame[pos + i];
    for (uint32_t value : {0xFFFFFFFFu, 0x80000000u, own + 1}) {
      util::Bytes inflated = frame;
      for (size_t i = 0; i < 4; ++i) {
        inflated[pos + i] = static_cast<uint8_t>(value >> (24 - 8 * i));
      }
      FuzzDecode<TypeParam>(inflated);
    }
  }
}

TYPED_TEST(MessageDecoderFuzz, TypeConfusion) {
  util::Bytes frame = this->frame_;
  const auto own_tag = static_cast<uint8_t>(TypeParam::kType);
  for (int tag = 0; tag < 256; ++tag) {
    frame[0] = static_cast<uint8_t>(tag);
    ForEachMessage(WireMessages<TypeList>{}, [&](auto type) {
      using N = typename decltype(type)::type;
      if (tag == own_tag) {
        // Only the frame's own decoder accepts it.
        EXPECT_EQ(core::Decode<N>(frame).ok(), (std::is_same_v<N, TypeParam>))
            << "decoded as tag " << static_cast<int>(N::kType);
      }
      FuzzDecode<N>(frame);
    });
  }
}

// A one-tensor container whose tensor bytes `tensor` follow `pad` pad
// bytes.
void AppendOneTensor(util::Bytes& out, uint8_t pad, const util::Bytes& tensor) {
  util::AppendU32(out, 1);
  util::AppendU8(out, pad);
  out.resize(out.size() + pad);
  util::AppendU32(out, static_cast<uint32_t>(tensor.size()));
  util::AppendBytes(out, tensor);
}

// A tensor header with no payload: magic, rank, dims, count.
util::Bytes TensorHeader(const std::vector<uint64_t>& dims, uint64_t count) {
  util::Bytes out;
  util::AppendU32(out, 0x4d565431);
  util::AppendU32(out, static_cast<uint32_t>(dims.size()));
  for (uint64_t d : dims) util::AppendU64(out, d);
  util::AppendU64(out, count);
  return out;
}

template <class M>
void ExpectRejected(const util::Bytes& frame) {
  EXPECT_EQ(core::Decode<M>(frame).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(core::Decode<M>(transport::InFrame::Adopt(frame)).status().code(),
            util::StatusCode::kInvalidArgument);
  FuzzDecode<M>(frame);
}

TEST(DecoderFuzz, WrappingTensorHeadersInFrames) {
  // InferResult and SessionSubmit frames laid out by hand around one
  // tensor, so its pad can be aligned (1 and 2 bytes respectively) or
  // not.
  const auto infer_result = [](uint8_t pad, const util::Bytes& tensor) {
    util::Bytes f = {static_cast<uint8_t>(core::MsgType::kInferResult)};
    util::AppendU64(f, 1);  // batch_id
    util::AppendU64(f, 2);  // vtime_us
    util::AppendU8(f, 1);   // ok
    AppendOneTensor(f, pad, tensor);
    util::AppendU32(f, 0);  // error
    return f;
  };
  const auto session_submit = [](uint8_t pad, const util::Bytes& tensor) {
    util::Bytes f = {static_cast<uint8_t>(core::MsgType::kSessionSubmit)};
    util::AppendU64(f, 1);  // seq
    util::AppendU64(f, 0);  // deadline_us
    util::AppendU32(f, 0);  // priority
    util::AppendU32(f, 0);  // tenant
    util::AppendU32(f, 0);  // model
    AppendOneTensor(f, pad, tensor);
    return f;
  };
  // 2^62 floats are 2^64 ≡ 0 bytes; 2^32 x 2^32 elements overflow
  // int64_t. Neither header carries a payload.
  const util::Bytes wrapping[] = {
      TensorHeader({1ULL << 31, 1ULL << 31}, 1ULL << 62),
      TensorHeader({1ULL << 32, 1ULL << 32}, 0)};
  const util::Bytes valid = FuzzTensor(Shape({2}), 7).Serialize();
  for (uint8_t pad = 0; pad <= 3; ++pad) {
    // The hand layout holds: a real tensor decodes at every pad.
    ASSERT_TRUE(
        core::Decode<core::InferResultMsg>(infer_result(pad, valid)).ok());
    ASSERT_TRUE(
        core::Decode<core::SessionSubmitMsg>(session_submit(pad, valid)).ok());
    for (const util::Bytes& header : wrapping) {
      ExpectRejected<core::InferResultMsg>(infer_result(pad, header));
      ExpectRejected<core::SessionSubmitMsg>(session_submit(pad, header));
    }
  }
}

TEST(DecoderFuzz, GraphTruncation) {
  graph::ModelBuilder b(3);
  auto x = b.Input("in", Shape({1, 4}));
  x = b.Gemm(x, 4);
  b.MarkOutput(x);
  Graph g = b.Build();
  auto frame = g.Serialize();
  // Sample cuts (full sweep is large for graphs with weights).
  util::Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    size_t cut = rng.UniformU64(frame.size());
    util::Bytes prefix(frame.begin(), frame.begin() + static_cast<long>(cut));
    EXPECT_FALSE(Graph::Deserialize(prefix).ok());
  }
  EXPECT_TRUE(Graph::Deserialize(frame).ok());
}

TEST(DecoderFuzz, ManifestRandomCorruption) {
  tee::Manifest m = tee::InitVariantManifest();
  m.trusted_files["x"] = crypto::Sha256::Hash(util::ToBytes("x"));
  auto frame = m.Serialize();
  util::Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    auto corrupt = frame;
    size_t pos = rng.UniformU64(corrupt.size());
    corrupt[pos] ^= static_cast<uint8_t>(1 + rng.UniformU64(255));
    // Must never crash; may or may not decode (some bytes are payload).
    auto result = tee::Manifest::Deserialize(corrupt);
    if (result.ok()) {
      // Either the corruption changed the manifest semantics (hash
      // differs, the measurement chain catches it), or it only changed
      // a non-canonical encoding (e.g. a boolean byte 0x01 -> 0x03) and
      // the canonical re-serialization equals the original.
      if (result->Hash() == m.Hash()) {
        EXPECT_EQ(result->Serialize(), frame);
      }
    }
  }
}

TEST(DecoderFuzz, AttestationReportRandomCorruption) {
  tee::SimulatedCpu cpu{tee::SimulatedCpu::Options{.hardware_key_seed = 9}};
  auto enclave = cpu.LaunchEnclave(tee::TeeType::kSgx2,
                                   util::ToBytes("code"),
                                   tee::MonitorManifest(), 16);
  ASSERT_TRUE(enclave.ok());
  auto report = (*enclave)->CreateReport({});
  auto frame = report.Serialize();
  util::Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    auto corrupt = frame;
    size_t pos = rng.UniformU64(corrupt.size());
    corrupt[pos] ^= static_cast<uint8_t>(1 + rng.UniformU64(255));
    auto parsed = tee::AttestationReport::Deserialize(corrupt);
    if (parsed.ok()) {
      // Any parsed-but-corrupted report must fail verification.
      EXPECT_FALSE(cpu.VerifyReport(*parsed).ok()) << "pos " << pos;
    }
  }
}

// ------------------------------------------------ secure-channel fuzz

// MessageDecoderFuzz's seeded mutations of a frame of `size` bytes, as
// edits applied to whichever frame of that size comes by: every strict
// prefix, 256 single-bit flips, and each 4-byte window set to
// 0xFFFFFFFF and to 0x80000000.
std::vector<std::function<void(util::Bytes&)>> FrameMutations(size_t size,
                                                              uint64_t seed) {
  std::vector<std::function<void(util::Bytes&)>> out;
  for (size_t cut = 0; cut < size; ++cut) {
    out.push_back([cut](util::Bytes& f) { f.resize(cut); });
  }
  util::Rng rng(seed);
  for (int i = 0; i < 256; ++i) {
    const uint64_t bit = rng.UniformU64(size * 8);
    out.push_back([bit](util::Bytes& f) {
      f[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    });
  }
  for (size_t pos = 0; pos + 4 <= size; ++pos) {
    for (uint32_t value : {0xFFFFFFFFu, 0x80000000u}) {
      out.push_back([pos, value](util::Bytes& f) {
        for (size_t i = 0; i < 4; ++i) {
          f[pos + i] = static_cast<uint8_t>(value >> (24 - 8 * i));
        }
      });
    }
  }
  return out;
}

class SecureChannelFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    auto monitor = cpu_.LaunchEnclave(tee::TeeType::kSgx1,
                                      util::ToBytes("monitor-code"),
                                      tee::MonitorManifest(), 64);
    auto variant = cpu_.LaunchEnclave(tee::TeeType::kSgx2,
                                      util::ToBytes("variant-code"),
                                      tee::InitVariantManifest(), 1024);
    ASSERT_TRUE(monitor.ok() && variant.ok());
    monitor_ = std::move(*monitor);
    variant_ = std::move(*variant);
  }

  // Attested handshake on two threads; the client's outgoing frames
  // pass through `client_interceptor`. Returns {client, server}.
  std::pair<util::Result<std::unique_ptr<transport::SecureChannel>>,
            util::Result<std::unique_ptr<transport::SecureChannel>>>
  Handshake(transport::Interceptor client_interceptor) {
    auto [a, b] = transport::CreateChannel();
    a.SetInterceptor(std::move(client_interceptor));
    util::Result<std::unique_ptr<transport::SecureChannel>> client(
        util::Internal("unset"));
    std::thread client_thread([&, ep = std::move(a)]() mutable {
      client = transport::SecureChannel::Handshake(
          std::move(ep), transport::SecureChannel::Role::kClient, *monitor_,
          transport::AnyAttestedPeer(cpu_), 1'000'000);
    });
    auto server = transport::SecureChannel::Handshake(
        std::move(b), transport::SecureChannel::Role::kServer, *variant_,
        transport::AnyAttestedPeer(cpu_), 1'000'000);
    client_thread.join();
    return {std::move(client), std::move(server)};
  }

  tee::SimulatedCpu cpu_{tee::SimulatedCpu::Options{.hardware_key_seed = 7}};
  std::unique_ptr<tee::Enclave> monitor_;
  std::unique_ptr<tee::Enclave> variant_;
};

TEST_F(SecureChannelFuzz, MutatedHelloFailsTheHandshake) {
  // The server parses the client's hello (HelloMessage::Deserialize),
  // then the report inside it and the key binding. Each mutant of the
  // live hello must fail the server's handshake. (The server sends its
  // own hello before parsing the client's, so the client may finish.)
  size_t hello_size = 0;
  {
    auto [client, server] = Handshake([&](const util::Bytes& frame) {
      hello_size = frame.size();
      return std::optional<util::Bytes>(frame);
    });
    ASSERT_TRUE(client.ok() && server.ok());
  }
  ASSERT_GT(hello_size, 40u);
  int mutants = 0;
  for (const auto& mutate : FrameMutations(hello_size, 0x4e110)) {
    bool changed = false;
    auto [client, server] = Handshake([&](const util::Bytes& frame) {
      util::Bytes mutant = frame;
      mutate(mutant);
      changed = mutant != frame;
      return std::optional<util::Bytes>(std::move(mutant));
    });
    if (!changed) continue;  // a window that already held its value
    ++mutants;
    EXPECT_FALSE(server.ok()) << "mutant " << mutants;
  }
  EXPECT_GT(mutants, 256);
}

TEST_F(SecureChannelFuzz, MutatedRecordIsRejectedAndCounted) {
  // Each mutant of a genuine record (plaintext header included), injected
  // by the host, must fail to open as an authentication failure or a
  // replay, count exactly one channel.auth_failures, and deliver
  // nothing: afterwards the genuine record still opens as the next one.
  auto [client, server] = Handshake(nullptr);
  ASSERT_TRUE(client.ok() && server.ok());
  util::Bytes genuine;
  (*client)->raw_endpoint().SetInterceptor([&](const util::Bytes& frame) {
    genuine = frame;
    return std::optional<util::Bytes>();  // held back by the host
  });
  const util::Bytes header(16, 0x5a);
  const util::Bytes payload = util::ToBytes("a record's plaintext payload");
  ASSERT_TRUE((*client)->Send(payload, header).ok());
  ASSERT_FALSE(genuine.empty());

  obs::Counter& auth_failures =
      obs::Registry::Default().GetCounter("channel.auth_failures");
  int mutants = 0;
  for (const auto& mutate : FrameMutations(genuine.size(), 0x7ec0)) {
    util::Bytes mutant = genuine;
    mutate(mutant);
    if (mutant == genuine) continue;
    ++mutants;
    const uint64_t before = auth_failures.value();
    (*client)->raw_endpoint().InjectRaw(std::move(mutant));
    const auto got = (*server)->RecvPooled(1'000'000);
    ASSERT_FALSE(got.ok()) << "mutant " << mutants;
    EXPECT_TRUE(got.status().code() == util::StatusCode::kAuthenticationFailure ||
                got.status().code() == util::StatusCode::kReplayDetected)
        << "mutant " << mutants << ": " << got.status().ToString();
    EXPECT_EQ(auth_failures.value() - before, 1u) << "mutant " << mutants;
  }
  EXPECT_GT(mutants, 256);
  (*client)->raw_endpoint().InjectRaw(genuine);
  util::Bytes got_header;
  const auto got = (*server)->Recv(1'000'000, &got_header);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, payload);
  EXPECT_EQ(got_header, header);
}

// --------------------------------------------------- consistency property

TEST(ConsistencyProperty, MetricsAgreeOnIdenticalAndDisjoint) {
  util::Rng rng(8);
  auto t = Tensor::RandomUniform(Shape({64}), rng);
  auto far = Tensor::RandomUniform(Shape({64}), rng, 50.0f, 100.0f);
  for (auto policy :
       {core::CheckPolicy::Cosine(0.999), core::CheckPolicy::Mse(1e-6),
        core::CheckPolicy::MaxAbs(1e-5),
        core::CheckPolicy::AllClose(1e-5, 1e-7)}) {
    EXPECT_TRUE(core::OutputsConsistent({t}, {t}, policy))
        << core::ConsistencyMetricName(policy.metric);
    EXPECT_FALSE(core::OutputsConsistent({t}, {far}, policy))
        << core::ConsistencyMetricName(policy.metric);
  }
}

TEST(ConsistencyProperty, ThresholdMonotonicity) {
  // If outputs pass at a strict cosine threshold they pass at any looser
  // one.
  util::Rng rng(9);
  auto a = Tensor::RandomUniform(Shape({128}), rng);
  Tensor b = a;
  for (int64_t i = 0; i < b.num_elements(); ++i) {
    b.data()[i] += rng.UniformFloat(-0.01f, 0.01f);
  }
  bool strict = core::OutputsConsistent({a}, {b},
                                        core::CheckPolicy::Cosine(0.9999));
  if (strict) {
    for (double th : {0.999, 0.99, 0.9, 0.5}) {
      EXPECT_TRUE(core::OutputsConsistent({a}, {b},
                                          core::CheckPolicy::Cosine(th)));
    }
  }
}

// ---------------------------------------------------------- vote property

TEST(VoteProperty, FailedVariantsAlwaysDissent) {
  util::Rng rng(10);
  auto t = Tensor::RandomUniform(Shape({32}), rng);
  // Variant 1 crashed (empty output list).
  std::vector<std::vector<Tensor>> outputs = {{t}, {}, {t}};
  auto policy = core::CheckPolicy::Cosine(0.999);
  auto una = core::Vote(outputs, policy, core::VotePolicy::kUnanimous);
  EXPECT_FALSE(una.accepted);
  auto maj = core::Vote(outputs, policy, core::VotePolicy::kMajority);
  EXPECT_TRUE(maj.accepted);
  EXPECT_TRUE(maj.winner == 0 || maj.winner == 2);
  ASSERT_EQ(maj.dissenters.size(), 1u);
  EXPECT_EQ(maj.dissenters[0], 1);
}

TEST(VoteProperty, AllFailedPanelRejects) {
  std::vector<std::vector<Tensor>> outputs = {{}, {}, {}};
  for (auto vp : {core::VotePolicy::kUnanimous, core::VotePolicy::kMajority}) {
    auto r = core::Vote(outputs, core::CheckPolicy::Cosine(0.999), vp);
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.winner, -1);
  }
}

TEST(VoteProperty, SummaryVoteMatchesPlainVote) {
  // Random panels mixing identical replicas, close diversified outputs,
  // divergent outputs and crashed variants: the digest-accelerated vote
  // must reach exactly the plain vote's decision.
  util::Rng rng(11);
  auto policy = core::CheckPolicy::Cosine(0.999);
  for (int trial = 0; trial < 50; ++trial) {
    const int k = 2 + trial % 4;
    auto base = Tensor::RandomUniform(Shape({24}), rng);
    std::vector<std::vector<Tensor>> outputs;
    for (int i = 0; i < k; ++i) {
      switch (rng.UniformU64(4)) {
        case 0:
          outputs.push_back({base});
          break;
        case 1: {
          Tensor close = base;
          for (int64_t j = 0; j < close.num_elements(); ++j) {
            close.data()[j] += rng.UniformFloat(-1e-6f, 1e-6f);
          }
          outputs.push_back({std::move(close)});
          break;
        }
        case 2:
          outputs.push_back(
              {Tensor::RandomUniform(Shape({24}), rng, 50.0f, 100.0f)});
          break;
        default:
          outputs.push_back({});  // crashed
          break;
      }
    }
    std::vector<core::OutputsSummary> sums;
    sums.reserve(outputs.size());
    for (const auto& o : outputs) sums.push_back(core::SummarizeOutputs(o));
    for (auto vp :
         {core::VotePolicy::kUnanimous, core::VotePolicy::kMajority}) {
      auto plain = core::Vote(outputs, policy, vp);
      core::CheckStats stats;
      auto fast = core::Vote(outputs, sums, policy, vp, &stats);
      EXPECT_EQ(plain.accepted, fast.accepted) << "trial " << trial;
      EXPECT_EQ(plain.winner, fast.winner) << "trial " << trial;
      EXPECT_EQ(plain.dissenters, fast.dissenters) << "trial " << trial;
    }
  }
}

TEST(VoteProperty, PrefilterAbsorbsIdenticalPanels) {
  // A fully replicated panel must be decided by digests alone: O(k)
  // hashes, zero element-wise scans.
  util::Rng rng(12);
  auto t = Tensor::RandomUniform(Shape({64}), rng);
  std::vector<std::vector<Tensor>> outputs(4, std::vector<Tensor>{t});
  std::vector<core::OutputsSummary> sums;
  for (const auto& o : outputs) sums.push_back(core::SummarizeOutputs(o));
  core::CheckStats stats;
  auto r = core::Vote(outputs, sums, core::CheckPolicy::Cosine(0.999),
                      core::VotePolicy::kUnanimous, &stats);
  EXPECT_TRUE(r.accepted);
  EXPECT_EQ(r.winner, 0);
  EXPECT_EQ(stats.full_checks, 0u);
  EXPECT_EQ(stats.prefilter_hits, 3u);  // each follower joins rep 0 by digest
}

TEST(VoteProperty, NonFiniteVariantDissentsUnderSummary) {
  util::Rng rng(13);
  auto t = Tensor::RandomUniform(Shape({16}), rng);
  Tensor bad = t;
  bad.data()[0] = std::numeric_limits<float>::quiet_NaN();
  std::vector<std::vector<Tensor>> outputs = {{t}, {t}, {bad}};
  std::vector<core::OutputsSummary> sums;
  for (const auto& o : outputs) sums.push_back(core::SummarizeOutputs(o));
  EXPECT_TRUE(sums[2].nonfinite);
  for (auto vp :
       {core::VotePolicy::kUnanimous, core::VotePolicy::kMajority}) {
    auto plain = core::Vote(outputs, core::CheckPolicy::Cosine(0.999), vp);
    core::CheckStats stats;
    auto fast = core::Vote(outputs, sums, core::CheckPolicy::Cosine(0.999),
                           vp, &stats);
    EXPECT_EQ(plain.accepted, fast.accepted);
    EXPECT_EQ(plain.dissenters, fast.dissenters);
    ASSERT_EQ(fast.dissenters.size(), 1u);
    EXPECT_EQ(fast.dissenters[0], 2);
  }
}

// ------------------------------------------------------- conv geometry

struct ConvCase {
  int64_t channels, height, out_channels, kernel, stride, padding, groups;
};

std::string ConvCaseName(const ConvCase& c) {
  return "c" + std::to_string(c.channels) + "h" + std::to_string(c.height) +
         "o" + std::to_string(c.out_channels) + "k" +
         std::to_string(c.kernel) + "s" + std::to_string(c.stride) + "p" +
         std::to_string(c.padding) + "g" + std::to_string(c.groups);
}

// Two properties per geometry and backend: (1) kDirect and kIm2col stay
// within float tolerance of each other (they are distinct lowerings,
// not twins); (2) for EACH algorithm, SIMD dispatch and the pack cache
// are speed knobs only — toggling them must reproduce the exact bits.
void CheckConvGeometry(const ConvCase& c, runtime::GemmBackend backend) {
  util::Rng rng(static_cast<uint64_t>(
      c.channels * 1'000'000 + c.kernel * 10'000 + c.stride * 1'000 +
      c.padding * 100 + c.groups));
  const Tensor x =
      Tensor::RandomUniform(Shape({2, c.channels, c.height, c.height}), rng);
  const Tensor w = Tensor::RandomUniform(
      Shape({c.out_channels, c.channels / c.groups, c.kernel, c.kernel}),
      rng);
  const Tensor b = Tensor::RandomUniform(Shape({c.out_channels}), rng);
  runtime::ConvParams p;
  p.stride = c.stride;
  p.padding = c.padding;
  p.groups = c.groups;

  auto run = [&](runtime::ConvAlgo algo) {
    return runtime::Conv2d(x, w, &b, p, algo, backend);
  };
  const Tensor direct = run(runtime::ConvAlgo::kDirect);
  const Tensor im2col = run(runtime::ConvAlgo::kIm2col);
  ASSERT_EQ(direct.shape(), im2col.shape());
  EXPECT_LT(tensor::MaxAbsDiff(direct, im2col), 1e-4);

  for (auto algo : {runtime::ConvAlgo::kDirect, runtime::ConvAlgo::kIm2col}) {
    const Tensor base = run(algo);
    {
      util::ScopedForceScalar force_scalar;
      const Tensor scalar = run(algo);
      EXPECT_EQ(std::memcmp(base.data(), scalar.data(), base.byte_size()), 0)
          << runtime::ConvAlgoName(algo) << " under forced scalar";
    }
    {
      runtime::ScopedDisablePackCache cache_off;
      const Tensor uncached = run(algo);
      EXPECT_EQ(std::memcmp(base.data(), uncached.data(), base.byte_size()),
                0)
          << runtime::ConvAlgoName(algo) << " with pack cache disabled";
    }
  }
}

const ConvCase kConvCases[] = {
    ConvCase{8, 9, 8, 3, 1, 1, 1},     // the common 3x3 same-conv
    ConvCase{8, 9, 8, 3, 2, 1, 1},     // strided
    ConvCase{8, 9, 8, 3, 3, 2, 1},     // stride 3, fat padding
    ConvCase{8, 9, 8, 3, 1, 0, 1},     // valid conv (shrinking)
    ConvCase{8, 9, 16, 1, 1, 0, 1},    // 1x1: identity-cols fast path
    ConvCase{8, 9, 16, 1, 2, 0, 1},    // 1x1 strided: no fast path
    ConvCase{8, 9, 16, 1, 1, 1, 1},    // 1x1 padded: no fast path
    ConvCase{8, 9, 8, 3, 1, 1, 4},     // grouped
    ConvCase{8, 9, 8, 3, 2, 1, 8},     // depthwise, strided
    ConvCase{4, 7, 4, 5, 1, 2, 2},     // 5x5 grouped on odd input
    ConvCase{4, 5, 4, 5, 1, 0, 1},     // kernel == input extent
    // Depthwise lowering (one input and one output channel per group).
    ConvCase{8, 8, 8, 3, 1, 1, 8},     // 3x3 s1 p1
    ConvCase{6, 9, 6, 5, 1, 2, 6},     // 5x5 s1 p2, odd extent
    ConvCase{6, 11, 6, 5, 2, 2, 6},    // 5x5 s2 p2, odd extent
    ConvCase{5, 1, 5, 5, 1, 2, 5},     // 5x5 over a 1x1 map: all padding
    ConvCase{4, 7, 8, 3, 1, 1, 4},     // channel multiplier 2: im2col
};

class ConvGeometrySweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGeometrySweep, AlgorithmsAgreeAndTogglesAreBitwiseNoOps) {
  CheckConvGeometry(GetParam(), runtime::GemmBackend::kAvx2);
}

INSTANTIATE_TEST_SUITE_P(Geometry, ConvGeometrySweep,
                         ::testing::ValuesIn(kConvCases),
                         [](const auto& info) {
                           return ConvCaseName(info.param);
                         });

// The same sweep on the other three GEMM backends: the SIMD toggle
// reaches kBlocked's AVX2 tier, and the depthwise geometries reach the
// direct lowerings: kNaive's own loop, and the shared one in kBlocked's
// and kTransposed's accumulation orders.
class ConvGeometrySweepByBackend
    : public ::testing::TestWithParam<
          std::tuple<ConvCase, runtime::GemmBackend>> {};

TEST_P(ConvGeometrySweepByBackend, AlgorithmsAgreeAndTogglesAreBitwiseNoOps) {
  CheckConvGeometry(std::get<0>(GetParam()), std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, ConvGeometrySweepByBackend,
    ::testing::Combine(::testing::ValuesIn(kConvCases),
                       ::testing::Values(runtime::GemmBackend::kNaive,
                                         runtime::GemmBackend::kBlocked,
                                         runtime::GemmBackend::kTransposed)),
    [](const auto& info) {
      return ConvCaseName(std::get<0>(info.param)) + "_" +
             std::string(runtime::GemmBackendName(std::get<1>(info.param)));
    });

// ------------------------------------------------ depthwise lowering

// Depthwise Conv2d computed as one groups = 1 conv per channel: each of
// those is im2col plus a one-row GEMM, the lowering depthwise convs
// used before they got their own loop.
Tensor DepthwiseByChannel(const Tensor& x, const Tensor& w, const Tensor& b,
                          const runtime::ConvParams& p,
                          runtime::GemmBackend backend) {
  const int64_t N = x.shape().dim(0), C = x.shape().dim(1),
                H = x.shape().dim(2), W = x.shape().dim(3);
  const int64_t K = w.shape().dim(2);
  runtime::ConvParams single = p;
  single.groups = 1;
  Tensor out;
  for (int64_t c = 0; c < C; ++c) {
    Tensor xc(Shape({N, 1, H, W}));
    for (int64_t n = 0; n < N; ++n) {
      std::memcpy(xc.data() + n * H * W, x.data() + (n * C + c) * H * W,
                  static_cast<size_t>(H * W) * sizeof(float));
    }
    const Tensor wc(Shape({1, 1, K, K}),
                    std::vector<float>(w.data() + c * K * K,
                                       w.data() + (c + 1) * K * K));
    const Tensor bc(Shape({1}), std::vector<float>{b.data()[c]});
    const Tensor yc = runtime::Conv2d(xc, wc, &bc, single,
                                      runtime::ConvAlgo::kIm2col, backend);
    const int64_t plane = yc.shape().dim(2) * yc.shape().dim(3);
    if (c == 0) {
      out = Tensor(Shape({N, C, yc.shape().dim(2), yc.shape().dim(3)}));
    }
    for (int64_t n = 0; n < N; ++n) {
      std::memcpy(out.data() + (n * C + c) * plane, yc.data() + n * plane,
                  static_cast<size_t>(plane) * sizeof(float));
    }
  }
  return out;
}

TEST(DepthwiseProperty, EqualsPerChannelComposition) {
  // Finite data: bitwise equal on every backend and geometry. With NaN,
  // +-Inf, -0 and denormals in input and weights, NaN lands on the same
  // positions and every other value keeps its bits; a NaN's sign may
  // differ, because the compiler picks the add operand order in the
  // baseline TU and a non-finite output is a dissent whatever its bits.
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            -0.0f, 1e-40f, -1e-40f};
  util::Rng rng(14);
  int trials = 0;
  for (auto backend :
       {runtime::GemmBackend::kNaive, runtime::GemmBackend::kBlocked,
        runtime::GemmBackend::kTransposed, runtime::GemmBackend::kAvx2}) {
    for (int64_t kernel : {1, 2, 3, 5}) {
      for (int64_t stride : {1, 2, 3}) {
        for (int64_t padding : {0, 1, 2}) {
          for (int64_t height : {1, 5, 8}) {
            if (height + 2 * padding < kernel) continue;
            const int64_t C = 5;
            Tensor x = Tensor::RandomUniform(Shape({2, C, height, height}),
                                             rng);
            Tensor w = Tensor::RandomUniform(Shape({C, 1, kernel, kernel}),
                                             rng);
            const Tensor b = Tensor::RandomUniform(Shape({C}), rng);
            const runtime::ConvParams p{stride, padding, C};
            const std::string where =
                std::string(runtime::GemmBackendName(backend)) + " k" +
                std::to_string(kernel) + "s" + std::to_string(stride) + "p" +
                std::to_string(padding) + "h" + std::to_string(height);

            const Tensor lowered = runtime::Conv2d(
                x, w, &b, p, runtime::ConvAlgo::kIm2col, backend);
            const Tensor composed = DepthwiseByChannel(x, w, b, p, backend);
            ASSERT_EQ(lowered.shape(), composed.shape()) << where;
            EXPECT_EQ(std::memcmp(lowered.data(), composed.data(),
                                  lowered.byte_size()),
                      0)
                << where;

            for (auto* t : {&x, &w}) {
              for (int64_t i = 0; i < t->num_elements(); ++i) {
                if (rng.UniformInt(0, 6) == 0) {
                  t->data()[i] = specials[rng.UniformInt(0, 5)];
                }
              }
            }
            const Tensor lowered_nf = runtime::Conv2d(
                x, w, &b, p, runtime::ConvAlgo::kIm2col, backend);
            const Tensor composed_nf = DepthwiseByChannel(x, w, b, p, backend);
            for (int64_t i = 0; i < lowered_nf.num_elements(); ++i) {
              const float u = lowered_nf.data()[i], v = composed_nf.data()[i];
              ASSERT_EQ(std::isnan(u), std::isnan(v)) << where << " @" << i;
              if (!std::isnan(u)) {
                ASSERT_EQ(std::memcmp(&u, &v, sizeof(float)), 0)
                    << where << " @" << i;
              }
            }
            ++trials;
          }
        }
      }
    }
  }
  EXPECT_GT(trials, 100);
}

// ------------------------------------------------- narrow-map convs

// One conv over input [2, C, H, W] as a one-node graph, every weight and
// bias value drawn from `values` when it is non-empty.
Graph NarrowConvGraph(int64_t C, int64_t H, int64_t W, int64_t OC,
                      int64_t kernel, int64_t stride, int64_t groups,
                      const std::vector<float>& values, util::Rng& rng) {
  graph::ModelBuilder b(static_cast<uint64_t>(C * 131 + OC * 7 + kernel));
  graph::NodeId x = b.Input("x", Shape({2, C, H, W}));
  x = b.Conv(x, OC, kernel, stride, kernel / 2, groups, /*bias=*/true);
  b.MarkOutput(x);
  Graph g = b.Build();
  if (!values.empty()) {
    for (const std::string& name : g.node(x).weights) {
      Tensor* t = g.MutableInitializer(name);
      for (int64_t i = 0; i < t->num_elements(); ++i) {
        t->data()[i] = values[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(values.size()) - 1))];
      }
    }
  }
  return g;
}

// Runs `g` with the pack cache serving, with it disabled, and with SIMD
// dispatch forced scalar, on every backend with a narrow-map path; the
// three runs must agree bit for bit, NaN payloads included.
void ExpectNarrowTwinsIdentical(const Graph& g, const Tensor& input,
                                const std::string& where) {
  for (runtime::ExecutorConfig config :
       {runtime::OrtLikeExecutorConfig(), runtime::TvmLikeExecutorConfig(),
        runtime::HardenedExecutorConfig()}) {
    config.slowdown_factor = 1.0;
    auto exec = runtime::Executor::Create(g, config);
    ASSERT_TRUE(exec.ok()) << where;
    auto run = [&] {
      auto out = (*exec)->Run({input});
      EXPECT_TRUE(out.ok()) << where;
      return out.ok() ? (*out)[0] : Tensor();
    };
    const Tensor served = run();
    Tensor uncached, scalar;
    {
      runtime::ScopedDisablePackCache cache_off;
      uncached = run();
    }
    {
      util::ScopedForceScalar force_scalar;
      scalar = run();
    }
    ASSERT_EQ(served.shape(), uncached.shape()) << where;
    ASSERT_EQ(served.shape(), scalar.shape()) << where;
    EXPECT_EQ(std::memcmp(served.data(), uncached.data(), served.byte_size()),
              0)
        << config.name << " " << where << " cache off";
    EXPECT_EQ(std::memcmp(served.data(), scalar.data(), served.byte_size()), 0)
        << config.name << " " << where << " forced scalar";
  }
}

TEST(NarrowConvSweep, CachedUncachedAndScalarRunsAreBitwiseIdentical) {
  // Dense convs on maps of fewer than 8 pixels: kBlocked reads its
  // weights from bind-time panels, kTransposed and kNaive run several
  // outputs at once. Maps 1x1, 1x2, 1x3, 2x2, 2x3 and 1x7; output
  // channels around the 8-row panels; patch sizes of every k mod 4, with
  // identity columns (1x1 s1) and im2col-built ones (3x3 p1, and 1x1 s2
  // on a twice-as-wide map); all at batch 2, on uniform and on
  // TrickyFloats() operands.
  const std::vector<float> tricky = TrickyFloats();
  util::Rng rng(0x6a77);
  int cases = 0;
  const int64_t maps[][2] = {{1, 1}, {1, 2}, {1, 3}, {2, 2}, {2, 3}, {1, 7}};
  for (const auto& [H, W] : maps) {
    for (int64_t OC : {1, 7, 8, 9, 17, 65, 320}) {
      for (int64_t k_mod : {0, 1, 2, 3}) {
        for (int cols = 0; cols < 3; ++cols) {
          // Identity 1x1 (patch C), 3x3 p1 (patch 9C), 1x1 s2 (patch C).
          const int64_t kernel = cols == 1 ? 3 : 1;
          const int64_t stride = cols == 2 ? 2 : 1;
          const int64_t C = kernel == 3 ? (k_mod == 0 ? 4 : k_mod) : 4 + k_mod;
          for (bool special : {false, true}) {
            const std::vector<float> values =
                special ? tricky : std::vector<float>{};
            const Graph g = NarrowConvGraph(C, H, W * stride, OC, kernel,
                                            stride, 1, values, rng);
            Tensor x = Tensor::RandomUniform(Shape({2, C, H, W * stride}),
                                             rng);
            if (special) {
              for (int64_t i = 0; i < x.num_elements(); ++i) {
                x.data()[i] = tricky[static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(tricky.size()) - 1))];
              }
            }
            ExpectNarrowTwinsIdentical(
                g, x,
                "map " + std::to_string(H) + "x" + std::to_string(W) +
                    " oc " + std::to_string(OC) + " c " + std::to_string(C) +
                    " k" + std::to_string(kernel) + "s" +
                    std::to_string(stride) +
                    (special ? " specials" : " uniform"));
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 6 * 7 * 4 * 3 * 2);
}

TEST(NarrowConvSweep, DepthwiseOnTinyMapsIsBitwiseIdentical) {
  // The depthwise loop reads bind-time lane-interleaved weights on
  // kBlocked and kTransposed: full and partial 4-channel blocks, 3x3 and
  // 5x5 kernels, 1x1 and 2x2 maps, batch 2.
  const std::vector<float> tricky = TrickyFloats();
  util::Rng rng(0xd7);
  for (int64_t hw : {1, 2}) {
    for (int64_t C : {1, 4, 5, 9, 24}) {
      for (int64_t kernel : {3, 5}) {
        for (bool special : {false, true}) {
          const std::vector<float> values =
              special ? tricky : std::vector<float>{};
          const Graph g =
              NarrowConvGraph(C, hw, hw, C, kernel, 1, C, values, rng);
          Tensor x = Tensor::RandomUniform(Shape({2, C, hw, hw}), rng);
          if (special) {
            for (int64_t i = 0; i < x.num_elements(); ++i) {
              x.data()[i] = tricky[static_cast<size_t>(rng.UniformInt(
                  0, static_cast<int64_t>(tricky.size()) - 1))];
            }
          }
          ExpectNarrowTwinsIdentical(
              g, x,
              "depthwise " + std::to_string(hw) + "x" + std::to_string(hw) +
                  " c " + std::to_string(C) + " k" + std::to_string(kernel) +
                  (special ? " specials" : " uniform"));
        }
      }
    }
  }
}

}  // namespace
}  // namespace mvtee
