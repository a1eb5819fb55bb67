// Zero-copy data-plane integration tests (DESIGN.md §10): single-pass
// message encoding into pooled buffers, in-place record opening, tensor
// views aliasing received frames, and the pool-allocation budget of a
// monitor -> variant -> monitor round trip.
#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "core/messages.h"
#include "tee/enclave.h"
#include "tensor/tensor.h"
#include "transport/channel.h"
#include "transport/msg_channel.h"
#include "transport/secure_channel.h"
#include "util/buffer_pool.h"
#include "util/dataplane_stats.h"
#include "util/rng.h"

namespace mvtee::core {
namespace {

using tensor::Shape;
using tensor::Tensor;
using transport::CreateChannel;
using transport::InFrame;
using transport::MsgChannel;
using transport::SecureChannel;
using transport::SecureMsgChannel;
using util::Bytes;
using util::ToBytes;

InferMsg MakeInfer(uint64_t batch_id) {
  util::Rng rng(batch_id + 17);
  InferMsg msg;
  msg.batch_id = batch_id;
  msg.vtime_us = 1234;
  // Odd element counts so the per-tensor alignment padding actually
  // varies from tensor to tensor.
  for (uint32_t slot : {0u, 1u, 2u}) {
    msg.slots.push_back(slot);
    msg.inputs.push_back(
        Tensor::RandomUniform(Shape({3, static_cast<int64_t>(5 + slot)}), rng));
  }
  return msg;
}

// One frame of every message type, byte for byte (tensor floats in
// little-endian host order). Frames cross TEE boundaries, so a codec
// change must reproduce these exactly.
constexpr std::string_view kInferFrame =
    "03000000000000000700000000000004d200000003000000000000000100000002000000"
    "030200000000005c4d565431000000020000000000000003000000000000000500000000"
    "0000000f907c363fb2e8223f00b1513edef37b3fa447743fda8025bf7f2d51bf09d264bf"
    "0a686abf2002f5bc10f23f3f891c4cbf3cb1e53ef01b59bd90565cbd0300000000000068"
    "4d56543100000002000000000000000300000000000000060000000000000012aca09fbe"
    "8aafa9be6084bd3dfa1a713f3c386fbe489234bf383323bfe0a926bfe4f023bea68c773f"
    "a0f9783d904db63ef0e61ebd38b382bdec2f0c3fbc6b13becc837cbf686d08be03000000"
    "000000744d56543100000002000000000000000300000000000000070000000000000015"
    "e06eec3df8e2243f4ea116bf60b1cb3d3080653f1cfeef3e805c303f0437673f082a09be"
    "84fe9dbe69ab53bfbad835bfe831223efea89fbe18f8d73e20f5ff3d0c401fbfd4e7013f"
    "de9455bf0e0891becc22933e";
constexpr std::string_view kInferResultFrame =
    "0400000000000000090000000000000000010000000301000000005c4d56543100000002"
    "00000000000000030000000000000005000000000000000f907c363fb2e8223f00b1513e"
    "def37b3fa447743fda8025bf7f2d51bf09d264bf0a686abf2002f5bc10f23f3f891c4cbf"
    "3cb1e53ef01b59bd90565cbd03000000000000684d565431000000020000000000000003"
    "00000000000000060000000000000012aca09fbe8aafa9be6084bd3dfa1a713f3c386fbe"
    "489234bf383323bfe0a926bfe4f023bea68c773fa0f9783d904db63ef0e61ebd38b382bd"
    "ec2f0c3fbc6b13becc837cbf686d08be03000000000000744d5654310000000200000000"
    "0000000300000000000000070000000000000015e06eec3df8e2243f4ea116bf60b1cb3d"
    "3080653f1cfeef3e805c303f0437673f082a09be84fe9dbe69ab53bfbad835bfe831223e"
    "fea89fbe18f8d73e20f5ff3d0c401fbfd4e7013fde9455bf0e0891becc22933e00000007"
    "7061727469616c";
constexpr std::string_view kStageDataFrame =
    "080000000000000003000000000000000000000003000000000000000100000002000000"
    "030200000000005c4d565431000000020000000000000003000000000000000500000000"
    "0000000f907c363fb2e8223f00b1513edef37b3fa447743fda8025bf7f2d51bf09d264bf"
    "0a686abf2002f5bc10f23f3f891c4cbf3cb1e53ef01b59bd90565cbd0300000000000068"
    "4d56543100000002000000000000000300000000000000060000000000000012aca09fbe"
    "8aafa9be6084bd3dfa1a713f3c386fbe489234bf383323bfe0a926bfe4f023bea68c773f"
    "a0f9783d904db63ef0e61ebd38b382bdec2f0c3fbc6b13becc837cbf686d08be03000000"
    "000000744d56543100000002000000000000000300000000000000070000000000000015"
    "e06eec3df8e2243f4ea116bf60b1cb3d3080653f1cfeef3e805c303f0437673f082a09be"
    "84fe9dbe69ab53bfbad835bfe831223efea89fbe18f8d73e20f5ff3d0c401fbfd4e7013f"
    "de9455bf0e0891becc22933e";
constexpr std::string_view kAssignIdentityFrame =
    "010000000276300000002001010101010101010101010101010101010101010101010101"
    "01010101010101";
constexpr std::string_view kIdentityAckFrame =
    "020000000276300000000000000000000000000000000000000000000000000000000000"
    "000000010000000165";
constexpr std::string_view kShutdownFrame = "05";
constexpr std::string_view kSetupRoutesFrame =
    "060000000100000000000000050000000100000000000000060000000200000000000000"
    "01000000010000000001";
constexpr std::string_view kRoutesAckFrame = "0700000000046e6f7065";
constexpr std::string_view kProvisionFrame =
    "090000001002020202020202020202020202020202000000640303030303030303030303"
    "030303030303030303030303030303030303030303030303030303030303030303030303"
    "030303030303030303030303030303030303030303030303030303030303030303030303"
    "030303030303030303030303030303030300000002000000020000000161000000026262"
    "0000000100000003636363";
constexpr std::string_view kProvisionResultFrame =
    "0a0000001002020202020202020202020202020202010000000000000002000000016100"
    "0000026262";
constexpr std::string_view kAttestQueryFrame =
    "0b00000018040404040404040404040404040404040404040404040404";
constexpr std::string_view kAttestReplyFrame =
    "0c0000001804040404040404040404040404040404040404040404040400000002000000"
    "500505050505050505050505050505050505050505050505050505050505050505050505"
    "050505050505050505050505050505050505050505050505050505050505050505050505"
    "050505050505050505000000510606060606060606060606060606060606060606060606"
    "060606060606060606060606060606060606060606060606060606060606060606060606"
    "06060606060606060606060606060606060606060606";
constexpr std::string_view kSessionSubmitFrame =
    "0d0000000000000015fffffffffffffffbfffffffe0000000174000000016d0000000100"
    "0000005c4d5654310000000200000000000000030000000000000005000000000000000f"
    "907c363fb2e8223f00b1513edef37b3fa447743fda8025bf7f2d51bf09d264bf0a686abf"
    "2002f5bc10f23f3f891c4cbf3cb1e53ef01b59bd90565cbd";
constexpr std::string_view kSessionReplyFrame =
    "0e00000000000000150300000000000000fa00000001780000000100000000684d565431"
    "00000002000000000000000300000000000000060000000000000012aca09fbe8aafa9be"
    "6084bd3dfa1a713f3c386fbe489234bf383323bfe0a926bfe4f023bea68c773fa0f9783d"
    "904db63ef0e61ebd38b382bdec2f0c3fbc6b13becc837cbf686d08be";
constexpr std::string_view kInferAtOffset3 =
    "aabbcc03000000000000000700000000000004d200000003000000000000000100000002"
    "000000030200000000005c4d565431000000020000000000000003000000000000000500"
    "0000000000000f907c363fb2e8223f00b1513edef37b3fa447743fda8025bf7f2d51bf09"
    "d264bf0a686abf2002f5bc10f23f3f891c4cbf3cb1e53ef01b59bd90565cbd0300000000"
    "0000684d56543100000002000000000000000300000000000000060000000000000012ac"
    "a09fbe8aafa9be6084bd3dfa1a713f3c386fbe489234bf383323bfe0a926bfe4f023bea6"
    "8c773fa0f9783d904db63ef0e61ebd38b382bdec2f0c3fbc6b13becc837cbf686d08be03"
    "000000000000744d56543100000002000000000000000300000000000000070000000000"
    "000015e06eec3df8e2243f4ea116bf60b1cb3d3080653f1cfeef3e805c303f0437673f08"
    "2a09be84fe9dbe69ab53bfbad835bfe831223efea89fbe18f8d73e20f5ff3d0c401fbfd4"
    "e7013fde9455bf0e0891becc22933e";

void ExpectFrame(const Bytes& frame, size_t encoded_size,
                 std::string_view golden) {
  EXPECT_EQ(frame.size(), encoded_size);
  EXPECT_EQ(util::HexEncode(frame), golden);
}

TEST(EncodedSizeTest, MatchesEncodedFrameForEveryType) {
  const InferMsg infer = MakeInfer(7);
  ExpectFrame(Encode(infer), EncodedSize(infer), kInferFrame);

  InferResultMsg result;
  result.batch_id = 9;
  result.ok = true;
  result.outputs = infer.inputs;
  result.error = "partial";
  ExpectFrame(Encode(result), EncodedSize(result), kInferResultFrame);

  StageDataMsg stage;
  stage.batch_id = 3;
  stage.slots = infer.slots;
  stage.tensors = infer.inputs;
  ExpectFrame(Encode(stage), EncodedSize(stage), kStageDataFrame);

  AssignIdentityMsg assign{.variant_id = "v0", .variant_key = Bytes(32, 1)};
  ExpectFrame(Encode(assign), EncodedSize(assign), kAssignIdentityFrame);

  IdentityAckMsg ack{.variant_id = "v0", .ok = true, .error = "e"};
  ExpectFrame(Encode(ack), EncodedSize(ack), kIdentityAckFrame);

  ExpectFrame(Encode(ShutdownMsg{}), EncodedSize(ShutdownMsg{}),
              kShutdownFrame);

  SetupRoutesMsg routes;
  routes.upstream.push_back({.pipe_id = 5});
  routes.downstream.push_back({.pipe_id = 6, .output_to_slot = {{0, 1}, {1, 0}}});
  ExpectFrame(Encode(routes), EncodedSize(routes), kSetupRoutesFrame);

  RoutesAckMsg rack{.ok = false, .error = "nope"};
  ExpectFrame(Encode(rack), EncodedSize(rack), kRoutesAckFrame);

  ProvisionMsg prov;
  prov.nonce = Bytes(16, 2);
  prov.bundle_config = Bytes(100, 3);
  prov.stage_variant_ids = {{"a", "bb"}, {"ccc"}};
  ExpectFrame(Encode(prov), EncodedSize(prov), kProvisionFrame);

  ProvisionResultMsg prov_result;
  prov_result.nonce = Bytes(16, 2);
  prov_result.ok = true;
  prov_result.bound_variant_ids = {"a", "bb"};
  ExpectFrame(Encode(prov_result), EncodedSize(prov_result),
              kProvisionResultFrame);

  AttestQueryMsg query{.nonce = Bytes(24, 4)};
  ExpectFrame(Encode(query), EncodedSize(query), kAttestQueryFrame);

  AttestReplyMsg reply;
  reply.nonce = Bytes(24, 4);
  reply.variant_reports = {Bytes(80, 5), Bytes(81, 6)};
  ExpectFrame(Encode(reply), EncodedSize(reply), kAttestReplyFrame);

  // Negative deadline and priority travel as two's-complement bits.
  SessionSubmitMsg submit{.seq = 21,
                          .deadline_us = -5,
                          .tenant = "t",
                          .priority = -2,
                          .model = "m",
                          .inputs = {infer.inputs[0]}};
  ExpectFrame(Encode(submit), EncodedSize(submit), kSessionSubmitFrame);

  SessionReplyMsg session_reply{.seq = 21,
                                .code = 3,
                                .latency_us = 250,
                                .error = "x",
                                .outputs = {infer.inputs[1]}};
  ExpectFrame(Encode(session_reply), EncodedSize(session_reply),
              kSessionReplyFrame);

  // Tensor pads are relative to the frame start, not the buffer's.
  Bytes at_offset = {0xaa, 0xbb, 0xcc};
  EncodeInto(infer, at_offset);
  EXPECT_EQ(util::HexEncode(at_offset), kInferAtOffset3);
}

TEST(EncodedSizeTest, PadAlignedContainerRoundTrips) {
  const InferMsg msg = MakeInfer(11);
  const Bytes frame = Encode(msg);
  auto decoded = Decode<InferMsg>(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->batch_id, msg.batch_id);
  EXPECT_EQ(decoded->slots, msg.slots);
  ASSERT_EQ(decoded->inputs.size(), msg.inputs.size());
  for (size_t i = 0; i < msg.inputs.size(); ++i) {
    EXPECT_EQ(decoded->inputs[i], msg.inputs[i]) << i;
  }
}

TEST(DataPlaneTest, PooledDecodeAliasesFrameBuffer) {
  const InferMsg msg = MakeInfer(23);
  InFrame frame = InFrame::Adopt(Encode(msg));
  const uint8_t* lo = frame.span().data();
  const uint8_t* hi = lo + frame.span().size();
  auto decoded = Decode<InferMsg>(frame);
  ASSERT_TRUE(decoded.ok());
  for (size_t i = 0; i < decoded->inputs.size(); ++i) {
    const Tensor& t = decoded->inputs[i];
    EXPECT_TRUE(t.is_view()) << i;
    const auto* p = reinterpret_cast<const uint8_t*>(t.data());
    EXPECT_GE(p, lo) << i;
    EXPECT_LE(p + t.byte_size(), hi) << i;
    EXPECT_EQ(t, msg.inputs[i]) << i;
  }
  // The views pin the buffer: dropping the frame must not invalidate
  // the decoded tensors.
  frame = InFrame();
  for (size_t i = 0; i < decoded->inputs.size(); ++i) {
    EXPECT_EQ(decoded->inputs[i], msg.inputs[i]) << i;
  }
}

// ------------------------------------------------- secure-channel round trip

class DataPlaneChannelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto monitor = cpu_.LaunchEnclave(tee::TeeType::kSgx1,
                                      ToBytes("monitor-code"),
                                      tee::MonitorManifest(), 64);
    auto variant = cpu_.LaunchEnclave(tee::TeeType::kSgx2,
                                      ToBytes("variant-code"),
                                      tee::InitVariantManifest(), 1024);
    ASSERT_TRUE(monitor.ok() && variant.ok());
    monitor_ = std::move(*monitor);
    variant_ = std::move(*variant);

    auto [a, b] = CreateChannel();
    util::Result<std::unique_ptr<SecureChannel>> client(
        util::Internal("unset"));
    std::thread client_thread([&, ep = std::move(a)]() mutable {
      client = SecureChannel::Handshake(
          std::move(ep), SecureChannel::Role::kClient, *monitor_,
          transport::AnyAttestedPeer(cpu_), 1'000'000);
    });
    auto server = SecureChannel::Handshake(
        std::move(b), SecureChannel::Role::kServer, *variant_,
        transport::AnyAttestedPeer(cpu_), 1'000'000);
    client_thread.join();
    ASSERT_TRUE(client.ok() && server.ok());
    monitor_ch_ = std::make_unique<SecureMsgChannel>(std::move(*client));
    variant_ch_ = std::make_unique<SecureMsgChannel>(std::move(*server));
  }

  tee::SimulatedCpu cpu_{tee::SimulatedCpu::Options{.hardware_key_seed = 7}};
  std::unique_ptr<tee::Enclave> monitor_;
  std::unique_ptr<tee::Enclave> variant_;
  std::unique_ptr<MsgChannel> monitor_ch_;
  std::unique_ptr<MsgChannel> variant_ch_;
};

TEST_F(DataPlaneChannelTest, SealedRoundTripYieldsAlignedViews) {
  const InferMsg msg = MakeInfer(42);
  const Bytes header = EncodeTraceContext({.trace_id = 77, .span_id = 3});
  ASSERT_TRUE(SendFrame(*monitor_ch_, msg, header).ok());

  Bytes got_header;
  auto frame = variant_ch_->RecvPooled(1'000'000, &got_header);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(got_header, header);
  auto decoded = Decode<InferMsg>(*frame);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->inputs.size(), msg.inputs.size());
  for (size_t i = 0; i < msg.inputs.size(); ++i) {
    // The 16-byte trace header keeps the frame 4-aligned inside the
    // record, so every tensor decodes as an aliasing view.
    EXPECT_TRUE(decoded->inputs[i].is_view()) << i;
    EXPECT_EQ(decoded->inputs[i], msg.inputs[i]) << i;
  }
}

TEST_F(DataPlaneChannelTest, RoundTripStaysWithinPoolBudget) {
  util::BufferPool& pool = util::BufferPool::Default();
  // Prime both directions so steady-state reuse (not cold-pool misses)
  // is what gets measured.
  for (int warm = 0; warm < 2; ++warm) {
    ASSERT_TRUE(SendFrame(*monitor_ch_, MakeInfer(1), {}).ok());
    auto f = variant_ch_->RecvPooled(1'000'000);
    ASSERT_TRUE(f.ok());
    InferResultMsg r;
    r.ok = true;
    ASSERT_TRUE(SendFrame(*variant_ch_, r, {}).ok());
    ASSERT_TRUE(monitor_ch_->RecvPooled(1'000'000).ok());
  }

  const InferMsg msg = MakeInfer(2);
  const uint64_t acquires0 = pool.total_acquires();
  const uint64_t copied0 = util::DataPlaneBytesCopied();

  ASSERT_TRUE(SendFrame(*monitor_ch_, msg, {}).ok());
  auto frame = variant_ch_->RecvPooled(1'000'000);
  ASSERT_TRUE(frame.ok());
  auto inbound = Decode<InferMsg>(*frame);
  ASSERT_TRUE(inbound.ok());

  InferResultMsg result;
  result.batch_id = inbound->batch_id;
  result.ok = true;
  result.outputs = std::move(inbound->inputs);  // echo the views back
  ASSERT_TRUE(SendFrame(*variant_ch_, result, {}).ok());
  auto back = monitor_ch_->RecvPooled(1'000'000);
  ASSERT_TRUE(back.ok());
  auto final_msg = Decode<InferResultMsg>(*back);
  ASSERT_TRUE(final_msg.ok());
  ASSERT_EQ(final_msg->outputs.size(), msg.inputs.size());
  for (size_t i = 0; i < msg.inputs.size(); ++i) {
    EXPECT_EQ(final_msg->outputs[i], msg.inputs[i]) << i;
  }

  // The whole monitor -> variant -> monitor trip uses one pooled wire
  // buffer per direction: well under the two-allocations-per-tensor
  // regression budget.
  const uint64_t acquires = pool.total_acquires() - acquires0;
  EXPECT_LE(acquires, 2u * msg.inputs.size());
  EXPECT_EQ(acquires, 2u);
  // And the only data-plane copies are the unavoidable payload writes
  // into the two wire buffers (plus nothing per-hop): strictly fewer
  // than the 2x-per-tensor legacy floor.
  uint64_t payload_bytes = 0;
  for (const auto& t : msg.inputs) payload_bytes += t.byte_size();
  const uint64_t copied = util::DataPlaneBytesCopied() - copied0;
  EXPECT_LE(copied, 2 * payload_bytes + 1024);
}

}  // namespace
}  // namespace mvtee::core
