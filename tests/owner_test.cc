// Tests for the model-owner provisioning protocol (Fig. 6 steps 1-3, 8),
// combined user attestation, bundle-config serialization and key
// rotation (§6.5).
#include <gtest/gtest.h>

#include <thread>

#include "core/owner.h"
#include "crypto/rand.h"
#include "graph/builder.h"


namespace mvtee::core {
namespace {

using graph::Graph;
using graph::ModelBuilder;
using graph::NodeId;
using tensor::Shape;
using tensor::Tensor;

// One-batch convenience over RunBatches: returns the batch's outputs.
util::Result<std::vector<Tensor>> RunOne(Monitor& m,
                                         const std::vector<Tensor>& inputs) {
  auto all = RunBatches(m, {inputs});
  if (!all.ok()) return all.status();
  return std::move((*all)[0]);
}

Graph TestModel(uint64_t seed = 5) {
  ModelBuilder b(seed);
  NodeId x = b.Input("img", Shape({1, 3, 16, 16}));
  x = b.ConvBnRelu(x, 8, 3, 1, 1);
  x = b.ConvBnRelu(x, 8, 3, 1, 1);
  x = b.GlobalAvgPool(x);
  x = b.Flatten(x);
  x = b.Gemm(x, 10);
  b.MarkOutput(x);
  return b.Build();
}

OfflineBundle MakeBundle() {
  OfflineOptions opts;
  opts.num_partitions = 3;
  opts.partition_seed = 11;
  opts.key_seed = 12;
  opts.pool.variants_per_stage = 3;
  opts.pool.verify = false;
  auto bundle = RunOfflineTool(TestModel(), opts);
  MVTEE_CHECK(bundle.ok());
  return std::move(*bundle);
}

TEST(BundleConfigTest, SerializeRoundTrip) {
  OfflineBundle bundle = MakeBundle();
  auto config = bundle.SerializeConfig();
  auto back = OfflineBundle::DeserializeConfig(config);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_stages, bundle.num_stages);
  EXPECT_EQ(back->model_input_shapes, bundle.model_input_shapes);
  ASSERT_EQ(back->variants.size(), bundle.variants.size());
  for (size_t i = 0; i < bundle.variants.size(); ++i) {
    EXPECT_EQ(back->variants[i].variant_id, bundle.variants[i].variant_id);
    EXPECT_EQ(back->variants[i].stage, bundle.variants[i].stage);
    EXPECT_EQ(back->variants[i].variant_key, bundle.variants[i].variant_key);
    EXPECT_EQ(back->variants[i].manifest_hash,
              bundle.variants[i].manifest_hash);
  }
  ASSERT_EQ(back->stage_inputs.size(), bundle.stage_inputs.size());
  for (size_t s = 0; s < bundle.stage_inputs.size(); ++s) {
    ASSERT_EQ(back->stage_inputs[s].size(), bundle.stage_inputs[s].size());
    for (size_t j = 0; j < bundle.stage_inputs[s].size(); ++j) {
      EXPECT_EQ(back->stage_inputs[s][j].stage,
                bundle.stage_inputs[s][j].stage);
      EXPECT_EQ(back->stage_inputs[s][j].index,
                bundle.stage_inputs[s][j].index);
    }
  }
  // No store travels with the config.
  EXPECT_EQ(back->store, nullptr);
}

TEST(BundleConfigTest, RejectsCorruption) {
  OfflineBundle bundle = MakeBundle();
  auto config = bundle.SerializeConfig();
  auto bad = config;
  bad[0] ^= 0xff;
  EXPECT_FALSE(OfflineBundle::DeserializeConfig(bad).ok());
  auto truncated = config;
  truncated.resize(truncated.size() / 3);
  EXPECT_FALSE(OfflineBundle::DeserializeConfig(truncated).ok());
}

class OwnerProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bundle_ = MakeBundle();
    host_ = std::make_unique<VariantHost>(&cpu_, bundle_.store);
    auto monitor = Monitor::Create(&cpu_, MonitorConfig{});
    ASSERT_TRUE(monitor.ok());
    monitor_ = std::move(*monitor);
  }

  void TearDown() override {
    if (monitor_) (void)monitor_->Shutdown();
    if (host_) host_->JoinAll();
  }

  // Runs ServeOwner on a thread and returns the owner-side endpoint.
  transport::Endpoint StartOwnerService() {
    auto [owner_side, monitor_side] = transport::CreateChannel();
    service_ = std::thread([this, ep = std::move(monitor_side)]() mutable {
      service_status_ = ServeOwner(*monitor_, *host_, std::move(ep),
                                   5'000'000);
    });
    return std::move(owner_side);
  }

  void JoinService() {
    if (service_.joinable()) service_.join();
  }

  tee::SimulatedCpu cpu_{tee::SimulatedCpu::Options{.hardware_key_seed = 3}};
  OfflineBundle bundle_;
  std::unique_ptr<VariantHost> host_;
  std::unique_ptr<Monitor> monitor_;
  std::thread service_;
  util::Status service_status_ = util::OkStatus();
};

TEST_F(OwnerProtocolTest, FullProvisioningFlow) {
  auto endpoint = StartOwnerService();
  ModelOwner owner(bundle_);
  auto status = owner.ProvisionDeployment(
      std::move(endpoint), cpu_, monitor_->enclave().measurement(),
      MvxSelection::Uniform(bundle_, 2));
  ASSERT_TRUE(status.ok()) << status.ToString();

  // Combined attestation: 3 stages x 2 variants = 6 attested TEEs.
  auto verified =
      owner.VerifyDeployment(cpu_, host_->init_variant_measurement());
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(*verified, 6u);

  // The provisioned monitor actually serves inference.
  util::Rng rng(1);
  auto out = RunOne(*monitor_, 
      {Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng)});
  EXPECT_TRUE(out.ok()) << out.status().ToString();

  owner.Disconnect();
  JoinService();
  EXPECT_TRUE(service_status_.ok()) << service_status_.ToString();
  ASSERT_TRUE(monitor_->Shutdown().ok());
  monitor_.reset();
}

TEST_F(OwnerProtocolTest, RejectsWrongMonitorMeasurement) {
  auto endpoint = StartOwnerService();
  ModelOwner owner(bundle_);
  crypto::Sha256Digest wrong{};
  wrong[0] = 0xaa;
  auto status = owner.ProvisionDeployment(std::move(endpoint), cpu_, wrong,
                                          MvxSelection::Uniform(bundle_, 1));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kAttestationFailure);
  JoinService();
}

TEST_F(OwnerProtocolTest, RejectsForeignPlatformMonitor) {
  // A monitor on a different (attacker) platform cannot satisfy the
  // owner even if it knows the expected measurement bytes.
  tee::SimulatedCpu other_cpu{
      tee::SimulatedCpu::Options{.hardware_key_seed = 99}};
  auto endpoint = StartOwnerService();
  ModelOwner owner(bundle_);
  auto status = owner.ProvisionDeployment(
      std::move(endpoint), other_cpu, monitor_->enclave().measurement(),
      MvxSelection::Uniform(bundle_, 1));
  EXPECT_FALSE(status.ok());
  JoinService();
}

TEST_F(OwnerProtocolTest, ProvisionFailureIsReported) {
  auto endpoint = StartOwnerService();
  ModelOwner owner(bundle_);
  // Selection referencing a variant from the wrong stage.
  MvxSelection bad;
  bad.stage_variant_ids = {{"s1.v0"}, {"s1.v1"}, {"s2.v0"}};
  auto status = owner.ProvisionDeployment(
      std::move(endpoint), cpu_, monitor_->enclave().measurement(), bad);
  EXPECT_FALSE(status.ok());
  JoinService();
}

TEST(KeyRotationTest, RotatedKeysReencryptFiles) {
  OfflineBundle bundle = MakeBundle();
  const std::string id = "s0.v0";
  const auto* entry = bundle.FindVariant(id);
  ASSERT_NE(entry, nullptr);
  const util::Bytes old_variant_key = entry->variant_key;  // copy: rotation
                                                           // mutates in place
  const util::Bytes old_key =
      tee::DeriveVariantFileKey(old_variant_key, id);
  ASSERT_TRUE(bundle.store->Get(VariantGraphPath(id), old_key).ok());

  crypto::DeterministicRandom random(77);
  ASSERT_TRUE(bundle.RotateVariantKey(id, random).ok());

  // Old key no longer opens the files; the rotated key does.
  EXPECT_FALSE(bundle.store->Get(VariantGraphPath(id), old_key).ok());
  const auto* rotated = bundle.FindVariant(id);
  const util::Bytes new_key =
      tee::DeriveVariantFileKey(rotated->variant_key, id);
  EXPECT_TRUE(bundle.store->Get(VariantGraphPath(id), new_key).ok());
  EXPECT_TRUE(bundle.store->Get(VariantManifestPath(id), new_key).ok());
  EXPECT_TRUE(bundle.store->Get(VariantSpecPath(id), new_key).ok());
  EXPECT_NE(rotated->variant_key, old_variant_key);
}

TEST(KeyRotationTest, DeploymentWorksAfterRotation) {
  OfflineBundle bundle = MakeBundle();
  crypto::DeterministicRandom random(78);
  for (const std::string id : {"s0.v0", "s1.v0", "s2.v0"}) {
    ASSERT_TRUE(bundle.RotateVariantKey(id, random).ok());
  }
  tee::SimulatedCpu cpu{tee::SimulatedCpu::Options{.hardware_key_seed = 4}};
  VariantHost host(&cpu, bundle.store);
  auto monitor = Monitor::Create(&cpu, MonitorConfig{});
  ASSERT_TRUE(monitor.ok());
  ASSERT_TRUE(
      (*monitor)
          ->Initialize(bundle, MvxSelection::Uniform(bundle, 1), host)
          .ok());
  util::Rng rng(2);
  auto out = RunOne(**monitor, 
      {Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng)});
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE((*monitor)->Shutdown().ok());
  host.JoinAll();
}

TEST(KeyRotationTest, StaleBundleFailsAfterRotation) {
  // A monitor provisioned with PRE-rotation keys must fail bootstrap
  // (the variant cannot decrypt its files with the stale key).
  OfflineBundle bundle = MakeBundle();
  OfflineBundle stale = bundle;  // copies entries incl. old keys
  stale.store = bundle.store;    // same host storage
  crypto::DeterministicRandom random(79);
  ASSERT_TRUE(bundle.RotateVariantKey("s0.v0", random).ok());

  tee::SimulatedCpu cpu{tee::SimulatedCpu::Options{.hardware_key_seed = 6}};
  VariantHost host(&cpu, bundle.store);
  auto monitor = Monitor::Create(&cpu, MonitorConfig{});
  ASSERT_TRUE(monitor.ok());
  auto status = (*monitor)->Initialize(
      stale, MvxSelection::Uniform(stale, 1), host);
  EXPECT_FALSE(status.ok());
  (void)(*monitor)->Shutdown();
  host.JoinAll();
}

TEST(MessagesTest, ProvisionRoundTrip) {
  ProvisionMsg msg;
  msg.nonce = util::Bytes(32, 0x42);
  msg.bundle_config = util::ToBytes("config-bytes");
  msg.stage_variant_ids = {{"s0.v0", "s0.v1"}, {"s1.v2"}};
  auto back = Decode<ProvisionMsg>(Encode(msg));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->nonce, msg.nonce);
  EXPECT_EQ(back->bundle_config, msg.bundle_config);
  EXPECT_EQ(back->stage_variant_ids, msg.stage_variant_ids);
}

TEST(MessagesTest, ProvisionResultRoundTrip) {
  ProvisionResultMsg msg;
  msg.nonce = util::Bytes(32, 0x43);
  msg.ok = true;
  msg.bound_variant_ids = {"s0.v0", "s1.v0"};
  auto back = Decode<ProvisionResultMsg>(Encode(msg));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->ok);
  EXPECT_EQ(back->nonce, msg.nonce);
  EXPECT_EQ(back->bound_variant_ids, msg.bound_variant_ids);
}

TEST(MessagesTest, AttestRoundTrips) {
  AttestQueryMsg q;
  q.nonce = util::Bytes(16, 0x01);
  auto back_q = Decode<AttestQueryMsg>(Encode(q));
  ASSERT_TRUE(back_q.ok());
  EXPECT_EQ(back_q->nonce, q.nonce);

  AttestReplyMsg r;
  r.nonce = q.nonce;
  r.variant_reports = {util::Bytes(10, 2), util::Bytes(20, 3)};
  auto back_r = Decode<AttestReplyMsg>(Encode(r));
  ASSERT_TRUE(back_r.ok());
  EXPECT_EQ(back_r->variant_reports, r.variant_reports);
}

}  // namespace
}  // namespace mvtee::core
