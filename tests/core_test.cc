#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "core/consistency.h"
#include "core/messages.h"
#include "core/monitor.h"
#include "core/offline.h"
#include "core/variant_host.h"
#include "graph/builder.h"
#include "runtime/executor.h"


namespace mvtee::core {
namespace {

using graph::Graph;
using graph::ModelBuilder;
using graph::NodeId;
using tensor::MaxAbsDiff;
using tensor::Shape;
using tensor::Tensor;

// One-batch convenience over RunBatches: returns the batch's outputs.
util::Result<std::vector<Tensor>> RunOne(Monitor& m,
                                         const std::vector<Tensor>& inputs) {
  auto all = RunBatches(m, {inputs});
  if (!all.ok()) return all.status();
  return std::move((*all)[0]);
}

// --------------------------------------------------------- consistency

Tensor Vec(std::vector<float> v) {
  Shape s({static_cast<int64_t>(v.size())});
  return Tensor(s, std::move(v));
}

TEST(ConsistencyTest, CosineMetric) {
  CheckPolicy p = CheckPolicy::Cosine(0.999);
  EXPECT_TRUE(OutputsConsistent({Vec({1, 2, 3})}, {Vec({1, 2, 3})}, p));
  EXPECT_TRUE(
      OutputsConsistent({Vec({1, 2, 3})}, {Vec({1.0001f, 2, 3})}, p));
  EXPECT_FALSE(OutputsConsistent({Vec({1, 2, 3})}, {Vec({3, 2, 1})}, p));
}

TEST(ConsistencyTest, MseAndMaxAbsMetrics) {
  EXPECT_TRUE(OutputsConsistent({Vec({1, 2})}, {Vec({1.01f, 2})},
                                CheckPolicy::Mse(1e-3)));
  EXPECT_FALSE(OutputsConsistent({Vec({1, 2})}, {Vec({2, 2})},
                                 CheckPolicy::Mse(1e-3)));
  EXPECT_TRUE(OutputsConsistent({Vec({1, 2})}, {Vec({1.05f, 2})},
                                CheckPolicy::MaxAbs(0.1)));
  EXPECT_FALSE(OutputsConsistent({Vec({1, 2})}, {Vec({1.5f, 2})},
                                 CheckPolicy::MaxAbs(0.1)));
}

TEST(ConsistencyTest, AllCloseMetric) {
  CheckPolicy p = CheckPolicy::AllClose(1e-3, 1e-5);
  EXPECT_TRUE(OutputsConsistent({Vec({100, 200})}, {Vec({100.05f, 200})}, p));
  EXPECT_FALSE(OutputsConsistent({Vec({100, 200})}, {Vec({101, 200})}, p));
}

TEST(ConsistencyTest, ShapeMismatchFails) {
  CheckPolicy p = CheckPolicy::Cosine(0.5);
  EXPECT_FALSE(OutputsConsistent({Vec({1, 2})}, {Vec({1, 2, 3})}, p));
  EXPECT_FALSE(OutputsConsistent({Vec({1})}, {Vec({1}), Vec({1})}, p));
}

TEST(ConsistencyTest, NonFiniteAlwaysFails) {
  CheckPolicy p = CheckPolicy::Cosine(0.0);
  EXPECT_FALSE(
      OutputsConsistent({Vec({std::nanf("")})}, {Vec({std::nanf("")})}, p));
  EXPECT_FALSE(OutputsConsistent({Vec({INFINITY})}, {Vec({INFINITY})}, p));
}

TEST(VoteTest, UnanimousAllAgree) {
  std::vector<std::vector<Tensor>> outs = {
      {Vec({1, 2, 3})}, {Vec({1.0001f, 2, 3})}, {Vec({1, 2, 3.0001f})}};
  auto v = Vote(outs, CheckPolicy::Cosine(0.999), VotePolicy::kUnanimous);
  EXPECT_TRUE(v.accepted);
  EXPECT_EQ(v.winner, 0);
  EXPECT_TRUE(v.dissenters.empty());
}

TEST(VoteTest, UnanimousRejectsSingleDissent) {
  std::vector<std::vector<Tensor>> outs = {
      {Vec({1, 2, 3})}, {Vec({1, 2, 3})}, {Vec({-1, 5, 0})}};
  auto v = Vote(outs, CheckPolicy::Cosine(0.999), VotePolicy::kUnanimous);
  EXPECT_FALSE(v.accepted);
  EXPECT_EQ(v.dissenters, std::vector<int>{2});
}

TEST(VoteTest, MajorityToleratesMinorityDissent) {
  std::vector<std::vector<Tensor>> outs = {
      {Vec({1, 2, 3})}, {Vec({1, 2, 3})}, {Vec({-1, 5, 0})}};
  auto v = Vote(outs, CheckPolicy::Cosine(0.999), VotePolicy::kMajority);
  EXPECT_TRUE(v.accepted);
  EXPECT_EQ(v.winner, 0);
  EXPECT_EQ(v.dissenters, std::vector<int>{2});
}

TEST(VoteTest, MajorityRejectsEvenSplit) {
  std::vector<std::vector<Tensor>> outs = {
      {Vec({1, 2, 3})}, {Vec({1, 2, 3})}, {Vec({-1, 5, 0})},
      {Vec({-1, 5, 0})}};
  auto v = Vote(outs, CheckPolicy::Cosine(0.999), VotePolicy::kMajority);
  EXPECT_FALSE(v.accepted);
}

TEST(VoteTest, FailedVariantIsDissent) {
  std::vector<std::vector<Tensor>> outs = {
      {Vec({1, 2, 3})}, {}, {Vec({1, 2, 3})}};
  auto una = Vote(outs, CheckPolicy::Cosine(0.999), VotePolicy::kUnanimous);
  EXPECT_FALSE(una.accepted);
  auto maj = Vote(outs, CheckPolicy::Cosine(0.999), VotePolicy::kMajority);
  EXPECT_TRUE(maj.accepted);
  EXPECT_EQ(maj.dissenters, std::vector<int>{1});
}

TEST(VoteTest, SingleVariantPanels) {
  auto ok = Vote({{Vec({1})}}, CheckPolicy::Cosine(0.9),
                 VotePolicy::kUnanimous);
  EXPECT_TRUE(ok.accepted);
  auto failed = Vote({{}}, CheckPolicy::Cosine(0.9), VotePolicy::kUnanimous);
  EXPECT_FALSE(failed.accepted);
}

// ------------------------------------------------------------- messages

TEST(MessagesTest, AssignIdentityRoundTrip) {
  AssignIdentityMsg msg{"s2.v1", util::Bytes(32, 0x42)};
  auto frame = Encode(msg);
  ASSERT_TRUE(PeekType(frame).ok());
  EXPECT_EQ(*PeekType(frame), MsgType::kAssignIdentity);
  auto back = Decode<AssignIdentityMsg>(frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->variant_id, "s2.v1");
  EXPECT_EQ(back->variant_key, msg.variant_key);
}

TEST(MessagesTest, InferRoundTrip) {
  InferMsg msg;
  msg.batch_id = 77;
  util::Rng rng(1);
  msg.slots = {0, 2};
  msg.inputs.push_back(Tensor::RandomUniform(Shape({1, 3, 4, 4}), rng));
  msg.inputs.push_back(Tensor::RandomUniform(Shape({2, 2}), rng));
  auto back = Decode<InferMsg>(Encode(msg));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->batch_id, 77u);
  EXPECT_EQ(back->slots, msg.slots);
  ASSERT_EQ(back->inputs.size(), 2u);
  EXPECT_EQ(back->inputs[0], msg.inputs[0]);
  EXPECT_EQ(back->inputs[1], msg.inputs[1]);
}

TEST(MessagesTest, SetupRoutesRoundTrip) {
  SetupRoutesMsg msg;
  msg.upstream = {{42}, {43}};
  msg.downstream.push_back({44, {{0, 1}, {2, 0}}});
  msg.report_to_monitor = false;
  auto back = Decode<SetupRoutesMsg>(Encode(msg));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->upstream.size(), 2u);
  EXPECT_EQ(back->upstream[0].pipe_id, 42u);
  ASSERT_EQ(back->downstream.size(), 1u);
  EXPECT_EQ(back->downstream[0].pipe_id, 44u);
  EXPECT_EQ(back->downstream[0].output_to_slot, msg.downstream[0].output_to_slot);
  EXPECT_FALSE(back->report_to_monitor);
}

TEST(MessagesTest, StageDataRoundTrip) {
  StageDataMsg msg;
  msg.batch_id = 9;
  util::Rng rng(2);
  msg.slots = {1};
  msg.tensors.push_back(Tensor::RandomUniform(Shape({4}), rng));
  auto back = Decode<StageDataMsg>(Encode(msg));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->batch_id, 9u);
  EXPECT_EQ(back->slots, msg.slots);
  EXPECT_EQ(back->tensors[0], msg.tensors[0]);
}

TEST(MessagesTest, InferResultWithError) {
  InferResultMsg msg;
  msg.batch_id = 3;
  msg.ok = false;
  msg.error = "ABORTED: simulated crash";
  auto back = Decode<InferResultMsg>(Encode(msg));
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->error, msg.error);
  EXPECT_TRUE(back->outputs.empty());
}

TEST(MessagesTest, MalformedFramesRejected) {
  EXPECT_FALSE(PeekType({}).ok());
  util::Bytes junk = {0x99};
  EXPECT_FALSE(PeekType(junk).ok());
  util::Bytes truncated = Encode(InferMsg{});
  truncated.resize(3);
  EXPECT_FALSE(Decode<InferMsg>(truncated).ok());
}

// ------------------------------------------------- offline tool + system

Graph TestModel(uint64_t seed = 5) {
  ModelBuilder b(seed);
  NodeId x = b.Input("img", Shape({1, 3, 16, 16}));
  x = b.ConvBnRelu(x, 8, 3, 1, 1);
  NodeId left = b.ConvBnRelu(x, 8, 3, 1, 1);
  x = b.Relu(b.Add(left, x));
  x = b.ConvBnRelu(x, 16, 3, 2, 1);
  x = b.GlobalAvgPool(x);
  x = b.Flatten(x);
  x = b.Gemm(x, 10);
  x = b.Softmax(x);
  b.MarkOutput(x);
  return b.Build();
}

OfflineOptions SmallOffline(int partitions = 3, int variants = 3) {
  OfflineOptions opts;
  opts.num_partitions = partitions;
  opts.partition_seed = 11;
  opts.key_seed = 99;
  opts.pool.variants_per_stage = variants;
  opts.pool.seed = 7;
  return opts;
}

TEST(OfflineToolTest, ProducesCompleteBundle) {
  Graph model = TestModel();
  auto bundle = RunOfflineTool(model, SmallOffline());
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_EQ(bundle->num_stages, 3);
  EXPECT_EQ(bundle->model_input_shapes.size(), 1u);
  EXPECT_EQ(bundle->variants.size(), 9u);  // 3 stages x 3 variants
  // Store holds 3 encrypted files per variant.
  EXPECT_EQ(bundle->store->size(), 27u);
  // Every variant's files decrypt with its own key and no other.
  const auto& v0 = bundle->variants[0];
  const auto& v1 = bundle->variants[1];
  auto k0 = tee::DeriveVariantFileKey(v0.variant_key, v0.variant_id);
  auto k1 = tee::DeriveVariantFileKey(v1.variant_key, v1.variant_id);
  EXPECT_TRUE(bundle->store->Get(VariantGraphPath(v0.variant_id), k0).ok());
  EXPECT_FALSE(bundle->store->Get(VariantGraphPath(v0.variant_id), k1).ok());
}

TEST(OfflineToolTest, StageVariantLookup) {
  auto bundle = RunOfflineTool(TestModel(), SmallOffline());
  ASSERT_TRUE(bundle.ok());
  EXPECT_EQ(bundle->StageVariantIds(0).size(), 3u);
  EXPECT_EQ(bundle->StageVariantIds(2).size(), 3u);
  EXPECT_NE(bundle->FindVariant("s1.v2"), nullptr);
  EXPECT_EQ(bundle->FindVariant("s9.v0"), nullptr);
}

TEST(OfflineToolTest, DeterministicKeysBySeed) {
  auto a = RunOfflineTool(TestModel(), SmallOffline());
  auto b = RunOfflineTool(TestModel(), SmallOffline());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->variants[0].variant_key, b->variants[0].variant_key);
}

// Full-system fixture: offline tool -> host -> monitor -> run.
class MvteeSystemTest : public ::testing::Test {
 protected:
  void Boot(int partitions, int variants_per_stage, MonitorConfig config,
            VariantHost::Options host_options = VariantHost::Options{},
            std::vector<int> per_stage_counts = {}) {
    model_ = TestModel();
    auto bundle = RunOfflineTool(model_, SmallOffline(partitions, 5));
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    bundle_ = std::move(*bundle);
    host_ = std::make_unique<VariantHost>(&cpu_, bundle_.store,
                                          host_options);
    auto monitor = Monitor::Create(&cpu_, config);
    ASSERT_TRUE(monitor.ok());
    monitor_ = std::move(*monitor);
    MvxSelection sel =
        per_stage_counts.empty()
            ? MvxSelection::Uniform(bundle_, variants_per_stage)
            : MvxSelection::PerStage(bundle_, per_stage_counts);
    auto status = monitor_->Initialize(bundle_, sel, *host_);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  std::vector<Tensor> ReferenceRun(const std::vector<Tensor>& inputs) {
    auto exec =
        runtime::Executor::Create(model_, runtime::ReferenceExecutorConfig());
    MVTEE_CHECK(exec.ok());
    auto out = (*exec)->Run(inputs);
    MVTEE_CHECK(out.ok());
    return *out;
  }

  void TearDown() override {
    if (monitor_) {
      ASSERT_TRUE(monitor_->Shutdown().ok());
    }
    if (host_) host_->JoinAll();
  }

  tee::SimulatedCpu cpu_{tee::SimulatedCpu::Options{.hardware_key_seed = 3}};
  Graph model_;
  OfflineBundle bundle_;
  std::unique_ptr<VariantHost> host_;
  std::unique_ptr<Monitor> monitor_;
};

TEST_F(MvteeSystemTest, SingleVariantFastPathMatchesReference) {
  Boot(3, 1, MonitorConfig{});
  util::Rng rng(1);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);
  auto out = RunOne(*monitor_, {input});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto expected = ReferenceRun({input});
  ASSERT_EQ(out->size(), 1u);
  EXPECT_LT(MaxAbsDiff((*out)[0], expected[0]), 1e-3);

  auto stats = monitor_->ConsumeStats();
  EXPECT_EQ(stats.fast_path_forwards, 3u);  // one per stage
  EXPECT_EQ(stats.checkpoints_evaluated, 0u);
  EXPECT_EQ(stats.divergences, 0u);
}

TEST_F(MvteeSystemTest, MultiVariantSlowPathMatchesReference) {
  Boot(3, 3, MonitorConfig{});
  util::Rng rng(2);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);
  auto out = RunOne(*monitor_, {input});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto expected = ReferenceRun({input});
  EXPECT_GT(tensor::CosineSimilarity((*out)[0], expected[0]), 0.999);

  auto stats = monitor_->ConsumeStats();
  EXPECT_EQ(stats.checkpoints_evaluated, 3u);
  EXPECT_EQ(stats.fast_path_forwards, 0u);
  EXPECT_EQ(stats.divergences, 0u);
}

TEST_F(MvteeSystemTest, SequentialMultipleBatches) {
  Boot(3, 3, MonitorConfig{});
  util::Rng rng(3);
  std::vector<std::vector<Tensor>> batches;
  for (int i = 0; i < 4; ++i) {
    batches.push_back({Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng)});
  }
  auto outs = RunBatches(*monitor_, batches);
  ASSERT_TRUE(outs.ok()) << outs.status().ToString();
  ASSERT_EQ(outs->size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    auto expected = ReferenceRun(batches[i]);
    EXPECT_GT(tensor::CosineSimilarity((*outs)[i][0], expected[0]), 0.999);
  }
  auto stats = monitor_->ConsumeStats();
  EXPECT_EQ(stats.batch_latency_us.count, 4u);
  EXPECT_GT(stats.wall_us, 0);
  EXPECT_GT(stats.bytes_sent, 0u);
}

TEST_F(MvteeSystemTest, PipelinedMatchesSequential) {
  Boot(3, 3, MonitorConfig{});
  util::Rng rng(4);
  std::vector<std::vector<Tensor>> batches;
  for (int i = 0; i < 6; ++i) {
    batches.push_back({Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng)});
  }
  auto pipelined = RunBatches(*monitor_, batches, /*pipelined=*/true);
  ASSERT_TRUE(pipelined.ok()) << pipelined.status().ToString();
  ASSERT_EQ(pipelined->size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    auto expected = ReferenceRun(batches[i]);
    EXPECT_GT(tensor::CosineSimilarity((*pipelined)[i][0], expected[0]),
              0.999);
  }
}

TEST_F(MvteeSystemTest, SelectiveMvxPerStageCounts) {
  Boot(3, 1, MonitorConfig{}, VariantHost::Options{}, {1, 3, 1});
  util::Rng rng(5);
  auto out = RunOne(*monitor_, 
      {Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng)});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto stats = monitor_->ConsumeStats();
  EXPECT_EQ(stats.checkpoints_evaluated, 1u);  // only stage 1 is MVX
  EXPECT_EQ(stats.fast_path_forwards, 2u);
}

TEST_F(MvteeSystemTest, DetectsCorruptedVariant) {
  // Attach a corrupting fault hook to one variant of stage 1.
  class Corrupt : public runtime::FaultHook {
   public:
    void OnNodeComplete(const graph::Node& node, Tensor& out) override {
      if (out.num_elements() > 0 && node.op == graph::OpType::kConv2d) {
        out.data()[0] += 50.0f;  // a "bit flip" of consequence
      }
    }
  };
  model_ = TestModel();
  auto bundle = RunOfflineTool(model_, SmallOffline(3, 3));
  ASSERT_TRUE(bundle.ok());
  bundle_ = std::move(*bundle);
  host_ = std::make_unique<VariantHost>(&cpu_, bundle_.store);
  host_->SetFaultHook("s1.v1", std::make_shared<Corrupt>());
  auto monitor = Monitor::Create(&cpu_, MonitorConfig{});
  ASSERT_TRUE(monitor.ok());
  monitor_ = std::move(*monitor);
  ASSERT_TRUE(
      monitor_->Initialize(bundle_, MvxSelection::Uniform(bundle_, 3), *host_)
          .ok());

  util::Rng rng(6);
  auto out = RunOne(*monitor_, 
      {Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng)});
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), util::StatusCode::kDivergenceDetected);
  auto stats = monitor_->ConsumeStats();
  EXPECT_GE(stats.divergences, 1u);
}

TEST_F(MvteeSystemTest, MajorityVoteSurvivesCorruptedMinority) {
  class Corrupt : public runtime::FaultHook {
   public:
    void OnNodeComplete(const graph::Node&, Tensor& out) override {
      if (out.num_elements() > 0) out.data()[0] += 50.0f;
    }
  };
  model_ = TestModel();
  auto bundle = RunOfflineTool(model_, SmallOffline(3, 3));
  ASSERT_TRUE(bundle.ok());
  bundle_ = std::move(*bundle);
  host_ = std::make_unique<VariantHost>(&cpu_, bundle_.store);
  host_->SetFaultHook("s1.v1", std::make_shared<Corrupt>());
  MonitorConfig cfg;
  cfg.vote = VotePolicy::kMajority;
  cfg.reaction = ReactionPolicy::ContinueWithWinner();
  auto monitor = Monitor::Create(&cpu_, cfg);
  ASSERT_TRUE(monitor.ok());
  monitor_ = std::move(*monitor);
  ASSERT_TRUE(
      monitor_->Initialize(bundle_, MvxSelection::Uniform(bundle_, 3), *host_)
          .ok());

  util::Rng rng(7);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);
  auto out = RunOne(*monitor_, {input});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Output must match the healthy majority, not the corrupted variant.
  auto expected = ReferenceRun({input});
  EXPECT_GT(tensor::CosineSimilarity((*out)[0], expected[0]), 0.999);
  auto stats = monitor_->ConsumeStats();
  EXPECT_GE(stats.divergences, 1u);
}

TEST_F(MvteeSystemTest, DetectsCrashingVariant) {
  class Crash : public runtime::FaultHook {
   public:
    util::Status OnNodeStart(const graph::Node& node) override {
      if (node.op == graph::OpType::kGemm) {
        return util::Aborted("CVE-2022-XXXX: heap overflow trapped");
      }
      return util::OkStatus();
    }
  };
  model_ = TestModel();
  auto bundle = RunOfflineTool(model_, SmallOffline(3, 3));
  ASSERT_TRUE(bundle.ok());
  bundle_ = std::move(*bundle);
  host_ = std::make_unique<VariantHost>(&cpu_, bundle_.store);
  // Crash hook on the stage owning the Gemm (last stage, id s2.*).
  host_->SetFaultHook("s2.v0", std::make_shared<Crash>());
  MonitorConfig cfg;
  cfg.vote = VotePolicy::kMajority;
  cfg.reaction = ReactionPolicy::ContinueWithWinner();
  auto monitor = Monitor::Create(&cpu_, cfg);
  ASSERT_TRUE(monitor.ok());
  monitor_ = std::move(*monitor);
  ASSERT_TRUE(
      monitor_->Initialize(bundle_, MvxSelection::Uniform(bundle_, 3), *host_)
          .ok());

  util::Rng rng(8);
  auto out = RunOne(*monitor_, 
      {Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng)});
  ASSERT_TRUE(out.ok()) << out.status().ToString();  // majority survives
  auto stats = monitor_->ConsumeStats();
  EXPECT_GE(stats.variant_failures, 1u);
  EXPECT_GE(stats.divergences, 1u);
}

TEST_F(MvteeSystemTest, AsyncModeProducesSameResults) {
  MonitorConfig cfg;
  cfg.mode = ExecMode::kAsync;
  cfg.vote = VotePolicy::kMajority;
  cfg.reaction = ReactionPolicy::ContinueWithWinner();
  Boot(3, 3, cfg);
  util::Rng rng(9);
  std::vector<std::vector<Tensor>> batches;
  for (int i = 0; i < 4; ++i) {
    batches.push_back({Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng)});
  }
  auto outs = RunBatches(*monitor_, batches);
  ASSERT_TRUE(outs.ok()) << outs.status().ToString();
  for (size_t i = 0; i < batches.size(); ++i) {
    auto expected = ReferenceRun(batches[i]);
    EXPECT_GT(tensor::CosineSimilarity((*outs)[i][0], expected[0]), 0.999);
  }
}

TEST_F(MvteeSystemTest, PlaintextChannelsWork) {
  VariantHost::Options host_opts;
  host_opts.plaintext_channels = true;
  Boot(3, 3, MonitorConfig{}, host_opts);
  util::Rng rng(10);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);
  auto out = RunOne(*monitor_, {input});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto expected = ReferenceRun({input});
  EXPECT_GT(tensor::CosineSimilarity((*out)[0], expected[0]), 0.999);
}

TEST_F(MvteeSystemTest, PartialUpdateReplacesStageVariants) {
  Boot(3, 2, MonitorConfig{});
  util::Rng rng(11);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);
  ASSERT_TRUE(RunOne(*monitor_, {input}).ok());

  // Swap stage 1 to a different pair of pool variants.
  auto status = monitor_->UpdateStage(bundle_, *host_, 1,
                                      {"s1.v2", "s1.v3"});
  ASSERT_TRUE(status.ok()) << status.ToString();
  auto out = RunOne(*monitor_, {input});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto expected = ReferenceRun({input});
  EXPECT_GT(tensor::CosineSimilarity((*out)[0], expected[0]), 0.999);

  // Audit log: old bindings inactive, new appended.
  int active_s1 = 0, inactive_s1 = 0;
  for (const auto& b : monitor_->bindings()) {
    if (b.stage == 1) (b.active ? active_s1 : inactive_s1)++;
  }
  EXPECT_EQ(active_s1, 2);
  EXPECT_EQ(inactive_s1, 2);
}

TEST_F(MvteeSystemTest, FullUpdateRebindsEverything) {
  Boot(3, 2, MonitorConfig{});
  auto status = monitor_->FullUpdate(
      bundle_, MvxSelection::Uniform(bundle_, 3), *host_);
  ASSERT_TRUE(status.ok()) << status.ToString();
  util::Rng rng(12);
  auto out = RunOne(*monitor_, 
      {Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng)});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
}

TEST_F(MvteeSystemTest, TamperedStoreBlocksBootstrap) {
  model_ = TestModel();
  auto bundle = RunOfflineTool(model_, SmallOffline(3, 3));
  ASSERT_TRUE(bundle.ok());
  bundle_ = std::move(*bundle);
  // Host tampers with one variant's encrypted graph before launch.
  ASSERT_TRUE(
      bundle_.store->TamperCiphertext(VariantGraphPath("s0.v0"), 10));
  host_ = std::make_unique<VariantHost>(&cpu_, bundle_.store);
  auto monitor = Monitor::Create(&cpu_, MonitorConfig{});
  ASSERT_TRUE(monitor.ok());
  monitor_ = std::move(*monitor);
  auto status = monitor_->Initialize(bundle_,
                                     MvxSelection::Uniform(bundle_, 1),
                                     *host_);
  EXPECT_FALSE(status.ok());
}

TEST_F(MvteeSystemTest, RejectsSelectionFromWrongStage) {
  model_ = TestModel();
  auto bundle = RunOfflineTool(model_, SmallOffline(3, 3));
  ASSERT_TRUE(bundle.ok());
  bundle_ = std::move(*bundle);
  host_ = std::make_unique<VariantHost>(&cpu_, bundle_.store);
  auto monitor = Monitor::Create(&cpu_, MonitorConfig{});
  ASSERT_TRUE(monitor.ok());
  monitor_ = std::move(*monitor);
  MvxSelection sel;
  sel.stage_variant_ids = {{"s1.v0"}, {"s1.v1"}, {"s2.v0"}};  // s1.v0 wrong
  EXPECT_FALSE(monitor_->Initialize(bundle_, sel, *host_).ok());
}

TEST_F(MvteeSystemTest, DirectFastPathMatchesReference) {
  MonitorConfig cfg;
  cfg.direct_fastpath = true;
  Boot(3, 1, cfg);
  util::Rng rng(13);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);
  auto out = RunOne(*monitor_, {input});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto expected = ReferenceRun({input});
  EXPECT_LT(MaxAbsDiff((*out)[0], expected[0]), 1e-3);
  auto stats = monitor_->ConsumeStats();
  // All three stages traversed on the fast path (silent or reporting).
  EXPECT_EQ(stats.fast_path_forwards, 3u);
  EXPECT_EQ(stats.checkpoints_evaluated, 0u);
}

TEST_F(MvteeSystemTest, DirectFastPathWithMvxStage) {
  MonitorConfig cfg;
  cfg.direct_fastpath = true;
  Boot(3, 1, cfg, VariantHost::Options{}, {1, 3, 1});
  util::Rng rng(14);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);
  auto out = RunOne(*monitor_, {input});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto expected = ReferenceRun({input});
  EXPECT_GT(tensor::CosineSimilarity((*out)[0], expected[0]), 0.999);
  auto stats = monitor_->ConsumeStats();
  EXPECT_EQ(stats.checkpoints_evaluated, 1u);  // the MVX stage
  EXPECT_EQ(stats.fast_path_forwards, 2u);
}

TEST_F(MvteeSystemTest, DirectFastPathPipelined) {
  MonitorConfig cfg;
  cfg.direct_fastpath = true;
  Boot(3, 1, cfg);
  util::Rng rng(15);
  std::vector<std::vector<Tensor>> batches;
  for (int i = 0; i < 5; ++i) {
    batches.push_back({Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng)});
  }
  auto outs = RunBatches(*monitor_, batches, /*pipelined=*/true);
  ASSERT_TRUE(outs.ok()) << outs.status().ToString();
  for (size_t i = 0; i < batches.size(); ++i) {
    auto expected = ReferenceRun(batches[i]);
    EXPECT_LT(MaxAbsDiff((*outs)[i][0], expected[0]), 1e-3);
  }
}

TEST_F(MvteeSystemTest, DirectFastPathDetectsCorruption) {
  class Corrupt : public runtime::FaultHook {
   public:
    void OnNodeComplete(const graph::Node&, Tensor& out) override {
      if (out.num_elements() > 0) out.data()[0] += 50.0f;
    }
  };
  model_ = TestModel();
  auto bundle = RunOfflineTool(model_, SmallOffline(3, 3));
  ASSERT_TRUE(bundle.ok());
  bundle_ = std::move(*bundle);
  host_ = std::make_unique<VariantHost>(&cpu_, bundle_.store);
  host_->SetFaultHook("s1.v1", std::make_shared<Corrupt>());
  MonitorConfig cfg;
  cfg.direct_fastpath = true;
  auto monitor = Monitor::Create(&cpu_, cfg);
  ASSERT_TRUE(monitor.ok());
  monitor_ = std::move(*monitor);
  ASSERT_TRUE(monitor_->Initialize(bundle_,
                                   MvxSelection::PerStage(bundle_, {1, 3, 1}),
                                   *host_)
                  .ok());
  util::Rng rng(16);
  auto out = RunOne(*monitor_, 
      {Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng)});
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), util::StatusCode::kDivergenceDetected);
}

TEST_F(MvteeSystemTest, UpdateStageRejectedUnderDirectRouting) {
  MonitorConfig cfg;
  cfg.direct_fastpath = true;
  Boot(3, 1, cfg);
  auto status = monitor_->UpdateStage(bundle_, *host_, 1, {"s1.v2"});
  EXPECT_EQ(status.code(), util::StatusCode::kUnimplemented);
}

// ------------------------------------------- MvxSelection::Builder

TEST(MvxSelectionBuilderTest, DefaultsToSingleVariantPerStage) {
  auto bundle = RunOfflineTool(TestModel(), SmallOffline(3, 3));
  ASSERT_TRUE(bundle.ok());
  MvxSelection sel = MvxSelection::Builder().Build(*bundle);
  ASSERT_EQ(sel.stage_variant_ids.size(), 3u);
  for (const auto& ids : sel.stage_variant_ids) EXPECT_EQ(ids.size(), 1u);
}

TEST(MvxSelectionBuilderTest, UniformCountAndExplicitIdsCompose) {
  auto bundle = RunOfflineTool(TestModel(), SmallOffline(3, 3));
  ASSERT_TRUE(bundle.ok());
  MvxSelection sel = MvxSelection::Builder()
                         .Uniform(2)
                         .Stage(1, 3)
                         .Stage(2, {"s2.v2", "s2.v0"})
                         .Build(*bundle);
  ASSERT_EQ(sel.stage_variant_ids.size(), 3u);
  EXPECT_EQ(sel.stage_variant_ids[0].size(), 2u);  // Uniform default
  EXPECT_EQ(sel.stage_variant_ids[1].size(), 3u);  // per-stage count
  EXPECT_EQ(sel.stage_variant_ids[2],
            (std::vector<std::string>{"s2.v2", "s2.v0"}));
}

TEST(MvxSelectionBuilderTest, CountsClampToPoolBounds) {
  auto bundle = RunOfflineTool(TestModel(), SmallOffline(3, 3));
  ASSERT_TRUE(bundle.ok());
  MvxSelection sel =
      MvxSelection::Builder().Stage(0, 99).Stage(1, 0).Build(*bundle);
  EXPECT_EQ(sel.stage_variant_ids[0].size(), 3u);  // clamped to pool size
  EXPECT_EQ(sel.stage_variant_ids[1].size(), 1u);  // floor of one
}

TEST(MvxSelectionBuilderTest, ExplicitIdsOverrideCount) {
  auto bundle = RunOfflineTool(TestModel(), SmallOffline(3, 3));
  ASSERT_TRUE(bundle.ok());
  MvxSelection sel = MvxSelection::Builder()
                         .Stage(1, 3)
                         .Stage(1, {"s1.v2"})
                         .Build(*bundle);
  EXPECT_EQ(sel.stage_variant_ids[1],
            (std::vector<std::string>{"s1.v2"}));
}

TEST_F(MvteeSystemTest, BuilderSelectionRunsEndToEnd) {
  model_ = TestModel();
  auto bundle = RunOfflineTool(model_, SmallOffline(3, 5));
  ASSERT_TRUE(bundle.ok());
  bundle_ = std::move(*bundle);
  host_ = std::make_unique<VariantHost>(&cpu_, bundle_.store);
  auto monitor = Monitor::Create(&cpu_, MonitorConfig{});
  ASSERT_TRUE(monitor.ok());
  monitor_ = std::move(*monitor);
  MvxSelection sel =
      MvxSelection::Builder().Uniform(1).Stage(1, 3).Build(bundle_);
  ASSERT_TRUE(monitor_->Initialize(bundle_, sel, *host_).ok());

  util::Rng rng(20);
  auto input = Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);
  auto out = RunBatches(*monitor_, {{input}});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto expected = ReferenceRun({input});
  EXPECT_GT(tensor::CosineSimilarity((*out)[0][0], expected[0]), 0.999);
  auto stats = monitor_->ConsumeStats();
  EXPECT_EQ(stats.checkpoints_evaluated, 1u);  // only stage 1 is MVX
  EXPECT_EQ(stats.fast_path_forwards, 2u);
}

// ------------------------------------------------- run metrics

TEST_F(MvteeSystemTest, RunRecordsPerStageMetrics) {
  Boot(2, 2, MonitorConfig{});
  const obs::RegistrySnapshot base = monitor_->metrics().Snapshot();

  util::Rng rng(17);
  std::vector<std::vector<Tensor>> batches;
  for (int i = 0; i < 2; ++i) {
    batches.push_back({Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng)});
  }
  auto outs = RunBatches(*monitor_, batches);
  ASSERT_TRUE(outs.ok()) << outs.status().ToString();
  ASSERT_EQ(outs->size(), 2u);

  const obs::RegistrySnapshot delta =
      monitor_->metrics().Snapshot().DeltaSince(base);
  // One checkpoint-verify observation per (stage, batch).
  EXPECT_EQ(delta.histograms.at("monitor.stage0.verify_us").count, 2u);
  EXPECT_EQ(delta.histograms.at("monitor.stage1.verify_us").count, 2u);
  EXPECT_EQ(delta.counters.at("monitor.checkpoints_evaluated"), 4u);
  EXPECT_EQ(delta.counters.at("monitor.batches_completed"), 2u);
  EXPECT_EQ(delta.histograms.at("monitor.batch_latency_us").count, 2u);
  // Both stage boundaries carried payload bytes.
  EXPECT_GT(delta.counters.at("monitor.stage0.bytes"), 0u);
  EXPECT_GT(delta.counters.at("monitor.stage1.bytes"), 0u);
}

TEST_F(MvteeSystemTest, BindingsRecordAttestation) {
  Boot(2, 2, MonitorConfig{});
  auto bindings = monitor_->bindings();
  EXPECT_EQ(bindings.size(), 4u);
  for (const auto& b : bindings) {
    EXPECT_TRUE(b.active);
    EXPECT_GT(b.enclave_report_id, 0u);  // secure channels attested
  }
}

}  // namespace
}  // namespace mvtee::core
