// System-level integration and property tests: full deployments across
// zoo models, virtual-time engine properties, attack-surface behaviour,
// and resource-exhaustion edges.
#include <gtest/gtest.h>

#include "core/monitor.h"
#include "core/offline.h"
#include "core/variant_host.h"
#include "fault/injectors.h"
#include "graph/model_zoo.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "runtime/executor.h"
#include "transport/channel.h"
#include "util/clock.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>


namespace mvtee::core {
namespace {

using graph::Graph;
using tensor::Shape;
using tensor::Tensor;

// One-batch convenience over RunBatches: returns the batch's outputs.
util::Result<std::vector<Tensor>> RunOne(Monitor& m,
                                         const std::vector<Tensor>& inputs) {
  auto all = RunBatches(m, {inputs});
  if (!all.ok()) return all.status();
  return std::move((*all)[0]);
}

// Spins until `counter` reaches `target`; false once `timeout_us`
// passed (a failure guard, not a pacing device).
bool WaitForCounter(const obs::Counter& counter, uint64_t target,
                    int64_t timeout_us = 10'000'000) {
  const int64_t give_up = util::NowMicros() + timeout_us;
  while (counter.value() < target) {
    if (util::NowMicros() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

// Fault hook that parks the variant at its first node until Open(), and
// optionally corrupts every node output. The bounded wait only frees the
// variant if the test failed before opening the gate.
class GateHook : public runtime::FaultHook {
 public:
  explicit GateHook(bool corrupt = false) : corrupt_(corrupt) {}
  util::Status OnNodeStart(const graph::Node&) override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::seconds(30), [this] { return open_; });
    return util::OkStatus();
  }
  void OnNodeComplete(const graph::Node&, Tensor& out) override {
    if (corrupt_ && out.num_elements() > 0) out.data()[0] += 100.0f;
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  const bool corrupt_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

graph::ZooConfig SmallZoo() {
  graph::ZooConfig cfg;
  cfg.input_hw = 32;
  cfg.width_mult = 0.25;
  cfg.depth_mult = 0.34;
  return cfg;
}

OfflineOptions Offline(int partitions, int variants, bool replicated,
                       uint64_t seed = 41) {
  OfflineOptions opts;
  opts.num_partitions = partitions;
  opts.partition_seed = seed;
  opts.key_seed = seed + 1;
  opts.pool.variants_per_stage = variants;
  opts.pool.replicated = replicated;
  opts.pool.verify = false;
  opts.pool.seed = seed + 2;
  return opts;
}

std::vector<Tensor> ReferenceRun(const Graph& model,
                                 const std::vector<Tensor>& inputs) {
  auto exec =
      runtime::Executor::Create(model, runtime::ReferenceExecutorConfig());
  MVTEE_CHECK(exec.ok());
  auto out = (*exec)->Run(inputs);
  MVTEE_CHECK(out.ok());
  return *out;
}

// Full deployment across real zoo models with a diversified pool.
class ZooDeploymentTest : public ::testing::TestWithParam<graph::ModelKind> {
};

TEST_P(ZooDeploymentTest, DiversifiedMvxMatchesReference) {
  Graph model = graph::BuildModel(GetParam(), SmallZoo());
  auto bundle = RunOfflineTool(model, Offline(4, 3, /*replicated=*/false));
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  tee::SimulatedCpu cpu{tee::SimulatedCpu::Options{.hardware_key_seed = 5}};
  VariantHost host(&cpu, bundle->store);
  MonitorConfig config;
  config.check = CheckPolicy::Cosine(0.99);
  config.vote = VotePolicy::kMajority;
  config.reaction = ReactionPolicy::ContinueWithWinner();
  config.direct_fastpath = true;
  auto monitor = Monitor::Create(&cpu, config);
  ASSERT_TRUE(monitor.ok());
  ASSERT_TRUE((*monitor)
                  ->Initialize(*bundle, MvxSelection::Uniform(*bundle, 3),
                               host)
                  .ok());

  util::Rng rng(1);
  auto input = Tensor::RandomUniform(Shape({1, 3, 32, 32}), rng);
  auto out = RunOne(**monitor, {input});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto expected = ReferenceRun(model, {input});
  EXPECT_GT(tensor::CosineSimilarity((*out)[0], expected[0]), 0.999);

  auto stats = (*monitor)->ConsumeStats();
  EXPECT_EQ(stats.divergences, 0u);
  EXPECT_EQ(stats.variant_failures, 0u);
  ASSERT_TRUE((*monitor)->Shutdown().ok());
  host.JoinAll();
}

INSTANTIATE_TEST_SUITE_P(Models, ZooDeploymentTest,
                         ::testing::Values(graph::ModelKind::kResNet50,
                                           graph::ModelKind::kGoogleNet,
                                           graph::ModelKind::kMobileNetV3),
                         [](const auto& info) {
                           std::string name(graph::ModelName(info.param));
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Fixture for virtual-time and attack-surface tests on a small model.
class VirtualTimeTest : public ::testing::Test {
 protected:
  // `s0v0_hook`, if set, is attached to stage 0's first variant.
  void Boot(MonitorConfig config, int partitions = 4, int variants = 1,
            VariantHost::Options host_options = VariantHost::Options{},
            std::shared_ptr<runtime::FaultHook> s0v0_hook = nullptr) {
    model_ = graph::BuildModel(graph::ModelKind::kResNet50, SmallZoo());
    auto bundle =
        RunOfflineTool(model_, Offline(partitions, 5, /*replicated=*/true));
    ASSERT_TRUE(bundle.ok());
    bundle_ = std::move(*bundle);
    host_ = std::make_unique<VariantHost>(&cpu_, bundle_.store,
                                          host_options);
    if (s0v0_hook) host_->SetFaultHook("s0.v0", std::move(s0v0_hook));
    auto monitor = Monitor::Create(&cpu_, config);
    ASSERT_TRUE(monitor.ok());
    monitor_ = std::move(*monitor);
    ASSERT_TRUE(monitor_
                    ->Initialize(bundle_,
                                 MvxSelection::Uniform(bundle_, variants),
                                 *host_)
                    .ok());
  }

  std::vector<std::vector<Tensor>> MakeBatches(int n) {
    util::Rng rng(9);
    std::vector<std::vector<Tensor>> batches;
    for (int i = 0; i < n; ++i) {
      batches.push_back({Tensor::RandomUniform(Shape({1, 3, 32, 32}), rng)});
    }
    return batches;
  }

  // Boots a 3-stage ResNet-50 whose diversified pool includes a slow
  // variant (s1.v2) behind an async majority panel {1, 3, 1};
  // `healthy_hook`, if set, is attached to the panel's other members.
  void BootPanel(std::shared_ptr<runtime::FaultHook> slow_hook,
                 MonitorConfig config = AsyncMajority(),
                 VariantHost::Options host_options = {},
                 std::shared_ptr<runtime::FaultHook> healthy_hook = nullptr) {
    model_ = graph::BuildModel(graph::ModelKind::kResNet50, SmallZoo());
    auto opts = Offline(3, 2, /*replicated=*/false);
    opts.pool.include_slow_variant = true;
    opts.pool.slow_variant_factor = 6.0;
    auto bundle = RunOfflineTool(model_, opts);
    ASSERT_TRUE(bundle.ok());
    bundle_ = std::move(*bundle);
    host_ =
        std::make_unique<VariantHost>(&cpu_, bundle_.store, host_options);
    host_->SetFaultHook("s1.v2", std::move(slow_hook));
    if (healthy_hook) {
      host_->SetFaultHook("s1.v0", healthy_hook);
      host_->SetFaultHook("s1.v1", healthy_hook);
    }
    auto monitor = Monitor::Create(&cpu_, config);
    ASSERT_TRUE(monitor.ok());
    monitor_ = std::move(*monitor);
    ASSERT_TRUE(monitor_
                    ->Initialize(bundle_,
                                 MvxSelection::PerStage(bundle_, {1, 3, 1}),
                                 *host_)
                    .ok());
  }

  static MonitorConfig AsyncMajority() {
    MonitorConfig config;
    config.mode = ExecMode::kAsync;
    config.check = CheckPolicy::Cosine(0.99);
    config.vote = VotePolicy::kMajority;
    config.reaction = ReactionPolicy::ContinueWithWinner();
    return config;
  }

  uint64_t Count(const char* name) {
    return monitor_->metrics().GetCounter(name).value();
  }

  void TearDown() override {
    if (monitor_) {
      ASSERT_TRUE(monitor_->Shutdown().ok());
    }
    if (host_) host_->JoinAll();
    // The flight recorder's ring is process-wide: a later test's
    // evidence bundle must not carry this test's verdicts.
    obs::FlightRecorder::Default().Clear();
  }

  tee::SimulatedCpu cpu_{tee::SimulatedCpu::Options{.hardware_key_seed = 7}};
  Graph model_;
  OfflineBundle bundle_;
  std::unique_ptr<VariantHost> host_;
  std::unique_ptr<Monitor> monitor_;
};

TEST_F(VirtualTimeTest, PipelinedBeatsSequentialThroughput) {
  MonitorConfig config;
  config.direct_fastpath = true;
  Boot(config);
  auto batches = MakeBatches(10);

  ASSERT_TRUE(RunBatches(*monitor_, batches).ok());
  auto seq = monitor_->ConsumeStats();
  ASSERT_TRUE(RunBatches(*monitor_, batches, /*pipelined=*/true).ok());
  auto pipe = monitor_->ConsumeStats();

  EXPECT_GT(seq.ThroughputPerSec(), 0.0);
  // With 4 stages on independent (virtual) executors, pipelining must
  // improve steady-state throughput materially.
  EXPECT_GT(pipe.ThroughputPerSec(), seq.ThroughputPerSec() * 1.3);
}

TEST_F(VirtualTimeTest, StatsAreMeaningful) {
  MonitorConfig config;
  Boot(config, 3, 3);
  auto batches = MakeBatches(4);
  ASSERT_TRUE(RunBatches(*monitor_, batches).ok());
  auto stats = monitor_->ConsumeStats();
  EXPECT_EQ(stats.batch_latency_us.count, 4u);
  EXPECT_GT(stats.batch_latency_us.min_us, 0);
  EXPECT_GT(stats.wall_us, 0);
  EXPECT_EQ(stats.checkpoints_evaluated, 3u * 4u);
  EXPECT_GT(stats.bytes_sent, 0u);
  // Mean latency consistent with the summary.
  double mean = stats.MeanLatencyUs();
  EXPECT_GE(mean, static_cast<double>(stats.batch_latency_us.min_us));
  EXPECT_LE(mean, static_cast<double>(stats.batch_latency_us.max_us));
  // Consuming resets.
  auto empty = monitor_->ConsumeStats();
  EXPECT_EQ(empty.batch_latency_us.count, 0u);
}

TEST_F(VirtualTimeTest, SlowVariantDelaysSyncButNotAsyncQuorum) {
  // Diversified pool with an extra-slow variant on one stage's panel.
  model_ = graph::BuildModel(graph::ModelKind::kResNet50, SmallZoo());
  auto opts = Offline(3, 2, /*replicated=*/false);
  opts.pool.include_slow_variant = true;
  opts.pool.slow_variant_factor = 6.0;
  auto bundle = RunOfflineTool(model_, opts);
  ASSERT_TRUE(bundle.ok());
  bundle_ = std::move(*bundle);

  auto run_mode = [&](ExecMode mode) -> double {
    host_ = std::make_unique<VariantHost>(&cpu_, bundle_.store);
    MonitorConfig config;
    config.mode = mode;
    config.check = CheckPolicy::Cosine(0.99);
    config.vote = VotePolicy::kMajority;
    config.reaction = ReactionPolicy::ContinueWithWinner();
    auto monitor = Monitor::Create(&cpu_, config);
    MVTEE_CHECK(monitor.ok());
    monitor_ = std::move(*monitor);
    MVTEE_CHECK(monitor_
                    ->Initialize(bundle_,
                                 MvxSelection::PerStage(bundle_, {1, 3, 1}),
                                 *host_)
                    .ok());
    auto batches = MakeBatches(6);
    MVTEE_CHECK(RunBatches(*monitor_, batches).ok());
    auto stats = monitor_->ConsumeStats();
    MVTEE_CHECK(monitor_->Shutdown().ok());
    host_->JoinAll();
    return stats.ThroughputPerSec();
  };

  double sync_tput = run_mode(ExecMode::kSync);
  double async_tput = run_mode(ExecMode::kAsync);
  // The 6x-slow panel member throttles sync but not the async quorum.
  EXPECT_GT(async_tput, sync_tput * 1.2);
}

TEST_F(VirtualTimeTest, AsyncLateDivergenceDetected) {
  // The corrupted slow variant is held until the healthy quorum answered
  // the first batch, so its report for that batch lands after the
  // verdict: async validation flags it as a late divergence.
  auto gate = std::make_shared<GateHook>(/*corrupt=*/true);
  BootPanel(gate);
  (void)monitor_->ConsumeStats();
  const obs::Counter& completed =
      monitor_->metrics().GetCounter("monitor.batches_completed");
  const uint64_t before = completed.value();
  auto batches = MakeBatches(6);
  auto run = std::async(std::launch::async,
                        [&] { return RunBatches(*monitor_, batches); });
  ASSERT_TRUE(WaitForCounter(completed, before + 1));
  gate->Open();
  auto out = run.get();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto stats = monitor_->ConsumeStats();
  EXPECT_GE(stats.late_divergences, 1u);
  // And every released output matches the healthy reference.
  for (size_t b = 0; b < batches.size(); ++b) {
    auto expected = ReferenceRun(model_, batches[b]);
    EXPECT_GT(tensor::CosineSimilarity((*out)[b][0], expected[0]), 0.999);
  }
}

TEST_F(VirtualTimeTest, ServedAsyncStragglersAreCrossChecked) {
  // The corrupted slow panel member reports after the healthy quorum
  // answered its request. The serving stream keeps the batch until that
  // report arrives and cross-checks it: a late divergence, not an
  // unchecked drop.
  auto gate = std::make_shared<GateHook>(/*corrupt=*/true);
  BootPanel(gate);
  ASSERT_TRUE(monitor_->StartService().ok());
  const uint64_t unchecked = Count("monitor.unchecked_reports");
  const uint64_t late = Count("monitor.late_divergences");

  auto session = monitor_->OpenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  // One request at a time; the gate opens once the first is answered.
  for (auto& inputs : MakeBatches(6)) {
    InferenceRequest request;
    request.inputs = std::move(inputs);
    auto future = (*session)->Submit(std::move(request));
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    InferenceResponse response = future->get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    gate->Open();
  }
  monitor_->StopService();  // waits for every owed report
  EXPECT_EQ(Count("monitor.unchecked_reports"), unchecked);
  EXPECT_GE(Count("monitor.late_divergences"), late + 1);
}

TEST_F(VirtualTimeTest, QuorumVerdictIsDatedByItsWinningBloc) {
  // The slow member burns thread CPU at its first node and then fails,
  // so its failure report carries about 6x that CPU in virtual time. The
  // healthy members are held until that failure is counted; their
  // quorum decides, and the verdict is dated by the bloc that won it,
  // not by the failure it outvoted.
  class BurnThenFail : public runtime::FaultHook {
   public:
    util::Status OnNodeStart(const graph::Node&) override {
      const int64_t cpu0 = util::ThreadCpuMicros();
      while (util::ThreadCpuMicros() - cpu0 < 10'000) {
      }
      return util::Internal("injected crash after 10 ms of CPU");
    }
  };
  auto healthy = std::make_shared<GateHook>();
  BootPanel(std::make_shared<BurnThenFail>(), AsyncMajority(), {}, healthy);
  const obs::Counter& failures =
      monitor_->metrics().GetCounter("monitor.variant_failures");
  const uint64_t before = failures.value();
  auto run = std::async(std::launch::async,
                        [&] { return RunBatches(*monitor_, MakeBatches(1)); });
  const bool failed = WaitForCounter(failures, before + 1);
  healthy->Open();
  ASSERT_TRUE(failed);
  auto out = run.get();
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  std::optional<obs::CheckpointEvidence> verdict;
  for (auto& ev : obs::FlightRecorder::Default().Snapshot()) {
    if (ev.stage == 1 && ev.verdict == "divergence") verdict = std::move(ev);
  }
  ASSERT_TRUE(verdict.has_value());
  ASSERT_EQ(verdict->variants.size(), 3u);
  const obs::VariantEvidence& slow = verdict->variants[2];
  EXPECT_EQ(slow.variant_id, "s1.v2");
  EXPECT_FALSE(slow.ok);
  EXPECT_TRUE(slow.dissent);
  EXPECT_LT(verdict->v_decide_us, static_cast<int64_t>(slow.vtime_us));
}

TEST_F(VirtualTimeTest, AsyncQuorumJudgesLikeTheSyncVote) {
  // Three replicated members whose final outputs are shifted by 0, +0.6
  // and +1.2 under MaxAbs(1.0): A agrees with B and B with C, but A
  // disagrees with C. The majority vote keeps A's bloc {A, B} and counts
  // C as the one dissenter. The async quorum sees A and C first and B
  // only after it voted on them, and must judge the same.
  class Shift : public runtime::FaultHook {
   public:
    Shift(std::string node, float delta, std::shared_ptr<GateHook> gate)
        : node_(std::move(node)), delta_(delta), gate_(std::move(gate)) {}
    util::Status OnNodeStart(const graph::Node& node) override {
      return gate_ ? gate_->OnNodeStart(node) : util::OkStatus();
    }
    void OnNodeComplete(const graph::Node& node, Tensor& out) override {
      if (node.name != node_) return;
      float* data = out.data();
      for (int64_t i = 0; i < out.num_elements(); ++i) data[i] += delta_;
    }

   private:
    const std::string node_;
    const float delta_;
    const std::shared_ptr<GateHook> gate_;
  };

  model_ = graph::BuildModel(graph::ModelKind::kResNet50, SmallZoo());
  auto bundle = RunOfflineTool(model_, Offline(3, 3, /*replicated=*/true));
  ASSERT_TRUE(bundle.ok());
  bundle_ = std::move(*bundle);
  const std::string last = model_.node(model_.outputs()[0]).name;
  const auto input = MakeBatches(1);
  const std::vector<Tensor> expected = ReferenceRun(model_, input[0]);

  for (ExecMode mode : {ExecMode::kSync, ExecMode::kAsync}) {
    SCOPED_TRACE(mode == ExecMode::kSync ? "sync" : "async");
    // Async only: B is held until the vote on A's and C's reports ran.
    auto gate = mode == ExecMode::kAsync ? std::make_shared<GateHook>()
                                         : nullptr;
    host_ = std::make_unique<VariantHost>(&cpu_, bundle_.store);
    host_->SetFaultHook("s2.v0", std::make_shared<Shift>(last, 0.0f, nullptr));
    host_->SetFaultHook("s2.v1", std::make_shared<Shift>(last, 0.6f, gate));
    host_->SetFaultHook("s2.v2", std::make_shared<Shift>(last, 1.2f, nullptr));
    MonitorConfig config;
    config.mode = mode;
    config.check = CheckPolicy::MaxAbs(1.0);
    config.vote = VotePolicy::kMajority;
    config.reaction = ReactionPolicy::ContinueWithWinner();
    auto monitor = Monitor::Create(&cpu_, config);
    ASSERT_TRUE(monitor.ok());
    monitor_ = std::move(*monitor);
    ASSERT_TRUE(monitor_
                    ->Initialize(bundle_, MvxSelection::Uniform(bundle_, 3),
                                 *host_)
                    .ok());
    // Stages 0 and 1 agree byte for byte: the first element-wise check
    // is A's or C's against the other.
    const obs::Counter& full_checks =
        monitor_->metrics().GetCounter("monitor.full_checks");
    const uint64_t full0 = full_checks.value();
    auto run = std::async(std::launch::async,
                          [&] { return RunBatches(*monitor_, input); });
    if (gate) {
      const bool voted = WaitForCounter(full_checks, full0 + 1);
      gate->Open();
      ASSERT_TRUE(voted);
    }
    auto out = run.get();
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    const RunStats stats = monitor_->ConsumeStats();
    EXPECT_EQ(stats.divergences, 1u);
    EXPECT_EQ(stats.late_divergences, 0u);
    // A's outputs (no shift), not B's (+0.6).
    EXPECT_LT(tensor::MaxAbsDiff((*out)[0][0], expected[0]), 0.3);
    ASSERT_TRUE(monitor_->Shutdown().ok());
    host_->JoinAll();
  }
}

TEST_F(VirtualTimeTest, IdleDeploymentKeepsItsVariants) {
  // A running variant has no idle timeout: the monitor ends it with
  // ShutdownMsg or by dropping its channel. An idle spell longer than
  // the host's recv timeout, which bounds only the bootstrap
  // handshakes, must leave single-variant stages and panels serving.
  VariantHost::Options host_options;
  host_options.recv_timeout_us = 300'000;
  for (int variants : {1, 3}) {
    SCOPED_TRACE(variants);
    Boot(MonitorConfig{}, 3, variants, host_options);
    const auto batches = MakeBatches(3);
    ASSERT_TRUE(RunBatches(*monitor_, {batches[0]}).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
    auto out = RunBatches(*monitor_, {batches[1], batches[2]});
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_TRUE(monitor_->Shutdown().ok());
    host_->JoinAll();
  }
}

TEST_F(VirtualTimeTest, LaggingMemberSkipsBatchesBeyondItsBudget) {
  // A wedged async member may owe at most max_batch reports: it is left
  // out of every later batch (counted unsampled), the healthy quorum
  // answers all of them, and once it wakes each report it owed is
  // cross-checked.
  constexpr size_t kBudget = 4;
  constexpr size_t kRequests = 10;
  auto gate = std::make_shared<GateHook>(/*corrupt=*/true);
  BootPanel(gate);
  core::ServiceConfig service;
  service.scheduler.max_batch = kBudget;
  service.admission_queue_max = kRequests;
  ASSERT_TRUE(monitor_->StartService(service).ok());
  const uint64_t unsampled = Count("monitor.unsampled_batches");
  const uint64_t unchecked = Count("monitor.unchecked_reports");
  const uint64_t late = Count("monitor.late_divergences");

  auto session = monitor_->OpenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::vector<std::future<InferenceResponse>> replies;
  for (auto& inputs : MakeBatches(kRequests)) {
    InferenceRequest request;
    request.inputs = std::move(inputs);
    auto future = (*session)->Submit(std::move(request));
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    replies.push_back(std::move(*future));
  }
  for (auto& reply : replies) {
    const InferenceResponse response = reply.get();
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  EXPECT_EQ(Count("monitor.unsampled_batches"),
            unsampled + kRequests - kBudget);

  gate->Open();
  monitor_->StopService();  // waits for the owed reports
  EXPECT_EQ(Count("monitor.late_divergences"), late + kBudget);
  EXPECT_EQ(Count("monitor.unchecked_reports"), unchecked);
}

TEST_F(VirtualTimeTest, SyncPanelsNeverSkipBatches) {
  // A sync batch completes only once every member reported, so no member
  // can owe max_batch reports when a new batch reaches its stage.
  Boot(MonitorConfig{}, 3, 3);
  const obs::Counter& unsampled =
      monitor_->metrics().GetCounter("monitor.unsampled_batches");
  const uint64_t before = unsampled.value();
  ASSERT_TRUE(RunBatches(*monitor_, MakeBatches(6), /*pipelined=*/true).ok());

  core::ServiceConfig service;
  service.scheduler.max_batch = 2;  // slots free and refill mid-stream
  ASSERT_TRUE(monitor_->StartService(service).ok());
  auto session = monitor_->OpenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::vector<std::future<InferenceResponse>> replies;
  for (auto& inputs : MakeBatches(8)) {
    InferenceRequest request;
    request.inputs = std::move(inputs);
    auto future = (*session)->Submit(std::move(request));
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    replies.push_back(std::move(*future));
  }
  for (auto& reply : replies) EXPECT_TRUE(reply.get().status.ok());
  monitor_->StopService();
  EXPECT_EQ(unsampled.value(), before);
}

TEST_F(VirtualTimeTest, DepartedMemberReleasesOwedReportsUnchecked) {
  // A wedged supervised member owes max_batch reports on decided
  // stages. Its first frame after waking is tampered, so the monitor
  // quarantines it: what it owed can no longer arrive, so it is counted
  // unchecked, never judged as late dissent, and StopService does not
  // wait out recv_timeout_us for it.
  constexpr size_t kBudget = 3;
  constexpr size_t kRequests = 6;
  auto tamper = std::make_shared<std::atomic<bool>>(false);
  VariantHost::Options hostile;
  hostile.tamper_variant_tx =
      [tamper](const util::Bytes& frame) -> std::optional<util::Bytes> {
    if (!tamper->load()) return frame;
    util::Bytes tampered = frame;
    tampered[tampered.size() / 2] ^= 0x01;
    return tampered;
  };
  MonitorConfig config = AsyncMajority();
  config.reaction = ReactionPolicy::Builder()
                        .QuarantineAndRestart()
                        .Backoff(/*initial_us=*/60'000'000, /*multiplier=*/2.0,
                                 /*max_us=*/60'000'000)
                        .Build();
  auto gate = std::make_shared<GateHook>();
  BootPanel(gate, config, hostile);
  core::ServiceConfig service;
  service.scheduler.max_batch = kBudget;
  ASSERT_TRUE(monitor_->StartService(service).ok());
  const uint64_t unchecked = Count("monitor.unchecked_reports");
  const uint64_t late = Count("monitor.late_divergences");
  const uint64_t quarantines = Count("supervisor.quarantines_total");

  auto session = monitor_->OpenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::vector<std::future<InferenceResponse>> replies;
  for (auto& inputs : MakeBatches(kRequests)) {
    InferenceRequest request;
    request.inputs = std::move(inputs);
    auto future = (*session)->Submit(std::move(request));
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    replies.push_back(std::move(*future));
  }
  for (auto& reply : replies) EXPECT_TRUE(reply.get().status.ok());

  // Only the woken member sends from here on.
  tamper->store(true);
  gate->Open();
  ASSERT_TRUE(WaitForCounter(
      monitor_->metrics().GetCounter("supervisor.quarantines_total"),
      quarantines + 1));
  const int64_t stop0 = util::NowMicros();
  monitor_->StopService();
  EXPECT_LT(util::NowMicros() - stop0, config.recv_timeout_us);
  EXPECT_EQ(Count("monitor.unchecked_reports"), unchecked + kBudget);
  EXPECT_EQ(Count("monitor.late_divergences"), late);
}

TEST_F(VirtualTimeTest, VerifyFastPathCatchesNonFinitePoisoning) {
  model_ = graph::BuildModel(graph::ModelKind::kResNet50, SmallZoo());
  auto bundle = RunOfflineTool(model_, Offline(3, 1, /*replicated=*/true));
  ASSERT_TRUE(bundle.ok());
  bundle_ = std::move(*bundle);

  class Poison : public runtime::FaultHook {
   public:
    void OnNodeComplete(const graph::Node& node, Tensor& out) override {
      if (node.op == graph::OpType::kConv2d && out.num_elements() > 0) {
        out.data()[0] = std::numeric_limits<float>::quiet_NaN();
      }
    }
  };
  host_ = std::make_unique<VariantHost>(&cpu_, bundle_.store);
  host_->SetFaultHook("s1.v0", std::make_shared<Poison>());

  MonitorConfig config;
  config.verify_fast_path = true;  // single-variant rule evaluation
  auto monitor = Monitor::Create(&cpu_, config);
  ASSERT_TRUE(monitor.ok());
  monitor_ = std::move(*monitor);
  ASSERT_TRUE(monitor_
                  ->Initialize(bundle_, MvxSelection::Uniform(bundle_, 1),
                               *host_)
                  .ok());
  auto out = RunOne(*monitor_, MakeBatches(1)[0]);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), util::StatusCode::kDivergenceDetected);
}

TEST_F(VirtualTimeTest, EventedMonitorExposesWaitAndPrefilterMetrics) {
  // Replicated 3-variant panels produce byte-identical outputs, so the
  // digest prefilter must absorb every pairwise check; the evented loop
  // must record blocking waits instead of busy-poll sleeps. Stage 0's
  // first member is held until the loop parked once: variants can
  // otherwise finish each stage before the loop's next poll, and a loop
  // with work at every pass never needs to block.
  MonitorConfig config;
  auto gate = std::make_shared<GateHook>();
  Boot(config, 3, 3, {}, gate);
  auto before = obs::Registry::Default().Snapshot();
  const obs::Histogram& waits =
      monitor_->metrics().GetHistogram("monitor.wait_us");
  const uint64_t waits0 = waits.count();
  auto batches = MakeBatches(4);
  auto run = std::async(std::launch::async,
                        [&] { return RunBatches(*monitor_, batches); });
  const int64_t give_up = util::NowMicros() + 10'000'000;
  while (waits.count() == waits0 && util::NowMicros() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  gate->Open();
  ASSERT_TRUE(run.get().ok());
  auto delta = obs::Registry::Default().Snapshot().DeltaSince(before);
  EXPECT_GT(delta.counters.at("monitor.prefilter_hits"), 0u);
  EXPECT_EQ(delta.counters.at("monitor.full_checks"), 0u);
  EXPECT_GT(delta.histograms.at("monitor.wait_us").count, 0u);
  EXPECT_GT(delta.histograms.at("monitor.verify_job_us").count, 0u);
}

TEST_F(VirtualTimeTest, SequentialPacingKeepsVirtualTimeSane) {
  // Regression: sequential admission used to run inside the decision
  // handler and clobber the in-flight event's virtual-time bases,
  // skewing per-batch latencies. Latencies must stay positive and
  // mutually sane.
  Boot(MonitorConfig{}, 3, 3);
  auto batches = MakeBatches(5);
  (void)monitor_->ConsumeStats();
  ASSERT_TRUE(RunBatches(*monitor_, batches).ok());
  const LatencySummary run = monitor_->ConsumeStats().batch_latency_us;
  ASSERT_EQ(run.count, 5u);
  const int64_t lo = run.min_us;
  const int64_t hi = run.max_us;
  EXPECT_GT(lo, 0);
  EXPECT_LT(hi, lo * 100);  // no batch pays another's clobbered baseline
}

TEST_F(VirtualTimeTest, TamperedResultFrameAbortsRun) {
  // Host-level attacker: flip one ciphertext byte in every large
  // variant-to-monitor frame (inference results; handshake and init
  // acks are small and pass untouched). The secure channel reports
  // AuthenticationFailure and the monitor must abort the run with that
  // code instead of swallowing it and spinning until the deadline.
  model_ = graph::BuildModel(graph::ModelKind::kResNet50, SmallZoo());
  auto bundle = RunOfflineTool(model_, Offline(3, 1, /*replicated=*/true));
  ASSERT_TRUE(bundle.ok());
  bundle_ = std::move(*bundle);

  VariantHost::Options hostile;
  hostile.tamper_variant_tx =
      [](const util::Bytes& frame) -> std::optional<util::Bytes> {
    if (frame.size() <= 2048) return frame;
    util::Bytes tampered = frame;
    tampered[tampered.size() / 2] ^= 0x01;
    return tampered;
  };
  VariantHost host(&cpu_, bundle_.store, hostile);

  MonitorConfig config;
  config.recv_timeout_us = 5'000'000;
  auto monitor = Monitor::Create(&cpu_, config);
  ASSERT_TRUE(monitor.ok());
  ASSERT_TRUE((*monitor)
                  ->Initialize(bundle_, MvxSelection::Uniform(bundle_, 1),
                               host)
                  .ok());
  const int64_t wall0 = util::NowMicros();
  auto out = RunOne(**monitor, MakeBatches(1)[0]);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), util::StatusCode::kAuthenticationFailure);
  // Aborted on detection, not by burning the full recv deadline.
  EXPECT_LT(util::NowMicros() - wall0, 4'000'000);
  (void)(*monitor)->Shutdown();
  host.JoinAll();
}

TEST_F(VirtualTimeTest, DivergenceWritesEvidenceBundleWithLinkedTrace) {
  // End-to-end observability check: a fault-injected divergent run must
  // leave behind a self-contained evidence bundle whose merged trace is
  // causally linked across TEEs — monitor and variant spans share the
  // batch's trace id, and the stage-0 variant/infer spans parent under
  // the monitor's dispatch (monitor/admit) span.
  char evidence_dir[] = "/tmp/mvtee-evidence-XXXXXX";
  ASSERT_NE(::mkdtemp(evidence_dir), nullptr);
  ASSERT_EQ(::setenv("MVTEE_EVIDENCE_DIR", evidence_dir, 1), 0);

  model_ = graph::BuildModel(graph::ModelKind::kResNet50, SmallZoo());
  auto bundle = RunOfflineTool(model_, Offline(3, 3, /*replicated=*/true));
  ASSERT_TRUE(bundle.ok());
  bundle_ = std::move(*bundle);

  class Corrupt : public runtime::FaultHook {
   public:
    void OnNodeComplete(const graph::Node&, Tensor& out) override {
      if (out.num_elements() > 0) out.data()[0] += 100.0f;
    }
  };
  VariantHost host(&cpu_, bundle_.store);
  host.SetFaultHook("s0.v1", std::make_shared<Corrupt>());

  MonitorConfig config;  // kUnanimous + kAbort: one dissenter aborts
  auto monitor = Monitor::Create(&cpu_, config);
  ASSERT_TRUE(monitor.ok());
  ASSERT_TRUE((*monitor)
                  ->Initialize(bundle_, MvxSelection::Uniform(bundle_, 3),
                               host)
                  .ok());
  auto out = RunBatches(**monitor, MakeBatches(1));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), util::StatusCode::kDivergenceDetected);
  (void)(*monitor)->Shutdown();
  host.JoinAll();
  ASSERT_EQ(::unsetenv("MVTEE_EVIDENCE_DIR"), 0);

  // Exactly one incident → exactly one bundle.
  std::vector<std::filesystem::path> bundles;
  for (const auto& entry :
       std::filesystem::directory_iterator(evidence_dir)) {
    bundles.push_back(entry.path());
  }
  ASSERT_EQ(bundles.size(), 1u);

  std::ifstream in(bundles[0]);
  std::stringstream text;
  text << in.rdbuf();
  auto doc = obs::ParseJson(text.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  ASSERT_NE(doc->Find("schema"), nullptr);
  EXPECT_EQ(doc->Find("schema")->as_string(), "mvtee-evidence-v1");
  ASSERT_NE(doc->Find("trigger"), nullptr);
  EXPECT_EQ(doc->Find("trigger")->as_string(), "vote-divergence");

  // The flight recorder captured the divergent checkpoint, with the
  // corrupted variant marked as the dissenter.
  const obs::JsonValue* verdicts = doc->Find("verdicts");
  ASSERT_NE(verdicts, nullptr);
  bool saw_divergence = false;
  for (const auto& v : verdicts->as_array()) {
    if (v.Find("verdict")->as_string() != "divergence") continue;
    saw_divergence = true;
    for (const auto& variant : v.Find("variants")->as_array()) {
      const bool dissent = variant.Find("dissent")->as_bool();
      EXPECT_EQ(dissent,
                variant.Find("variant_id")->as_string() == "s0.v1");
    }
  }
  EXPECT_TRUE(saw_divergence);

  // JsonValue stores numbers as doubles; ids compared after the same
  // uint64→double cast are consistent.
  ASSERT_NE(doc->Find("trace_id"), nullptr);
  const double trace_id = static_cast<double>(
      std::strtoull(doc->Find("trace_id")->as_string().c_str(), nullptr, 10));
  ASSERT_NE(trace_id, 0.0);

  const obs::JsonValue* trace = doc->Find("trace");
  ASSERT_NE(trace, nullptr);
  const obs::JsonValue* processes = trace->Find("processes");
  ASSERT_NE(processes, nullptr);

  double admit_span_id = 0.0;
  int variant_spans_under_admit = 0;
  bool saw_monitor = false, saw_tee = false;
  for (const auto& proc : processes->as_array()) {
    const std::string& name = proc.Find("process")->as_string();
    if (name == "monitor") saw_monitor = true;
    if (name.rfind("tee/", 0) == 0) saw_tee = true;
    for (const auto& span : proc.Find("spans")->as_array()) {
      // Every span in the slice belongs to the aborting batch's trace.
      EXPECT_EQ(span.Find("trace_id")->as_number(), trace_id);
      if (name == "monitor" &&
          span.Find("name")->as_string() == "monitor/admit") {
        admit_span_id = span.Find("span_id")->as_number();
      }
    }
  }
  EXPECT_TRUE(saw_monitor);
  EXPECT_TRUE(saw_tee);
  ASSERT_NE(admit_span_id, 0.0);
  for (const auto& proc : processes->as_array()) {
    const std::string& name = proc.Find("process")->as_string();
    if (name.rfind("tee/s0.", 0) != 0) continue;
    for (const auto& span : proc.Find("spans")->as_array()) {
      if (span.Find("name")->as_string() != "variant/infer") continue;
      EXPECT_EQ(span.Find("parent_span_id")->as_number(), admit_span_id);
      ++variant_spans_under_admit;
    }
  }
  // All three stage-0 replicas inferred under the monitor's dispatch.
  EXPECT_EQ(variant_spans_under_admit, 3);

  std::filesystem::remove_all(evidence_dir);
}

TEST_F(VirtualTimeTest, EpcExhaustionFailsInitializationGracefully) {
  model_ = graph::BuildModel(graph::ModelKind::kResNet50, SmallZoo());
  auto bundle = RunOfflineTool(model_, Offline(3, 3, /*replicated=*/true));
  ASSERT_TRUE(bundle.ok());
  bundle_ = std::move(*bundle);

  // Enough EPC for the monitor and a couple of variants only.
  tee::SimulatedCpu tiny_cpu{
      tee::SimulatedCpu::Options{.total_epc_pages = 9000,
                                 .hardware_key_seed = 11}};
  VariantHost host(&tiny_cpu, bundle_.store);
  auto monitor = Monitor::Create(&tiny_cpu, MonitorConfig{});
  ASSERT_TRUE(monitor.ok());
  auto status = (*monitor)->Initialize(
      bundle_, MvxSelection::Uniform(bundle_, 3), host);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
  (void)(*monitor)->Shutdown();
  host.JoinAll();
}

TEST_F(VirtualTimeTest, ExplicitSelectionPicksNamedVariants) {
  model_ = graph::BuildModel(graph::ModelKind::kResNet50, SmallZoo());
  auto bundle = RunOfflineTool(model_, Offline(3, 4, /*replicated=*/false));
  ASSERT_TRUE(bundle.ok());
  bundle_ = std::move(*bundle);
  host_ = std::make_unique<VariantHost>(&cpu_, bundle_.store);
  auto monitor = Monitor::Create(&cpu_, MonitorConfig{});
  ASSERT_TRUE(monitor.ok());
  monitor_ = std::move(*monitor);
  MvxSelection sel;
  sel.stage_variant_ids = {{"s0.v3"}, {"s1.v1", "s1.v2"}, {"s2.v0"}};
  ASSERT_TRUE(monitor_->Initialize(bundle_, sel, *host_).ok());
  auto bindings = monitor_->bindings();
  ASSERT_EQ(bindings.size(), 4u);
  EXPECT_EQ(bindings[0].variant_id, "s0.v3");
  EXPECT_EQ(bindings[1].variant_id, "s1.v1");
  auto out = RunOne(*monitor_, MakeBatches(1)[0]);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
}

TEST_F(VirtualTimeTest, RepeatedRunsAccumulateIndependentStats) {
  MonitorConfig config;
  Boot(config, 3, 1);
  auto batches = MakeBatches(3);
  ASSERT_TRUE(RunBatches(*monitor_, batches).ok());
  auto first = monitor_->ConsumeStats();
  ASSERT_TRUE(RunBatches(*monitor_, batches).ok());
  auto second = monitor_->ConsumeStats();
  EXPECT_EQ(first.batch_latency_us.count, 3u);
  EXPECT_EQ(second.batch_latency_us.count, 3u);
  // Virtual clocks persist across runs but latencies stay per-run sane:
  // within an order of magnitude of each other.
  EXPECT_LT(second.MeanLatencyUs(), first.MeanLatencyUs() * 10);
  EXPECT_GT(second.MeanLatencyUs(), first.MeanLatencyUs() / 10);
}

TEST_F(VirtualTimeTest, PlaintextAblationIsNotSlower) {
  // Encryption can only add (virtual) cost.
  auto batches = MakeBatches(8);

  MonitorConfig config;
  config.direct_fastpath = true;
  Boot(config);
  ASSERT_TRUE(RunBatches(*monitor_, batches).ok());
  auto encrypted = monitor_->ConsumeStats();
  ASSERT_TRUE(monitor_->Shutdown().ok());
  host_->JoinAll();

  VariantHost::Options plain;
  plain.plaintext_channels = true;
  host_ = std::make_unique<VariantHost>(&cpu_, bundle_.store, plain);
  auto monitor = Monitor::Create(&cpu_, config);
  ASSERT_TRUE(monitor.ok());
  monitor_ = std::move(*monitor);
  ASSERT_TRUE(monitor_
                  ->Initialize(bundle_, MvxSelection::Uniform(bundle_, 1),
                               *host_)
                  .ok());
  ASSERT_TRUE(RunBatches(*monitor_, batches).ok());
  auto plaintext = monitor_->ConsumeStats();

  // Allow generous noise margin; the point is no systematic inversion.
  EXPECT_LT(plaintext.MeanLatencyUs(), encrypted.MeanLatencyUs() * 1.25);
}

TEST_F(VirtualTimeTest, LifecycleEvidenceBundleRecordsQuarantineAndReadmit) {
  // Full reaction loop inside ONE RunBatches call: a transient tamper
  // on one replica trips quarantine, the supervisor re-bootstraps it
  // through the attested two-stage protocol and re-admits it after a
  // clean shadow checkpoint — all without aborting. The end-of-run evidence
  // bundle must carry the quarantine AND readmit verdicts, each linked
  // to its batch's trace, and the supervisor metrics must move.
  char evidence_dir[] = "/tmp/mvtee-lifecycle-XXXXXX";
  ASSERT_NE(::mkdtemp(evidence_dir), nullptr);
  ASSERT_EQ(::setenv("MVTEE_EVIDENCE_DIR", evidence_dir, 1), 0);

  model_ = graph::BuildModel(graph::ModelKind::kResNet50, SmallZoo());
  auto bundle = RunOfflineTool(model_, Offline(2, 3, /*replicated=*/true));
  ASSERT_TRUE(bundle.ok());
  bundle_ = std::move(*bundle);

  fault::WindowedFaultSpec spec;
  spec.effect = fault::FaultEffect::kCorruptSilent;
  spec.fire_limit = 1;  // fires on batch 0, then runs clean
  auto hook = std::make_shared<fault::WindowedFault>(spec);
  VariantHost host(&cpu_, bundle_.store);
  host.SetFaultHook("s0.v1", hook);

  MonitorConfig config;
  config.reaction = ReactionPolicy::Builder()
                        .QuarantineAndRestart()
                        .DissentThreshold(1)
                        .ProbationBatches(1)
                        .RetryBudget(2)
                        .Backoff(/*initial_us=*/0, /*multiplier=*/2.0,
                                 /*max_us=*/1'000)
                        .Build();
  // Holds the event loop until all six requests are queued, so one
  // serving stream runs them (one stream leaves one bundle).
  const obs::Counter& submitted =
      obs::Registry::Default().GetCounter("service.requests_total");
  const uint64_t all_queued = submitted.value() + 6;
  config.loop_tick_hook = [&] {
    while (submitted.value() < all_queued) std::this_thread::yield();
  };
  auto monitor = Monitor::Create(&cpu_, config);
  ASSERT_TRUE(monitor.ok());
  ASSERT_TRUE((*monitor)
                  ->Initialize(bundle_, MvxSelection::Uniform(bundle_, 3),
                               host)
                  .ok());

  auto before = obs::Registry::Default().Snapshot();
  auto batches = MakeBatches(6);
  auto out = RunBatches(**monitor, batches);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto delta = obs::Registry::Default().Snapshot().DeltaSince(before);
  EXPECT_GE(delta.counters.at("supervisor.quarantines_total"), 1u);
  EXPECT_GE(delta.counters.at("supervisor.readmissions_total"), 1u);

  // Every released output is the healthy panel's answer.
  for (size_t b = 0; b < batches.size(); ++b) {
    auto expected = ReferenceRun(model_, batches[b]);
    EXPECT_GT(tensor::CosineSimilarity((*out)[b][0], expected[0]), 0.999);
  }
  EXPECT_EQ(hook->fire_count(), 1u);

  const Supervisor* sup = (*monitor)->supervisor();
  ASSERT_NE(sup, nullptr);
  EXPECT_GE(sup->quarantines_total(), 1u);
  EXPECT_GE(sup->readmissions_total(), 1u);
  EXPECT_EQ(sup->state(0, 1), VariantLifecycle::kHealthy);  // readmitted

  ASSERT_TRUE((*monitor)->Shutdown().ok());
  host.JoinAll();
  ASSERT_EQ(::unsetenv("MVTEE_EVIDENCE_DIR"), 0);

  // One completed-but-eventful run -> exactly one bundle.
  std::vector<std::filesystem::path> bundles;
  for (const auto& entry :
       std::filesystem::directory_iterator(evidence_dir)) {
    bundles.push_back(entry.path());
  }
  ASSERT_EQ(bundles.size(), 1u);

  std::ifstream in(bundles[0]);
  std::stringstream text;
  text << in.rdbuf();
  auto doc = obs::ParseJson(text.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_NE(doc->Find("schema"), nullptr);
  EXPECT_EQ(doc->Find("schema")->as_string(), "mvtee-evidence-v1");
  ASSERT_NE(doc->Find("trigger"), nullptr);
  EXPECT_EQ(doc->Find("trigger")->as_string(), "quarantine");
  ASSERT_NE(doc->Find("trace_id"), nullptr);
  const std::string bundle_trace = doc->Find("trace_id")->as_string();
  EXPECT_NE(bundle_trace, "0");

  // The retained ring holds the whole lifecycle of s0.v1: quarantine on
  // the triggering batch's trace (which is also the bundle's trace),
  // then rebootstrap and readmit on later batches' traces.
  const obs::JsonValue* verdicts = doc->Find("verdicts");
  ASSERT_NE(verdicts, nullptr);
  bool saw_quarantine = false, saw_rebootstrap = false, saw_readmit = false;
  for (const auto& v : verdicts->as_array()) {
    const std::string& verdict = v.Find("verdict")->as_string();
    if (verdict != "quarantine" && verdict != "rebootstrap" &&
        verdict != "readmit") {
      continue;
    }
    const auto& variants = v.Find("variants")->as_array();
    ASSERT_EQ(variants.size(), 1u);
    if (variants[0].Find("variant_id")->as_string() != "s0.v1") continue;
    const std::string& trace = v.Find("trace_id")->as_string();
    EXPECT_NE(trace, "0");  // every lifecycle verdict is trace-linked
    if (verdict == "quarantine") {
      saw_quarantine = true;
      EXPECT_EQ(trace, bundle_trace);  // attributed to the first incident
      EXPECT_TRUE(variants[0].Find("dissent")->as_bool());
    } else if (verdict == "rebootstrap") {
      saw_rebootstrap = true;
    } else {
      saw_readmit = true;
      EXPECT_TRUE(variants[0].Find("ok")->as_bool());
    }
  }
  EXPECT_TRUE(saw_quarantine);
  EXPECT_TRUE(saw_rebootstrap);
  EXPECT_TRUE(saw_readmit);

  std::filesystem::remove_all(evidence_dir);
}

TEST_F(VirtualTimeTest, RecvTimeoutBecomesVariantFailureNotRunError) {
  // A variant that goes silent past recv_timeout_us must cost only its
  // own panel seat when the remaining replicas still satisfy the vote:
  // the expiry is classified as a per-slot failure, the slot is
  // quarantined, and the run completes instead of DeadlineExceeded.
  // The hook parks the variant's first inference on a latch (released
  // after RunBatches) rather than a fixed sleep, so the silence outlasts the
  // recv timeout regardless of scheduler load; respawned instances of
  // the variant run clean. It also guards the classifier's silence
  // rule: the failure synthesized for stage 0 decides that stage and
  // feeds stage 1 within the same pass, and stage 1's members, which
  // just got their inputs, must not be declared timed out too.
  class HangFirstCall : public runtime::FaultHook {
   public:
    util::Status OnNodeStart(const graph::Node&) override {
      if (first_.exchange(false)) {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return released_; });
      }
      return util::OkStatus();
    }
    void Release() {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
      cv_.notify_all();
    }

   private:
    std::atomic<bool> first_{true};
    std::mutex mu_;
    std::condition_variable cv_;
    bool released_ = false;
  };

  model_ = graph::BuildModel(graph::ModelKind::kResNet50, SmallZoo());
  auto bundle = RunOfflineTool(model_, Offline(2, 3, /*replicated=*/true));
  ASSERT_TRUE(bundle.ok());
  bundle_ = std::move(*bundle);

  VariantHost host(&cpu_, bundle_.store);
  auto hang = std::make_shared<HangFirstCall>();
  host.SetFaultHook("s0.v0", hang);

  MonitorConfig config;
  // Generous enough that handshakes and healthy inferences never trip
  // it even on a loaded CI box; the parked variant stays silent past
  // any value.
  config.recv_timeout_us = 4'000'000;
  config.reaction = ReactionPolicy::Builder()
                        .QuarantineAndRestart()
                        .DissentThreshold(1)
                        .Backoff(/*initial_us=*/0, /*multiplier=*/2.0,
                                 /*max_us=*/1'000)
                        .Build();
  auto monitor = Monitor::Create(&cpu_, config);
  ASSERT_TRUE(monitor.ok());
  ASSERT_TRUE((*monitor)
                  ->Initialize(bundle_, MvxSelection::Uniform(bundle_, 3),
                               host)
                  .ok());

  auto batches = MakeBatches(3);
  auto out = RunBatches(**monitor, batches);
  hang->Release();  // unpark the quarantined original before teardown
  ASSERT_TRUE(out.ok()) << out.status().ToString();  // not DeadlineExceeded

  const Supervisor* sup = (*monitor)->supervisor();
  ASSERT_NE(sup, nullptr);
  EXPECT_GE(sup->quarantines_total(), 1u);
  EXPECT_GE(sup->slot(0, 0).quarantines, 1);

  for (size_t b = 0; b < batches.size(); ++b) {
    auto expected = ReferenceRun(model_, batches[b]);
    EXPECT_GT(tensor::CosineSimilarity((*out)[b][0], expected[0]), 0.999);
  }

  ASSERT_TRUE((*monitor)->Shutdown().ok());
  host.JoinAll();
}

}  // namespace
}  // namespace mvtee::core
