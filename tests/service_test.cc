// Service front end tests (DESIGN.md §11): attested session
// establishment, per-session key isolation and sequence spaces,
// admission backpressure, deadlines, and the RunBatches helper over the
// long-lived request loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include <dirent.h>

#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <sstream>

#include "core/messages.h"
#include "core/monitor.h"
#include "core/offline.h"
#include "core/variant_host.h"
#include "crypto/gcm_tiers.h"
#include "graph/builder.h"
#include "graph/model_zoo.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/watchdog.h"
#include "runtime/gemm.h"
#include "service/admin.h"
#include "service/inference_service.h"
#include "service/scheduler.h"
#include "tensor/tensor.h"
#include "transport/channel.h"
#include "transport/secure_channel.h"
#include "util/clock.h"
#include "util/rng.h"

namespace mvtee::service {
namespace {

using core::InferenceRequest;
using core::InferenceResponse;
using core::Monitor;
using core::MonitorConfig;
using core::MvxSelection;
using core::OfflineBundle;
using core::OfflineOptions;
using core::RunBatches;
using core::RunOfflineTool;
using core::VariantHost;
using graph::Graph;
using graph::ModelBuilder;
using graph::NodeId;
using tensor::MaxAbsDiff;
using tensor::Shape;
using tensor::Tensor;
using util::StatusCode;

Graph TestModel(uint64_t seed = 5) {
  ModelBuilder b(seed);
  NodeId x = b.Input("img", Shape({1, 3, 16, 16}));
  x = b.ConvBnRelu(x, 8, 3, 1, 1);
  x = b.GlobalAvgPool(x);
  x = b.Flatten(x);
  x = b.Gemm(x, 10);
  x = b.Softmax(x);
  b.MarkOutput(x);
  return b.Build();
}

OfflineOptions SmallOffline(int partitions = 2, int variants = 2) {
  OfflineOptions opts;
  opts.num_partitions = partitions;
  opts.partition_seed = 11;
  opts.key_seed = 99;
  opts.pool.variants_per_stage = variants;
  opts.pool.seed = 7;
  return opts;
}

Tensor TestInput(uint64_t seed = 1) {
  util::Rng rng(seed);
  return Tensor::RandomUniform(Shape({1, 3, 16, 16}), rng);
}

// Spins until `counter` reaches `target` (service-loop progress is
// asynchronous; the pop that we wait for bumps service.groups_total
// before the group starts executing).
bool WaitForCounter(const obs::Counter& counter, uint64_t target,
                    int64_t timeout_us = 5'000'000) {
  const int64_t give_up = util::NowMicros() + timeout_us;
  while (counter.value() < target) {
    if (util::NowMicros() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

// Parks the monitor's event loop (through MonitorConfig::loop_tick_hook)
// while closed, so requests submitted meanwhile queue up instead of
// being admitted one by one.
class LoopGate {
 public:
  std::function<void()> Hook() {
    return [this] {
      std::unique_lock<std::mutex> lock(mu_);
      held_ = closed_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return !closed_; });
      held_ = false;
    };
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  // Blocks until the loop is parked at the gate.
  void WaitHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return held_; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = false;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  bool held_ = false;
};

// Full deployment fixture: offline tool -> host -> monitor. Wire tests
// layer a Listener + InferenceService on top.
class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto bundle = RunOfflineTool(TestModel(), SmallOffline());
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    bundle_ = std::move(*bundle);
    host_ = std::make_unique<VariantHost>(&cpu_, bundle_.store);
    Boot(MonitorConfig{});
  }

  // (Re)creates the monitor with `config` over the fixture's bundle.
  void Boot(MonitorConfig config) {
    if (monitor_) {
      ASSERT_TRUE(monitor_->Shutdown().ok());
    }
    auto monitor = Monitor::Create(&cpu_, std::move(config));
    ASSERT_TRUE(monitor.ok());
    monitor_ = std::move(*monitor);
    auto status = monitor_->Initialize(
        bundle_, MvxSelection::Uniform(bundle_, variants_per_stage()),
        *host_);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  // Recreates the monitor with its event loop behind `gate_`.
  void BootGated() {
    MonitorConfig config;
    config.loop_tick_hook = gate_.Hook();
    Boot(std::move(config));
  }

  // Every stage is a 2-variant MVX panel unless a fixture says otherwise.
  virtual int variants_per_stage() const { return 2; }

  void TearDown() override {
    gate_.Open();  // a failed assertion may have left the loop parked
    if (monitor_) {
      ASSERT_TRUE(monitor_->Shutdown().ok());
    }
    if (host_) host_->JoinAll();
  }

  tee::SimulatedCpu cpu_{tee::SimulatedCpu::Options{.hardware_key_seed = 3}};
  OfflineBundle bundle_;
  std::unique_ptr<VariantHost> host_;
  LoopGate gate_;  // declared before monitor_: outlives its hook
  std::unique_ptr<Monitor> monitor_;
};

// ------------------------------------------------ pipelines without panels

// One variant per stage: no stage is an MVX panel, so nothing is
// cross-validated.
class UnpanelledServiceTest : public ServiceTest {
 protected:
  int variants_per_stage() const override { return 1; }
};

TEST_F(UnpanelledServiceTest, ServedStreamsMatchTheReferenceOutput) {
  const Tensor input = TestInput();
  auto reference = RunBatches(*monitor_, {{input}});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // Each request drains the queue, so each is its own serving stream.
  ASSERT_TRUE(monitor_->StartService().ok());
  auto session = monitor_->OpenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (int i = 0; i < 20; ++i) {
    auto future = (*session)->Submit({{input}});
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    InferenceResponse response = future->get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_EQ(response.outputs.size(), (*reference)[0].size());
    EXPECT_LT(MaxAbsDiff(response.outputs[0], (*reference)[0][0]), 1e-6f);
  }
}

TEST_F(UnpanelledServiceTest, ServedRequestsLeaveNoLatencyBacklog) {
  // ConsumeStats() summarizes every completed batch as count, sum and
  // range, so 1000 served requests leave no per-request list behind.
  ASSERT_TRUE(monitor_->StartService().ok());
  (void)monitor_->ConsumeStats();
  const obs::RegistrySnapshot base = monitor_->metrics().Snapshot();
  auto session = monitor_->OpenSession();
  ASSERT_TRUE(session.ok());
  const Tensor input = TestInput();
  for (int i = 0; i < 1000; ++i) {
    auto future = (*session)->Submit({{input}});
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    ASSERT_TRUE(future->get().status.ok());
  }
  const obs::RegistrySnapshot delta =
      monitor_->metrics().Snapshot().DeltaSince(base);
  EXPECT_GE(delta.histograms.at("monitor.batch_latency_us").count, 1000u);
  const core::LatencySummary served =
      monitor_->ConsumeStats().batch_latency_us;
  EXPECT_EQ(served.count, 1000u);
  EXPECT_LE(served.min_us, served.max_us);

  // RunBatches completions land in the same summary.
  ASSERT_TRUE(RunBatches(*monitor_, {{input}, {input}}).ok());
  EXPECT_EQ(monitor_->ConsumeStats().batch_latency_us.count, 2u);
}

// ------------------------------------------------ in-process sessions

TEST_F(ServiceTest, SessionSubmitMatchesRunWrapper) {
  const Tensor input = TestInput();
  auto direct = RunBatches(*monitor_, {{input}});
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  ASSERT_TRUE(monitor_->StartService().ok());
  auto session = monitor_->OpenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto future = (*session)->Submit({{input}});
  ASSERT_TRUE(future.ok()) << future.status().ToString();
  InferenceResponse response = future->get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.seq, 0u);
  EXPECT_GT(response.latency_us, 0);
  ASSERT_EQ(response.outputs.size(), (*direct)[0].size());
  EXPECT_LT(MaxAbsDiff(response.outputs[0], (*direct)[0][0]), 1e-6f);
}

TEST_F(ServiceTest, OpenSessionRequiresRunningService) {
  // Before StartService() the request loop is down.
  auto session = monitor_->OpenSession();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(monitor_->StartService().ok());
  EXPECT_TRUE(monitor_->OpenSession().ok());
}

TEST_F(ServiceTest, SequenceViolationAbortsSession) {
  ASSERT_TRUE(monitor_->StartService().ok());
  auto session = monitor_->OpenSession();
  ASSERT_TRUE(session.ok());
  // In-order first sequence number works...
  auto ok = (*session)->SubmitSequenced({{TestInput()}}, 0);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok->get().status.ok());
  // ...a replay of seq 0 condemns the session...
  auto replay = (*session)->SubmitSequenced({{TestInput()}}, 0);
  EXPECT_EQ(replay.status().code(), StatusCode::kReplayDetected);
  // ...including subsequent well-formed submits.
  auto after = (*session)->SubmitSequenced({{TestInput()}}, 1);
  EXPECT_EQ(after.status().code(), StatusCode::kReplayDetected);
}

TEST_F(ServiceTest, AdmissionOverflowRejectedWithTaxonomyCode) {
  core::ServiceConfig config;
  config.admission_queue_max = 0;  // every queued submit overflows
  ASSERT_TRUE(monitor_->StartService(config).ok());
  auto session = monitor_->OpenSession();
  ASSERT_TRUE(session.ok());
  obs::Counter& rejected =
      monitor_->metrics().GetCounter("service.rejected_total");
  const uint64_t before = rejected.value();
  auto result = (*session)->Submit({{TestInput()}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAdmissionRejected);
  EXPECT_EQ(rejected.value(), before + 1);
  // Backpressure is not session-fatal: the rejected submit consumed its
  // sequence number but did not condemn the session — after a restart
  // with a sane bound the same session keeps working.
  monitor_->StopService();
  ASSERT_TRUE(monitor_->StartService().ok());
  auto retry = (*session)->Submit({{TestInput()}});
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(retry->get().status.ok());
}

TEST_F(ServiceTest, StoppedServiceFailsSubmits) {
  ASSERT_TRUE(monitor_->StartService().ok());
  auto session = monitor_->OpenSession();
  ASSERT_TRUE(session.ok());
  monitor_->StopService();
  auto result = (*session)->Submit({{TestInput()}});
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST_F(ServiceTest, RunWrapperKeepsWorkingAcrossReconfiguration) {
  const Tensor input = TestInput();
  auto first = RunBatches(*monitor_, {{input}});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // UpdateStage quiesces the request loop; RunBatches restarts it.
  auto ids = bundle_.StageVariantIds(0);
  ASSERT_GE(ids.size(), 2u);
  ASSERT_TRUE(
      monitor_->UpdateStage(bundle_, *host_, 0, {ids[0], ids[1]}).ok());
  auto second = RunBatches(*monitor_, {{input}});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_LT(MaxAbsDiff((*first)[0][0], (*second)[0][0]), 1e-6f);
}

TEST_F(ServiceTest, QueuedSubmitsCoalesceIntoOneGroup) {
  BootGated();
  ASSERT_TRUE(monitor_->StartService().ok());
  auto session = monitor_->OpenSession();
  ASSERT_TRUE(session.ok());
  obs::Counter& groups =
      monitor_->metrics().GetCounter("service.groups_total");
  const uint64_t base = groups.value();

  // Park the loop before its first admission, then queue three submits:
  // they must drain as ONE coalesced group.
  gate_.Close();
  std::vector<std::future<InferenceResponse>> futures;
  for (int i = 0; i < 3; ++i) {
    auto submitted = (*session)->Submit({{TestInput(7 + i)}});
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(*submitted));
  }
  gate_.WaitHeld();
  gate_.Open();
  for (auto& f : futures) {
    InferenceResponse response = f.get();
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_FALSE(response.outputs.empty());
  }
  EXPECT_EQ(groups.value(), base + 1);  // one coalesced group
}

TEST_F(ServiceTest, ExpiredDeadlineFailsInAdmissionQueue) {
  BootGated();
  ASSERT_TRUE(monitor_->StartService().ok());
  auto session = monitor_->OpenSession();
  ASSERT_TRUE(session.ok());
  // Park the loop so the dated submit expires while queued.
  gate_.Close();
  InferenceRequest request;
  request.inputs = {TestInput()};
  request.deadline_us = 1;
  auto future = (*session)->Submit(std::move(request));
  ASSERT_TRUE(future.ok()) << future.status().ToString();
  const int64_t submitted_by = util::NowMicros();
  gate_.WaitHeld();
  while (util::NowMicros() <= submitted_by) {
  }  // now >= enqueue + 1 us: the deadline has passed
  gate_.Open();
  InferenceResponse response = future->get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ServiceTest, NegativeDeadlineRejectedAtSubmitKeepsSessionAlive) {
  ASSERT_TRUE(monitor_->StartService().ok());
  auto session = monitor_->OpenSession();
  ASSERT_TRUE(session.ok());
  obs::Counter& misses =
      monitor_->metrics().GetCounter("scheduler.deadline_misses_total");
  const uint64_t before = misses.value();

  InferenceRequest request;
  request.inputs = {TestInput()};
  request.deadline_us = -1;  // expired before it starts
  auto rejected = (*session)->Submit(std::move(request));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kAdmissionRejected);
  EXPECT_EQ(misses.value(), before + 1);

  // Fail-fast, not session-fatal: the rejection consumed seq 0 like any
  // other admission rejection, and 0 still means "no deadline".
  auto retry = (*session)->Submit({{TestInput()}});
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  InferenceResponse response = retry->get();
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.seq, 1u);
}

TEST_F(ServiceTest, TenantGoodputAndOccupancyInstruments) {
  ASSERT_TRUE(monitor_->StartService().ok());
  auto session = monitor_->OpenSession();
  ASSERT_TRUE(session.ok());
  obs::Registry& reg = monitor_->metrics();
  const uint64_t acme_before =
      reg.GetCounter("scheduler.tenant.acme.goodput_total").value();

  InferenceRequest request;
  request.inputs = {TestInput()};
  request.tenant = "acme";
  request.priority = 2;
  auto future = (*session)->Submit(std::move(request));
  ASSERT_TRUE(future.ok()) << future.status().ToString();
  EXPECT_TRUE(future->get().status.ok());

  // On-time completion counts toward the tenant's goodput, and the
  // dispatch recorded a batch-occupancy sample.
  EXPECT_EQ(reg.GetCounter("scheduler.tenant.acme.goodput_total").value(),
            acme_before + 1);
  EXPECT_GE(reg.GetHistogram("scheduler.batch_occupancy").Stats().count, 1u);
}

TEST_F(ServiceTest, CrossSessionCoalescingKeepsSequenceSpacesIsolated) {
  BootGated();
  // Reference outputs per input, one batch at a time.
  std::vector<Tensor> inputs;
  std::vector<Tensor> expected;
  for (uint64_t i = 0; i < 6; ++i) {
    inputs.push_back(TestInput(20 + i));
    auto ref = RunBatches(*monitor_, {{inputs.back()}});
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    expected.push_back((*ref)[0][0]);
  }

  ASSERT_TRUE(monitor_->StartService().ok());
  auto a = monitor_->OpenSession();
  auto b = monitor_->OpenSession();
  ASSERT_TRUE(a.ok() && b.ok());

  // Park the loop so the six submits below queue up and the scheduler
  // coalesces them across both sessions.
  gate_.Close();
  // Interleave submissions: a, b, a, b, ...
  std::vector<std::future<InferenceResponse>> futures;
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto& session = (i % 2 == 0) ? *a : *b;
    InferenceRequest request;
    request.inputs = {inputs[i]};
    request.tenant = (i % 2 == 0) ? "even" : "odd";
    auto submitted = session->Submit(std::move(request));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(*submitted));
  }
  gate_.WaitHeld();
  gate_.Open();

  // Every reply carries its own session's payload (no cross-session
  // mixing in the shared stream) and its own session's sequence number
  // (each session's space advances 0,1,2 independently).
  for (size_t i = 0; i < futures.size(); ++i) {
    InferenceResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_EQ(response.outputs.size(), 1u);
    EXPECT_LT(MaxAbsDiff(response.outputs[0], expected[i]), 1e-6f)
        << "reply " << i << " carries another request's payload";
    EXPECT_EQ(response.seq, static_cast<uint64_t>(i / 2));
  }
}

// --------------------------------------------- wire sessions (RA-TLS)

TEST_F(ServiceTest, AttestedHandshakeAndEncryptedInference) {
  const Tensor input = TestInput();
  auto reference = RunBatches(*monitor_, {{input}});
  ASSERT_TRUE(reference.ok());

  transport::Listener listener;
  auto service = InferenceService::Start(*monitor_, listener);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  auto client = InferenceClient::Connect(listener, cpu_,
                                         monitor_->enclave().measurement());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // The handshake surfaced the monitor's hardware-signed report with
  // the session key bound into report_data.
  EXPECT_TRUE(cpu_.VerifyReport((*client)->monitor_report()).ok());
  EXPECT_EQ((*client)->monitor_report().measurement,
            monitor_->enclave().measurement());

  auto outputs = (*client)->Infer({input});
  ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
  ASSERT_EQ(outputs->size(), (*reference)[0].size());
  EXPECT_LT(MaxAbsDiff((*outputs)[0], (*reference)[0][0]), 1e-6f);
  EXPECT_GT((*client)->last_latency_us(), 0);

  (*client)->Disconnect();
  (*service)->Stop();
}

TEST_F(ServiceTest, WrongMeasurementRejected) {
  transport::Listener listener;
  auto service = InferenceService::Start(*monitor_, listener);
  ASSERT_TRUE(service.ok());
  obs::Registry& reg = monitor_->metrics();
  const uint64_t auth_before =
      reg.GetCounter("channel.auth_failures").value();
  const uint64_t hs_before =
      reg.GetCounter("service.handshake_failures").value();

  crypto::Sha256Digest wrong{};
  wrong[0] = 0xab;
  auto client = InferenceClient::Connect(listener, cpu_, wrong, 2'000'000);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kAttestationFailure);
  (*service)->Stop();
  // Server-side the dead session is a distinct taxonomy event, counted
  // in both service.handshake_failures and channel.auth_failures.
  EXPECT_GE(reg.GetCounter("service.handshake_failures").value(),
            hs_before + 1);
  EXPECT_GE(reg.GetCounter("channel.auth_failures").value(),
            auth_before + 1);
}

TEST_F(ServiceTest, TamperedMonitorKeyRejected) {
  // A host attacker splicing the monitor's handshake key (or replaying
  // a stale hello) cannot survive the client's report check: the
  // report_data binds H(pubkey || role) under the hardware MAC.
  transport::Listener listener;
  std::thread server([&] {
    auto endpoint = listener.Accept(5'000'000);
    if (!endpoint.ok()) return;
    endpoint->SetInterceptor(
        [](const util::Bytes& frame) -> std::optional<util::Bytes> {
          util::Bytes tampered = frame;
          tampered[8] ^= 0x01;  // inside the server's X25519 public key
          return tampered;
        });
    (void)transport::SecureChannel::Handshake(
        std::move(*endpoint), transport::SecureChannel::Role::kServer,
        monitor_->enclave(), transport::AllowUnattestedPeer(), 2'000'000);
  });
  auto client = InferenceClient::Connect(
      listener, cpu_, monitor_->enclave().measurement(), 2'000'000);
  server.join();
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kAttestationFailure);
}

TEST_F(ServiceTest, SessionKeyIsolationAcrossSessions) {
  transport::Listener listener;
  auto service = InferenceService::Start(*monitor_, listener);
  ASSERT_TRUE(service.ok());

  auto a = InferenceClient::Connect(listener, cpu_,
                                    monitor_->enclave().measurement());
  auto b = InferenceClient::Connect(listener, cpu_,
                                    monitor_->enclave().measurement());
  ASSERT_TRUE(a.ok() && b.ok());

  // Capture session A's encrypted Submit record off the wire.
  util::Bytes captured;
  (*a)->raw_endpoint().SetInterceptor(
      [&captured](const util::Bytes& frame) -> std::optional<util::Bytes> {
        captured = frame;
        return frame;
      });
  ASSERT_TRUE((*a)->Infer({TestInput()}).ok());
  ASSERT_FALSE(captured.empty());
  (*a)->raw_endpoint().SetInterceptor(nullptr);

  obs::Counter& auth =
      monitor_->metrics().GetCounter("channel.auth_failures");
  const uint64_t before = auth.value();
  // Injecting A's ciphertext into B's session must fail the AEAD open
  // (per-session HKDF keys) and kill session B.
  (*b)->raw_endpoint().InjectRaw(captured);
  auto poisoned = (*b)->Infer({TestInput()}, /*deadline_us=*/0,
                              /*recv_timeout_us=*/5'000'000);
  EXPECT_FALSE(poisoned.ok());
  EXPECT_GE(auth.value(), before + 1);

  // Session A is unaffected.
  EXPECT_TRUE((*a)->Infer({TestInput()}).ok());
  (*service)->Stop();
}

TEST_F(ServiceTest, ReplayedSubmitFrameAbortsSession) {
  transport::Listener listener;
  auto service = InferenceService::Start(*monitor_, listener);
  ASSERT_TRUE(service.ok());
  auto client = InferenceClient::Connect(listener, cpu_,
                                         monitor_->enclave().measurement());
  ASSERT_TRUE(client.ok());

  util::Bytes captured;
  (*client)->raw_endpoint().SetInterceptor(
      [&captured](const util::Bytes& frame) -> std::optional<util::Bytes> {
        captured = frame;
        return frame;
      });
  ASSERT_TRUE((*client)->Infer({TestInput()}).ok());
  ASSERT_FALSE(captured.empty());
  (*client)->raw_endpoint().SetInterceptor(nullptr);

  obs::Counter& auth =
      monitor_->metrics().GetCounter("channel.auth_failures");
  const uint64_t before = auth.value();
  // The identical record re-injected: its record sequence number is
  // stale, the channel flags the replay and the service tears the
  // session down — the request never executes twice.
  (*client)->raw_endpoint().InjectRaw(captured);
  auto after = (*client)->Infer({TestInput()}, /*deadline_us=*/0,
                                /*recv_timeout_us=*/5'000'000);
  EXPECT_FALSE(after.ok());
  EXPECT_GE(auth.value(), before + 1);
  (*service)->Stop();
}

TEST_F(ServiceTest, WireAdmissionRejectionKeepsSessionAlive) {
  transport::Listener listener;
  ServiceOptions options;
  options.admission.admission_queue_max = 0;  // reject everything
  auto service = InferenceService::Start(*monitor_, listener, options);
  ASSERT_TRUE(service.ok());
  auto client = InferenceClient::Connect(listener, cpu_,
                                         monitor_->enclave().measurement());
  ASSERT_TRUE(client.ok());
  // Reject-with-status backpressure: the client keeps getting explicit
  // kAdmissionRejected replies on the SAME session (a reply at all
  // proves the session survived the previous rejection).
  for (int i = 0; i < 3; ++i) {
    auto outputs = (*client)->Infer({TestInput()});
    ASSERT_FALSE(outputs.ok());
    EXPECT_EQ(outputs.status().code(), StatusCode::kAdmissionRejected);
  }
  (*client)->Disconnect();
  (*service)->Stop();
}

TEST_F(ServiceTest, EightConcurrentSessionsInterleave) {
  transport::Listener listener;
  auto service = InferenceService::Start(*monitor_, listener);
  ASSERT_TRUE(service.ok());

  constexpr int kSessions = 8;
  constexpr int kRequests = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (int c = 0; c < kSessions; ++c) {
    clients.emplace_back([&, c] {
      auto client = InferenceClient::Connect(
          listener, cpu_, monitor_->enclave().measurement());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int r = 0; r < kRequests; ++r) {
        auto outputs =
            (*client)->Infer({TestInput(static_cast<uint64_t>(c + 1))});
        if (!outputs.ok() || outputs->empty()) failures.fetch_add(1);
      }
      (*client)->Disconnect();
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  obs::Registry& reg = monitor_->metrics();
  EXPECT_GE(reg.GetCounter("service.requests_total").value(),
            static_cast<uint64_t>(kSessions * kRequests));
  (*service)->Stop();
  EXPECT_EQ(reg.GetGauge("service.sessions_active").value(), 0);
}

TEST_F(ServiceTest, FinishedWireSessionsAreReaped) {
  // A client reconnecting after every request must not leave one
  // finished session thread (and its channel) behind per connection
  // until Stop(): the accept loop joins finished sessions.
  transport::Listener listener;
  auto service = InferenceService::Start(*monitor_, listener);
  ASSERT_TRUE(service.ok());
  const Tensor input = TestInput();
  size_t most = 0;
  for (int i = 0; i < 200; ++i) {
    auto client = InferenceClient::Connect(listener, cpu_,
                                           monitor_->enclave().measurement());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto outputs = (*client)->Infer({input});
    ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    most = std::max(most, (*service)->session_threads());
    (*client)->Disconnect();
  }
  EXPECT_LE(most, 8u);
  EXPECT_LE((*service)->session_threads(), 8u);
  (*service)->Stop();
  EXPECT_EQ((*service)->session_threads(), 0u);
}

TEST_F(ServiceTest, StopReturnsWithSessionsMidRequest) {
  transport::Listener listener;
  auto service = InferenceService::Start(*monitor_, listener);
  ASSERT_TRUE(service.ok());
  obs::Counter& requests =
      monitor_->metrics().GetCounter("service.requests_total");
  const uint64_t base = requests.value();

  // Four clients submit back to back until their channel closes.
  constexpr int kClients = 4;
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = InferenceClient::Connect(
          listener, cpu_, monitor_->enclave().measurement());
      if (!client.ok()) return;
      while ((*client)->Infer({TestInput(static_cast<uint64_t>(c + 1))})
                 .ok()) {
        served.fetch_add(1);
      }
    });
  }
  ASSERT_TRUE(WaitForCounter(requests, base + 2 * kClients));
  (*service)->Stop();
  for (auto& t : clients) t.join();
  EXPECT_GE(served.load(), 1);
  EXPECT_EQ((*service)->session_threads(), 0u);
}

TEST_F(ServiceTest, ClientRejectsExpiredDeadlineWithoutSpendingSequence) {
  transport::Listener listener;
  auto service = InferenceService::Start(*monitor_, listener);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto client = InferenceClient::Connect(listener, cpu_,
                                         monitor_->enclave().measurement());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // An already-expired budget is rejected before any frame leaves: no
  // network round trip, no sequence number consumed.
  int frames = 0;
  (*client)->raw_endpoint().SetInterceptor(
      [&frames](const util::Bytes& frame) -> std::optional<util::Bytes> {
        ++frames;
        return frame;
      });
  InferenceClient::InferOptions options;
  options.deadline_us = -5;
  auto rejected = (*client)->Infer({TestInput()}, options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kAdmissionRejected);
  EXPECT_EQ(frames, 0);
  (*client)->raw_endpoint().SetInterceptor(nullptr);

  // The session's sequence space never moved, so it keeps working.
  EXPECT_TRUE((*client)->Infer({TestInput()}).ok());
  (*client)->Disconnect();
  (*service)->Stop();
}

TEST_F(ServiceTest, CoalescedWireSessionsNeverMixKeysOrPayloads) {
  // System test for the continuous scheduler: concurrent attested
  // sessions whose requests coalesce into shared MVX batches must each
  // get back exactly their own answer — decrypted under their own
  // per-session AEAD keys and matched to their own inputs.
  constexpr int kClients = 3;
  constexpr int kRequests = 4;
  std::vector<std::vector<Tensor>> expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int r = 0; r < kRequests; ++r) {
      auto ref = RunBatches(
          *monitor_, {{TestInput(static_cast<uint64_t>(100 * c + r))}});
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      expected[c].push_back((*ref)[0][0]);
    }
  }

  transport::Listener listener;
  auto service = InferenceService::Start(*monitor_, listener);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = InferenceClient::Connect(
          listener, cpu_, monitor_->enclave().measurement());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int r = 0; r < kRequests; ++r) {
        InferenceClient::InferOptions options;
        options.tenant = "tenant-" + std::to_string(c);
        auto outputs = (*client)->Infer(
            {TestInput(static_cast<uint64_t>(100 * c + r))}, options);
        if (!outputs.ok() || outputs->size() != 1) {
          failures.fetch_add(1);
        } else if (MaxAbsDiff((*outputs)[0], expected[c][r]) > 1e-6f) {
          mismatches.fetch_add(1);
        }
      }
      (*client)->Disconnect();
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // No AEAD open failed along the way: a cross-session payload mix-up
  // on the wire would have surfaced as an auth failure or a mismatch.
  (*service)->Stop();
}

// ------------------------------- multi-model zoo (service::Scheduler)

TEST_F(ServiceTest, SchedulerRoutesModelsAndRejectsUnknown) {
  // Second model with different weights, its own monitor and host.
  auto bundle2 = RunOfflineTool(TestModel(/*seed=*/6), SmallOffline());
  ASSERT_TRUE(bundle2.ok()) << bundle2.status().ToString();
  VariantHost host2(&cpu_, bundle2->store);
  auto monitor2 = Monitor::Create(&cpu_, MonitorConfig{});
  ASSERT_TRUE(monitor2.ok());
  ASSERT_TRUE((*monitor2)
                  ->Initialize(*bundle2, MvxSelection::Uniform(*bundle2, 2),
                               host2)
                  .ok());

  const Tensor input = TestInput();
  auto ref_alpha = RunBatches(*monitor_, {{input}});
  auto ref_beta = RunBatches(**monitor2, {{input}});
  ASSERT_TRUE(ref_alpha.ok() && ref_beta.ok());
  // Different weight seeds: routing errors are observable.
  ASSERT_GT(MaxAbsDiff((*ref_alpha)[0][0], (*ref_beta)[0][0]), 1e-6f);

  auto scheduler = Scheduler::Start(
      {{"alpha", monitor_.get()}, {"beta", monitor2->get()}},
      core::ServiceConfig{});
  ASSERT_TRUE(scheduler.ok()) << scheduler.status().ToString();
  EXPECT_EQ((*scheduler)->Route(""), monitor_.get());
  EXPECT_EQ((*scheduler)->Route("beta"), monitor2->get());
  EXPECT_EQ((*scheduler)->Route("nope"), nullptr);

  auto session = (*scheduler)->OpenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // Submit to both models concurrently — each monitor's loop runs
  // independently, and replies come from the routed model's pipeline.
  InferenceRequest to_beta;
  to_beta.inputs = {input};
  to_beta.model = "beta";
  auto beta_future = (*session)->Submit(std::move(to_beta));
  ASSERT_TRUE(beta_future.ok()) << beta_future.status().ToString();
  InferenceRequest to_default;
  to_default.inputs = {input};  // empty model -> first registered entry
  auto default_future = (*session)->Submit(std::move(to_default));
  ASSERT_TRUE(default_future.ok()) << default_future.status().ToString();

  InferenceResponse beta_response = beta_future->get();
  ASSERT_TRUE(beta_response.status.ok()) << beta_response.status.ToString();
  EXPECT_LT(MaxAbsDiff(beta_response.outputs[0], (*ref_beta)[0][0]), 1e-6f);
  InferenceResponse default_response = default_future->get();
  ASSERT_TRUE(default_response.status.ok());
  EXPECT_LT(MaxAbsDiff(default_response.outputs[0], (*ref_alpha)[0][0]),
            1e-6f);
  // Per-(session, model) sequence spaces: both submits were each
  // model-session's first, so both replies carry seq 0.
  EXPECT_EQ(beta_response.seq, 0u);
  EXPECT_EQ(default_response.seq, 0u);

  InferenceRequest unknown;
  unknown.inputs = {input};
  unknown.model = "nope";
  auto bad = (*session)->Submit(std::move(unknown));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  (*session)->Close();
  ASSERT_TRUE((*monitor2)->Shutdown().ok());
  host2.JoinAll();
}

TEST(AdmissionShapeTest, MisshapedRequestFailsAloneAmongOthersInFlight) {
  // One variant per stage: had the misshaped input reached the stage-0
  // executor, its rejection would abort the serving stream and fail
  // every request in flight with it.
  graph::ZooConfig zoo;
  zoo.input_hw = 32;
  zoo.width_mult = 0.25;
  zoo.depth_mult = 0.34;
  OfflineOptions opts = SmallOffline(/*partitions=*/3, /*variants=*/1);
  opts.pool.verify = false;
  auto bundle = RunOfflineTool(
      graph::BuildModel(graph::ModelKind::kResNet50, zoo), opts);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  tee::SimulatedCpu cpu{tee::SimulatedCpu::Options{.hardware_key_seed = 3}};
  VariantHost host(&cpu, bundle->store);
  auto monitor = Monitor::Create(&cpu, MonitorConfig{});
  ASSERT_TRUE(monitor.ok());
  ASSERT_TRUE((*monitor)
                  ->Initialize(*bundle, MvxSelection::Uniform(*bundle, 1),
                               host)
                  .ok());
  ASSERT_TRUE((*monitor)->StartService().ok());
  auto good = (*monitor)->OpenSession();
  auto bad = (*monitor)->OpenSession();
  ASSERT_TRUE(good.ok() && bad.ok());

  util::Rng rng(4);
  auto request = [&rng](Shape shape) {
    InferenceRequest r;
    r.inputs = {Tensor::RandomUniform(std::move(shape), rng)};
    return r;
  };
  std::vector<std::future<InferenceResponse>> futures;
  std::optional<std::future<InferenceResponse>> misshaped;
  for (int i = 0; i < 8; ++i) {
    if (i == 4) {
      auto f = (*bad)->Submit(request(Shape({1, 3, 16, 16})));
      ASSERT_TRUE(f.ok()) << f.status().ToString();
      misshaped = std::move(*f);
    }
    auto f = (*good)->Submit(request(Shape({1, 3, 32, 32})));
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    futures.push_back(std::move(*f));
  }
  EXPECT_EQ(misshaped->get().status.code(), StatusCode::kInvalidArgument);
  for (auto& f : futures) {
    const InferenceResponse response = f.get();
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  ASSERT_TRUE((*monitor)->Shutdown().ok());
  host.JoinAll();
}

// ------------------------------------------------- wire-format basics

TEST(SessionMessagesTest, SubmitRoundTrip) {
  core::SessionSubmitMsg msg;
  msg.seq = 42;
  msg.deadline_us = 1'000'000;
  msg.inputs = {TestInput()};
  util::Bytes frame = core::Encode(msg);
  EXPECT_EQ(frame.size(), core::EncodedSize(msg));
  auto type = core::PeekType(frame);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, core::MsgType::kSessionSubmit);
  auto decoded = core::Decode<core::SessionSubmitMsg>(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->seq, 42u);
  EXPECT_EQ(decoded->deadline_us, 1'000'000);
  ASSERT_EQ(decoded->inputs.size(), 1u);
  EXPECT_LT(MaxAbsDiff(decoded->inputs[0], msg.inputs[0]), 1e-9f);
}

TEST(SessionMessagesTest, SubmitRoundTripCarriesSchedulingHints) {
  core::SessionSubmitMsg msg;
  msg.seq = 9;
  // Negative deadlines DECODE fine — the server answers the submit with
  // kAdmissionRejected instead of tearing the channel down, so client
  // clock skew cannot condemn a session.
  msg.deadline_us = -250;
  msg.priority = 3;
  msg.tenant = "tenant-a";
  msg.model = "resnet18";
  msg.inputs = {TestInput()};
  util::Bytes frame = core::Encode(msg);
  EXPECT_EQ(frame.size(), core::EncodedSize(msg));
  auto decoded = core::Decode<core::SessionSubmitMsg>(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->seq, 9u);
  EXPECT_EQ(decoded->deadline_us, -250);
  EXPECT_EQ(decoded->priority, 3);
  EXPECT_EQ(decoded->tenant, "tenant-a");
  EXPECT_EQ(decoded->model, "resnet18");
  ASSERT_EQ(decoded->inputs.size(), 1u);
}

TEST(SessionMessagesTest, ReplyRoundTripCarriesTaxonomyCode) {
  core::SessionReplyMsg msg;
  msg.seq = 7;
  msg.code = static_cast<uint8_t>(StatusCode::kAdmissionRejected);
  msg.error = "admission queue full";
  msg.latency_us = 1234;
  util::Bytes frame = core::Encode(msg);
  EXPECT_EQ(frame.size(), core::EncodedSize(msg));
  auto decoded = core::Decode<core::SessionReplyMsg>(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->seq, 7u);
  EXPECT_EQ(static_cast<StatusCode>(decoded->code),
            StatusCode::kAdmissionRejected);
  EXPECT_EQ(decoded->error, "admission queue full");
  EXPECT_EQ(decoded->latency_us, 1234);
}

TEST(SessionMessagesTest, TaxonomyCodesHaveDistinctNames) {
  EXPECT_EQ(util::StatusCodeName(StatusCode::kAdmissionRejected),
            "ADMISSION_REJECTED");
  EXPECT_EQ(util::StatusCodeName(StatusCode::kHandshakeFailure),
            "HANDSHAKE_FAILURE");
  EXPECT_EQ(util::AdmissionRejected("x").code(),
            StatusCode::kAdmissionRejected);
  EXPECT_EQ(util::HandshakeFailure("x").code(),
            StatusCode::kHandshakeFailure);
}


// ------------------------------------------- live introspection plane

// "HTTP/1.0 200 OK\r\nheaders\r\n\r\nbody" -> (200, body).
std::pair<int, std::string> SplitHttp(const std::string& wire) {
  const size_t space = wire.find(' ');
  const int code = std::stoi(wire.substr(space + 1));
  const size_t blank = wire.find("\r\n\r\n");
  return {code, blank == std::string::npos ? "" : wire.substr(blank + 4)};
}

TEST_F(ServiceTest, AdminEndpointsServeLiveState) {
  obs::TimelineLog::Default().Clear();
  transport::Listener listener;
  auto service = InferenceService::Start(*monitor_, listener);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  transport::Listener admin_listener;
  AdminOptions admin_opts;  // no TCP bridge, default watchdog
  auto admin = AdminServer::Start(*monitor_, admin_listener, admin_opts);
  ASSERT_TRUE(admin.ok()) << admin.status().ToString();
  EXPECT_EQ((*admin)->tcp_port(), -1);

  // Put real traffic through so the phase histograms have samples.
  auto client = InferenceClient::Connect(listener, cpu_,
                                         monitor_->enclave().measurement());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int i = 0; i < 3; ++i) {
    auto result = (*client)->Infer({TestInput(static_cast<uint64_t>(i))});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  // /healthz: healthy verdict with the live heartbeat.
  auto healthz = AdminGet(admin_listener, "/healthz");
  ASSERT_TRUE(healthz.ok()) << healthz.status().ToString();
  auto [hcode, hbody] = SplitHttp(*healthz);
  EXPECT_EQ(hcode, 200);
  auto hjson = obs::ParseJson(hbody);
  ASSERT_TRUE(hjson.ok()) << hjson.status().ToString();
  EXPECT_TRUE(hjson->Find("healthy")->as_bool());
  EXPECT_GT(hjson->Find("heartbeat")->as_number(), 0.0);

  // /metrics: live Prometheus scrape carrying the per-phase breakdown.
  auto metrics = AdminGet(admin_listener, "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  auto [mcode, mbody] = SplitHttp(*metrics);
  EXPECT_EQ(mcode, 200);
  EXPECT_NE(metrics->find("text/plain; version=0.0.4"), std::string::npos);
  for (const char* phase :
       {"mvtee_service_queue_wait_us", "mvtee_service_infer_us",
        "mvtee_service_verify_us", "mvtee_service_reply_us"}) {
    EXPECT_NE(mbody.find("# TYPE " + std::string(phase) + " summary\n"),
              std::string::npos)
        << phase;
    EXPECT_NE(mbody.find(std::string(phase) + "{quantile=\"0.5\"} "),
              std::string::npos)
        << phase;
  }
  // The three completed requests landed in every per-request phase
  // histogram (the fixture panel is k=2, so verification really ran).
  for (const char* phase :
       {"mvtee_service_queue_wait_us_count", "mvtee_service_infer_us_count",
        "mvtee_service_verify_us_count", "mvtee_service_reply_us_count"}) {
    const size_t pos = mbody.find(std::string(phase) + " ");
    ASSERT_NE(pos, std::string::npos) << phase;
    const size_t eol = mbody.find('\n', pos);
    const int count = std::stoi(
        mbody.substr(pos + std::string(phase).size() + 1,
                     eol - pos - std::string(phase).size() - 1));
    EXPECT_GE(count, 3) << phase;
  }
  EXPECT_GT(monitor_->metrics().GetHistogram("service.verify_us").Stats().sum,
            0.0);

  // /status: sessions, queue accounting, provenance, exemplars.
  auto status = AdminGet(admin_listener, "/status");
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  auto [scode, sbody] = SplitHttp(*status);
  EXPECT_EQ(scode, 200);
  auto sjson = obs::ParseJson(sbody);
  ASSERT_TRUE(sjson.ok()) << sjson.status().ToString();
  EXPECT_GT(sjson->Find("uptime_us")->as_number(), 0.0);
  const obs::JsonValue* svc = sjson->Find("service");
  ASSERT_NE(svc, nullptr);
  EXPECT_TRUE(svc->Find("running")->as_bool());
  EXPECT_TRUE(svc->Find("accepting")->as_bool());
  ASSERT_EQ(svc->Find("sessions")->as_array().size(), 1u);
  EXPECT_EQ(svc->Find("sessions")->as_array()[0].Find("next_seq")
                ->as_number(),
            3.0);
  // Async cross-check coverage: the lag budget is the slot count, and
  // each counter mirrors its registry value.
  const obs::JsonValue* cross = svc->Find("cross_check");
  ASSERT_NE(cross, nullptr);
  EXPECT_EQ(cross->Find("lag_budget")->as_number(),
            static_cast<double>(core::SchedulerConfig{}.max_batch));
  for (const char* name :
       {"unsampled_batches", "unchecked_reports", "late_divergences"}) {
    ASSERT_NE(cross->Find(name), nullptr) << name;
    EXPECT_EQ(cross->Find(name)->as_number(),
              static_cast<double>(
                  monitor_->metrics()
                      .GetCounter(std::string("monitor.") + name)
                      .value()))
        << name;
  }
  const obs::JsonValue* build = sjson->Find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_TRUE(build->Find("cpu_features")->is_string());
  // The GCM tier the front end's records run on is named, not implied.
  EXPECT_EQ(build->Find("simd_dispatch")->Find("aes_gcm_tier")->as_string(),
            crypto::GcmTierName(crypto::SelectedGcmTier()));
  // So is the blocked GEMM backend's AVX2 tier, apart from kAvx2's.
  const obs::JsonValue* blocked_gemm =
      build->Find("simd_dispatch")->Find("avx2_blocked_gemm");
  ASSERT_NE(blocked_gemm, nullptr);
  EXPECT_EQ(blocked_gemm->as_bool(), runtime::GemmBlockedAccelerated());
  const obs::JsonValue* timelines = sjson->Find("timelines");
  ASSERT_NE(timelines, nullptr);
  EXPECT_EQ(timelines->Find("total_noted")->as_number(), 3.0);
  const auto& slowest = timelines->Find("slowest")->as_array();
  ASSERT_GE(slowest.size(), 1u);
  EXPECT_GT(slowest[0].Find("infer_us")->as_number(), 0.0);
  EXPECT_NE(slowest[0].Find("trace_id")->as_string(), "0");

  // Unknown paths 404; malformed request lines too.
  auto missing = AdminGet(admin_listener, "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(SplitHttp(*missing).first, 404);

  (*client)->Disconnect();
  (*service)->Stop();
  (*admin)->Stop();
}

TEST_F(ServiceTest, ConcurrentScrapeDuringLoadStaysConsistent) {
  transport::Listener listener;
  auto service = InferenceService::Start(*monitor_, listener);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  transport::Listener admin_listener;
  auto admin =
      AdminServer::Start(*monitor_, admin_listener, AdminOptions{});
  ASSERT_TRUE(admin.ok()) << admin.status().ToString();

  // Load: two client sessions hammering Infer while a scraper reads
  // /metrics and /status. TSan builds get real interleaving here; all
  // builds assert every scrape stays well-formed mid-mutation.
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      auto client = InferenceClient::Connect(
          listener, cpu_, monitor_->enclave().measurement());
      if (!client.ok()) return;
      uint64_t seed = 100 + static_cast<uint64_t>(c);
      while (!stop.load()) {
        (void)(*client)->Infer({TestInput(seed++)});
      }
      (*client)->Disconnect();
    });
  }
  for (int i = 0; i < 25; ++i) {
    auto scrape = AdminGet(admin_listener, "/metrics");
    ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
    auto [code, body] = SplitHttp(*scrape);
    ASSERT_EQ(code, 200);
    std::istringstream lines(body);
    std::string line;
    while (std::getline(lines, line)) {
      ASSERT_FALSE(line.empty());
      if (line[0] == '#') continue;
      const size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      ASSERT_EQ(line.compare(0, 6, "mvtee_"), 0) << line;
      ASSERT_NO_THROW((void)std::stod(line.substr(space + 1))) << line;
    }
    auto status = AdminGet(admin_listener, "/status");
    ASSERT_TRUE(status.ok());
    auto parsed = obs::ParseJson(SplitHttp(*status).second);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  (*service)->Stop();
  (*admin)->Stop();
}

// Wedges the monitor's event loop through the fault-injection seam and
// asserts the full detection chain: heartbeat freezes -> watchdog flips
// /healthz to 503 and dumps a stall evidence bundle -> releasing the
// loop recovers /healthz to 200.
TEST(AdminStallTest, InjectedEventLoopStallFlipsHealthzAndLeavesEvidence) {
  char dir_template[] = "/tmp/mvtee-stall-XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  ::setenv("MVTEE_EVIDENCE_DIR", dir_template, 1);

  auto bundle = RunOfflineTool(TestModel(), SmallOffline());
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  tee::SimulatedCpu cpu{tee::SimulatedCpu::Options{.hardware_key_seed = 3}};
  VariantHost host(&cpu, bundle->store);

  // The gate the hook blocks on; armed mid-test, released for recovery.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool wedged = false;
  MonitorConfig config;
  config.loop_tick_hook = [&] {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return !wedged; });
  };
  auto monitor = Monitor::Create(&cpu, config);
  ASSERT_TRUE(monitor.ok());
  ASSERT_TRUE((*monitor)
                  ->Initialize(*bundle, MvxSelection::Uniform(*bundle, 2),
                               host)
                  .ok());

  transport::Listener listener;
  auto service = InferenceService::Start(**monitor, listener);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  transport::Listener admin_listener;
  AdminOptions admin_opts;
  admin_opts.watchdog.poll_interval_us = 5'000;
  admin_opts.watchdog.stall_threshold_us = 50'000;
  auto admin = AdminServer::Start(**monitor, admin_listener, admin_opts);
  ASSERT_TRUE(admin.ok()) << admin.status().ToString();

  auto client = InferenceClient::Connect(
      listener, cpu, (*monitor)->enclave().measurement());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // Sanity: un-wedged requests flow and /healthz is 200.
  ASSERT_TRUE((*client)->Infer({TestInput()}).ok());
  auto healthz = AdminGet(admin_listener, "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(SplitHttp(*healthz).first, 200);
  const uint64_t bundles_before =
      (*monitor)->metrics().GetCounter("watchdog.stall_bundles_total")
          .value();

  // Arm the gate and submit: the request pops (inflight goes up), the
  // event loop hits the hook and freezes mid-run.
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    wedged = true;
  }
  auto stalled = std::async(std::launch::async, [&] {
    return (*client)->Infer({TestInput(2)});
  });

  // The watchdog must flip /healthz within a few thresholds.
  int code = 200;
  std::string body;
  const int64_t give_up = util::NowMicros() + 10'000'000;
  while (util::NowMicros() < give_up) {
    auto probe = AdminGet(admin_listener, "/healthz");
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    std::tie(code, body) = SplitHttp(*probe);
    if (code == 503) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(code, 503) << body;
  auto verdict = obs::ParseJson(body);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_FALSE(verdict->Find("healthy")->as_bool());
  EXPECT_NE(verdict->Find("reason")->as_string().find("event loop silent"),
            std::string::npos);

  // The sustained stall left a forensic bundle.
  ASSERT_TRUE(WaitForCounter(
      (*monitor)->metrics().GetCounter("watchdog.stall_bundles_total"),
      bundles_before + 1));

  // Release the loop: the wedged request completes and health recovers.
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    wedged = false;
  }
  gate_cv.notify_all();
  auto result = stalled.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  code = 503;
  const int64_t recover_by = util::NowMicros() + 10'000'000;
  while (util::NowMicros() < recover_by) {
    auto probe = AdminGet(admin_listener, "/healthz");
    ASSERT_TRUE(probe.ok());
    code = SplitHttp(*probe).first;
    if (code == 200) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(code, 200);

  (*client)->Disconnect();
  (*service)->Stop();
  (*admin)->Stop();
  ASSERT_TRUE((*monitor)->Shutdown().ok());
  host.JoinAll();

  // The evidence files are watchdog-stall bundles; clean up the dir.
  int bundle_files = 0;
  const std::string dir(dir_template);
  ::DIR* d = ::opendir(dir.c_str());
  ASSERT_NE(d, nullptr);
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    ++bundle_files;
    std::remove((dir + "/" + name).c_str());
  }
  ::closedir(d);
  EXPECT_GE(bundle_files, 1);
  ::unsetenv("MVTEE_EVIDENCE_DIR");
  ::rmdir(dir_template);
}

}  // namespace
}  // namespace mvtee::service
