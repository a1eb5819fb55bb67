// Serving benchmark (DESIGN.md §11): the attested service front end
// under concurrent sessions. Boots a full deployment, opens the RA-TLS
// front end on a Listener and drives N concurrent client sessions, each
// submitting encrypted requests back-to-back. Reports per-request
// latency percentiles (p50/p99, measured client-side around Infer) and
// goodput (completed requests per wall-clock second across all
// sessions), plus how many coalesced admission groups served them, and
// the server-side queue-wait/infer/verify phase breakdown from the live
// service.*_us histograms. Exits non-zero unless every request succeeds.
// Scheduler behaviour under open-loop load is measured by perfbench's
// `openloop` workload.
//
// Introspection plane: the bench starts an AdminServer next to the
// service; with MVTEE_ADMIN_PORT set it serves /healthz /metrics
// /status on loopback TCP, and MVTEE_ADMIN_LINGER_MS keeps the loaded
// deployment alive after the run so CI can scrape it with curl.
//
// Results go to stdout and to a machine-readable JSON summary at
// $MVTEE_BENCH_JSON (default ./BENCH_serving.json) so CI can archive a
// baseline next to the other bench artifacts (committed reference:
// bench/baselines/BENCH_serving.json).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "service/admin.h"
#include "service/inference_service.h"
#include "transport/channel.h"
#include "util/knobs.h"
#include "util/rng.h"

namespace mvtee::bench {
namespace {

constexpr int kSessions = 8;
constexpr int kRequestsPerSession = 6;

struct ServingResult {
  int sessions = 0;
  int requests_total = 0;
  int requests_ok = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double goodput_rps = 0.0;  // completed requests / wall second
  uint64_t admission_groups = 0;
  uint64_t rejected = 0;
  // Server-side phase breakdown, from the live registry histograms.
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p99_ms = 0.0;
  double infer_p50_ms = 0.0;
  double infer_p99_ms = 0.0;
  double verify_p50_ms = 0.0;
  double verify_p99_ms = 0.0;
};

double PercentileMs(std::vector<int64_t> latencies_us, double q) {
  if (latencies_us.empty()) return 0.0;
  std::sort(latencies_us.begin(), latencies_us.end());
  const size_t idx = std::min(
      latencies_us.size() - 1,
      static_cast<size_t>(q * static_cast<double>(latencies_us.size())));
  return static_cast<double>(latencies_us[idx]) / 1000.0;
}

void WriteJson(const ServingResult& r) {
  const char* path = util::KnobRegistry::Default().Raw("MVTEE_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') path = "BENCH_serving.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"serving\",\n"
               "  \"sessions\": %d,\n"
               "  \"requests_total\": %d,\n"
               "  \"requests_ok\": %d,\n"
               "  \"p50_ms\": %.2f,\n"
               "  \"p99_ms\": %.2f,\n"
               "  \"goodput_rps\": %.2f,\n"
               "  \"admission_groups\": %llu,\n"
               "  \"rejected\": %llu,\n"
               "  \"queue_wait_p50_ms\": %.2f,\n"
               "  \"queue_wait_p99_ms\": %.2f,\n"
               "  \"infer_p50_ms\": %.2f,\n"
               "  \"infer_p99_ms\": %.2f,\n"
               "  \"verify_p50_ms\": %.2f,\n"
               "  \"verify_p99_ms\": %.2f\n"
               "}\n",
               r.sessions, r.requests_total, r.requests_ok, r.p50_ms,
               r.p99_ms, r.goodput_rps,
               static_cast<unsigned long long>(r.admission_groups),
               static_cast<unsigned long long>(r.rejected),
               r.queue_wait_p50_ms, r.queue_wait_p99_ms, r.infer_p50_ms,
               r.infer_p99_ms, r.verify_p50_ms, r.verify_p99_ms);
  std::fclose(f);
  std::printf("json summary: %s\n", path);
}

int Main() {
  std::printf("=== serving: attested sessions through the front end ===\n");
  graph::ZooConfig zoo = BenchZooConfig();
  graph::Graph model =
      graph::BuildModel(graph::ModelKind::kMobileNetV3, zoo);

  MvteeSetup setup = FundamentalSetup(/*partitions=*/4);
  // The front end routes through the monitor; direct variant-to-variant
  // pipes would bypass the session loop's accounting.
  setup.monitor.direct_fastpath = false;
  auto bundle = BuildBenchBundle(model, setup);
  if (!bundle.ok()) {
    std::printf("bundle failed: %s\n", bundle.status().ToString().c_str());
    return 1;
  }

  tee::SimulatedCpu cpu;
  core::VariantHost host(&cpu, bundle->store, setup.host);
  auto monitor = core::Monitor::Create(&cpu, setup.monitor);
  if (!monitor.ok()) return 1;
  auto status = (*monitor)->Initialize(
      *bundle, core::MvxSelection::Uniform(*bundle, 1), host);
  if (!status.ok()) {
    std::printf("init failed: %s\n", status.ToString().c_str());
    return 1;
  }

  transport::Listener listener;
  auto service = service::InferenceService::Start(**monitor, listener);
  if (!service.ok()) {
    std::printf("service start failed: %s\n",
                service.status().ToString().c_str());
    return 1;
  }
  // Introspection plane next to the service: in-process admin listener
  // always; loopback TCP when MVTEE_ADMIN_PORT is set (0 = ephemeral).
  transport::Listener admin_listener;
  auto admin = service::AdminServer::Start(**monitor, admin_listener);
  if (!admin.ok()) {
    std::printf("admin start failed: %s\n", admin.status().ToString().c_str());
    return 1;
  }
  if ((*admin)->tcp_port() >= 0) {
    std::printf("admin endpoint: http://127.0.0.1:%d\n", (*admin)->tcp_port());
  }
  obs::Registry& reg = (*monitor)->metrics();
  const uint64_t groups_base =
      reg.GetCounter("service.groups_total").value();
  const uint64_t rejected_base =
      reg.GetCounter("service.rejected_total").value();

  std::mutex latencies_mu;
  std::vector<int64_t> latencies_us;
  std::atomic<int> ok_count{0};
  const int64_t t0 = util::NowMicros();
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      auto client = service::InferenceClient::Connect(
          listener, cpu, (*monitor)->enclave().measurement());
      if (!client.ok()) return;
      util::Rng rng(1000 + static_cast<uint64_t>(s));
      std::vector<int64_t> mine;
      for (int r = 0; r < kRequestsPerSession; ++r) {
        auto input = tensor::Tensor::RandomUniform(
            tensor::Shape({1, 3, zoo.input_hw, zoo.input_hw}), rng);
        const int64_t start = util::NowMicros();
        auto result = (*client)->Infer({input});
        if (result.ok()) {
          mine.push_back(util::NowMicros() - start);
          ok_count.fetch_add(1);
        }
      }
      (*client)->Disconnect();
      std::lock_guard<std::mutex> lock(latencies_mu);
      latencies_us.insert(latencies_us.end(), mine.begin(), mine.end());
    });
  }
  for (auto& t : sessions) t.join();
  const int64_t wall_us = util::NowMicros() - t0;

  // With MVTEE_ADMIN_LINGER_MS set, keep the loaded deployment alive so
  // an external scraper (CI curl) can hit the admin endpoints while the
  // histograms, sessions and supervisor panel still reflect the run.
  const int64_t linger_ms =
      util::KnobRegistry::Default().Int("MVTEE_ADMIN_LINGER_MS");
  if (linger_ms > 0) {
    std::printf("lingering %lld ms for admin scrapes...\n",
                static_cast<long long>(linger_ms));
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }
  (*service)->Stop();

  ServingResult result;
  result.sessions = kSessions;
  result.requests_total = kSessions * kRequestsPerSession;
  result.requests_ok = ok_count.load();
  result.p50_ms = PercentileMs(latencies_us, 0.50);
  result.p99_ms = PercentileMs(latencies_us, 0.99);
  result.goodput_rps =
      wall_us > 0 ? static_cast<double>(result.requests_ok) * 1e6 /
                        static_cast<double>(wall_us)
                  : 0.0;
  result.admission_groups =
      reg.GetCounter("service.groups_total").value() - groups_base;
  result.rejected =
      reg.GetCounter("service.rejected_total").value() - rejected_base;
  const obs::HistogramStats queue_wait =
      reg.GetHistogram("service.queue_wait_us").Stats();
  const obs::HistogramStats infer =
      reg.GetHistogram("service.infer_us").Stats();
  const obs::HistogramStats verify =
      reg.GetHistogram("service.verify_us").Stats();
  result.queue_wait_p50_ms = queue_wait.p50 / 1000.0;
  result.queue_wait_p99_ms = queue_wait.p99 / 1000.0;
  result.infer_p50_ms = infer.p50 / 1000.0;
  result.infer_p99_ms = infer.p99 / 1000.0;
  result.verify_p50_ms = verify.p50 / 1000.0;
  result.verify_p99_ms = verify.p99 / 1000.0;

  std::printf(
      "%d sessions x %d requests: %d ok | p50 %.2f ms | p99 %.2f ms | "
      "%.2f req/s | %llu admission groups | %llu rejected\n",
      result.sessions, kRequestsPerSession, result.requests_ok,
      result.p50_ms, result.p99_ms, result.goodput_rps,
      static_cast<unsigned long long>(result.admission_groups),
      static_cast<unsigned long long>(result.rejected));
  std::printf(
      "phase breakdown (server-side): queue-wait p50 %.2f / p99 %.2f ms | "
      "infer p50 %.2f / p99 %.2f ms | verify p50 %.2f / p99 %.2f ms\n",
      result.queue_wait_p50_ms, result.queue_wait_p99_ms, result.infer_p50_ms,
      result.infer_p99_ms, result.verify_p50_ms, result.verify_p99_ms);

  WriteJson(result);

  (*admin)->Stop();
  (void)(*monitor)->Shutdown();
  host.JoinAll();

  return result.requests_ok == result.requests_total ? 0 : 1;
}

}  // namespace
}  // namespace mvtee::bench

int main() { return mvtee::bench::Main(); }
