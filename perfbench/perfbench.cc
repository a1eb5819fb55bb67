// Repository benchmark: runs one named workload against the library's
// public APIs and prints what it measured.
//
//   perfbench --workload interactive|openloop|mvx --seed N --seconds S
//             --trace 0|1 [--out DIR]
//
// Workloads (all on the scaled model zoo with AEAD channels):
//   interactive  MnasNet, 7 partitions, monitor-mediated routing; one
//                client thread in a closed loop over the attested wire
//                front end, reconnecting after every 8 requests.
//   openloop     ResNet-50, 5 partitions, direct fast-path pipes; one
//                generator submits a seeded Poisson schedule for three
//                tenants through in-process sessions, at three fixed
//                rate steps (low, knee, over).
//   mvx          MobileNetV3, 5 partitions, diversified pool, 3-variant
//                majority panels on stages 3-5 with async
//                cross-validation; four long-lived wire sessions in a
//                closed loop.
//
// Every reply is checked against the unprotected model run by an
// ORT-like runtime::Executor on the same input (same top-1 class,
// cosine similarity at or above the workload's check threshold).
//
// The S measured seconds run as cycles on freshly set-up deployments,
// each cycle one segment of about 5 s (closed loop) or one low -> knee
// -> over series of 1 s segments (open loop). Latency percentiles and
// rates are taken over every sample of the run's segments, pooled.
// --trace 0 reports the end-to-end metrics; --trace 1 alternates
// untraced and traced cycles (the benchmark's own spans on) and reports
// the per-layer metrics of the traced ones. The last line of stdout is
// one JSON object: {"sent", "ok", "failed", "wrong", "rejected",
// "expired", "metrics": {name: {"value", "unit"}}}; a readable report
// goes to stderr and the spans to DIR/<workload>-seed<N>-spans.json.
// perfbench/README.md defines every metric.
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/consistency.h"
#include "core/monitor.h"
#include "core/offline.h"
#include "core/variant_host.h"
#include "crypto/aead.h"
#include "graph/model_zoo.h"
#include "measure.h"
#include "obs/trace.h"
#include "runtime/executor.h"
#include "service/inference_service.h"
#include "transport/channel.h"
#include "util/clock.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace mvtee;  // NOLINT: the benchmark spans the whole library

struct Metric {
  std::string name;
  double value;
  const char* unit;
};
using Metrics = std::vector<Metric>;

// Stages reported one by one (every workload has at least these); the
// report lists all of them.
constexpr int kReportedStages = 5;
// The partition and the variant pool are part of a workload's
// configuration, not of its inputs: their seeds move the pipeline
// bottleneck (openloop capacity ranged 590-780 req/s over partition
// seeds 1-4, mvx throughput 507-617 req/s over pool seeds), so every
// run seed deploys the same partition and pool. The run seed drives
// the keys, the input tensors and the arrival schedule.
constexpr uint64_t kPartitionSeed = 1;
constexpr uint64_t kPoolSeed = 3;
constexpr int kInputPool = 32;
constexpr int kConnectProbes = 100;
// Measurements run in segments of about these lengths (closed loop; one
// open-loop rate step), each on a deployment warmed up beforehand.
constexpr double kSegmentSeconds = 5.0;
constexpr double kOpenSegmentSeconds = 1.0;
constexpr double kWarmupSeconds = 0.3;
// Span ring capacity per measured second of a traced run: well above
// what the busiest workload records (own spans plus joined program
// spans), so no span of the run is dropped.
constexpr size_t kSpansPerSecond = 20000;
// The latency ledger's parts must sum to the mean end-to-end latency
// within this share of it.
constexpr double kLedgerTolerancePct = 5.0;
const char* const kSteps[3] = {"low", "knee", "over"};

enum class Kind { kInteractive, kOpenLoop, kMvx };

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

struct Tenant {
  const char* name;
  int32_t priority;
  int64_t deadline_us;  // 0 = none: judged against the latency limit
  double share;         // of arrivals; the shares sum to 1
};

struct Workload {
  Kind kind;
  graph::ModelKind model;
  int partitions;
  variant::PoolConfig pool;
  std::vector<int> panel;  // variants per stage; empty = one each
  core::MonitorConfig monitor;
  int client_threads = 1;
  int burst = 0;  // requests per wire session; 0 = long-lived sessions
  // Open loop only: arrival rates of the low, knee and over steps, the
  // tenants, and the latency limit of requests without a deadline.
  std::array<double, 3> rates_rps{};
  std::vector<Tenant> tenants;
  int64_t limit_us = 0;
};

Workload MakeWorkload(Kind kind) {
  Workload w;
  w.kind = kind;
  w.pool.variants_per_stage = 1;
  w.pool.replicated = true;
  w.pool.verify = false;
  w.monitor.check = core::CheckPolicy::Cosine(0.99);
  switch (kind) {
    case Kind::kInteractive:
      w.model = graph::ModelKind::kMnasNet;
      w.partitions = 7;
      w.monitor.direct_fastpath = false;
      w.burst = 8;
      break;
    case Kind::kOpenLoop:
      w.model = graph::ModelKind::kResNet50;
      w.partitions = 5;
      w.monitor.direct_fastpath = true;
      // Measured once on the commit that added the benchmark (4-core
      // x86-64 VM, 650-800 req/s at saturation); runs never re-derive
      // them. low and over sit at about 0.2x and 1.3x of capacity, knee
      // at about 0.55x: at 0.8x, identical runs gave knee p99 from 15 to
      // 40 ms. The tight tenant sends a fifth of the arrivals, below its
      // fair share of slots even at the over rate, so overload lands on
      // the bulk tenants. Its deadline is about twice the knee median;
      // the loose deadline and the latency limit lie above the queueing
      // delay of a full admission queue (64 requests, about 100 ms).
      w.rates_rps = {150, 400, 1000};
      w.tenants = {{"tight", 2, 15'000, 0.2},
                   {"loose", 1, 150'000, 0.4},
                   {"batch", 0, 0, 0.4}};
      w.limit_us = 300'000;
      break;
    case Kind::kMvx:
      // The paper's real-world setup (Fig. 14): ORT/TVM/hardened pool,
      // 3-variant majority panels on partitions 3-5, async
      // cross-validation, continue with the winner.
      w.model = graph::ModelKind::kMobileNetV3;
      w.partitions = 5;
      w.pool.replicated = false;
      w.pool.variants_per_stage = 3;
      w.panel = {1, 1, 3, 3, 3};
      w.monitor.direct_fastpath = true;
      w.monitor.vote = core::VotePolicy::kMajority;
      w.monitor.reaction = core::ReactionPolicy::ContinueWithWinner();
      w.monitor.mode = core::ExecMode::kAsync;
      w.client_threads = 4;
      break;
  }
  return w;
}

graph::ZooConfig ScaledZoo() {
  graph::ZooConfig cfg;
  cfg.input_hw = 32;
  cfg.width_mult = 0.25;
  cfg.depth_mult = 0.34;
  cfg.num_classes = 100;
  return cfg;
}

double Seconds(int64_t us) { return static_cast<double>(us) / 1e6; }

// Opens `span` as `name` in `spans`; tracing is off when `spans` is null.
void OpenSpan(std::optional<obs::ScopedSpan>& span, obs::TraceBuffer* spans,
              const char* name) {
  if (spans != nullptr) span.emplace(name, obs::SpanTags{}, spans);
}

// ---- inputs and checked outputs -------------------------------------

struct Reference {
  std::vector<std::vector<tensor::Tensor>> inputs;
  std::vector<std::vector<tensor::Tensor>> outputs;  // unprotected model
  std::vector<double> model_us;  // timed Executor::Run calls (warm)
};

Reference MakeReference(const graph::Graph& model, uint64_t seed) {
  Reference ref;
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  for (int i = 0; i < kInputPool; ++i) {
    std::vector<tensor::Tensor> in;
    for (graph::NodeId id : model.inputs()) {
      in.push_back(
          tensor::Tensor::RandomUniform(model.input_shape(id), rng, -1.f, 1.f));
    }
    ref.inputs.push_back(std::move(in));
  }
  auto exec =
      runtime::Executor::Create(model, runtime::OrtLikeExecutorConfig());
  MVTEE_CHECK(exec.ok());
  (void)(*exec)->Run(ref.inputs[0]);  // warm-up
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& in : ref.inputs) {
      const int64_t t0 = util::NowNanos();
      auto out = (*exec)->Run(in);
      ref.model_us.push_back(static_cast<double>(util::NowNanos() - t0) / 1e3);
      MVTEE_CHECK(out.ok());
      if (pass == 0) ref.outputs.push_back(std::move(*out));
    }
  }
  return ref;
}

size_t ArgMax(const tensor::Tensor& t) {
  const float* p = t.data();
  size_t best = 0;
  for (size_t i = 1; i < t.storage_size(); ++i) {
    if (p[i] > p[best]) best = i;
  }
  return best;
}

double Cosine(const tensor::Tensor& a, const tensor::Tensor& b) {
  double dot = 0, na = 0, nb = 0;
  for (size_t i = 0; i < a.storage_size(); ++i) {
    dot += static_cast<double>(a.data()[i]) * b.data()[i];
    na += static_cast<double>(a.data()[i]) * a.data()[i];
    nb += static_cast<double>(b.data()[i]) * b.data()[i];
  }
  return (na > 0 && nb > 0) ? dot / std::sqrt(na * nb) : 0.0;
}

// Same top-1 class and cosine >= threshold on every output; bitwise
// equality is not required (partitioned pipelines reorder arithmetic).
bool CheckReply(const std::vector<tensor::Tensor>& got,
                const std::vector<tensor::Tensor>& want, double threshold) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].storage_size() != want[i].storage_size() ||
        got[i].storage_size() == 0) {
      return false;
    }
    if (ArgMax(got[i]) != ArgMax(want[i])) return false;
    if (Cosine(got[i], want[i]) < threshold) return false;
  }
  return true;
}

// ---- failure accounting ---------------------------------------------

struct Counts {
  uint64_t sent = 0, ok = 0, rejected = 0, expired = 0, errors = 0, wrong = 0;
  void Add(const Counts& o) {
    sent += o.sent;
    ok += o.ok;
    rejected += o.rejected;
    expired += o.expired;
    errors += o.errors;
    wrong += o.wrong;
  }
  void CountStatus(const util::Status& status) {
    if (status.code() == util::StatusCode::kAdmissionRejected) {
      ++rejected;
    } else if (status.code() == util::StatusCode::kDeadlineExceeded) {
      ++expired;
    } else {
      ++errors;
    }
  }
};

void PrintCounts(const char* label, const Counts& c) {
  std::fprintf(stderr,
               "  %-14s sent %6llu  ok %6llu  rejected %5llu  expired %5llu  "
               "errors %3llu  wrong %3llu\n",
               label, static_cast<unsigned long long>(c.sent),
               static_cast<unsigned long long>(c.ok),
               static_cast<unsigned long long>(c.rejected),
               static_cast<unsigned long long>(c.expired),
               static_cast<unsigned long long>(c.errors),
               static_cast<unsigned long long>(c.wrong));
}

void Append(std::vector<double>& into, const std::vector<double>& part) {
  into.insert(into.end(), part.begin(), part.end());
}

// ---- deployment -------------------------------------------------------

struct SetupTimes {
  double offline_s = 0, initialize_s = 0, total_s = 0;
};

// One booted deployment. Members are declared so that destruction runs
// service -> monitor -> host -> cpu.
struct Deployment {
  explicit Deployment(uint64_t seed)
      : cpu(tee::SimulatedCpu::Options{.hardware_key_seed = seed + 3}) {}
  ~Deployment() { Teardown(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  void Teardown() {
    if (service) service->Stop();
    service.reset();
    if (monitor) {
      monitor->StopService();
      (void)monitor->Shutdown();
    }
    if (host) host->JoinAll();
    monitor.reset();
    host.reset();
  }

  util::Status StartWire() {
    auto started = service::InferenceService::Start(*monitor, listener);
    if (!started.ok()) return started.status();
    service = std::move(*started);
    return util::OkStatus();
  }

  util::Result<std::unique_ptr<service::InferenceClient>> Connect() {
    return service::InferenceClient::Connect(listener, cpu,
                                             monitor->enclave().measurement());
  }

  tee::SimulatedCpu cpu;
  core::OfflineBundle bundle;
  std::unique_ptr<core::VariantHost> host;
  std::unique_ptr<core::Monitor> monitor;
  transport::Listener listener;
  std::unique_ptr<service::InferenceService> service;
};

// RunOfflineTool + Monitor::Initialize + service start: the time until
// the first request may be sent.
util::Result<std::unique_ptr<Deployment>> SetUp(const Workload& w,
                                                const graph::Graph& model,
                                                uint64_t seed,
                                                SetupTimes* times) {
  auto d = std::make_unique<Deployment>(seed);
  const int64_t t0 = util::NowMicros();
  core::OfflineOptions offline;
  offline.num_partitions = w.partitions;
  offline.partition_seed = kPartitionSeed;
  offline.key_seed = seed + 1;
  offline.pool = w.pool;
  offline.pool.seed = kPoolSeed;
  auto bundle = core::RunOfflineTool(model, offline);
  if (!bundle.ok()) return bundle.status();
  d->bundle = std::move(*bundle);
  const int64_t t1 = util::NowMicros();

  core::VariantHost::Options host_options;
  host_options.network = transport::NetworkCostModel::TenGbE();
  d->host = std::make_unique<core::VariantHost>(&d->cpu, d->bundle.store,
                                                host_options);
  auto monitor = core::Monitor::Create(&d->cpu, w.monitor);
  if (!monitor.ok()) return monitor.status();
  d->monitor = std::move(*monitor);
  const core::MvxSelection selection =
      w.panel.empty() ? core::MvxSelection::Uniform(d->bundle, 1)
                      : core::MvxSelection::PerStage(d->bundle, w.panel);
  MVTEE_RETURN_IF_ERROR(d->monitor->Initialize(d->bundle, selection, *d->host));
  const int64_t t2 = util::NowMicros();

  if (w.kind == Kind::kOpenLoop) {
    MVTEE_RETURN_IF_ERROR(d->monitor->StartService(core::ServiceConfig{}));
  } else {
    MVTEE_RETURN_IF_ERROR(d->StartWire());
  }
  const int64_t t3 = util::NowMicros();
  times->offline_s = Seconds(t1 - t0);
  times->initialize_s = Seconds(t2 - t1);
  times->total_s = Seconds(t3 - t0);
  return d;
}

// ---- closed loop over the wire (interactive, mvx) ---------------------

struct WireResult {
  std::vector<double> infer_us;     // client wall time, ok + checked
  std::vector<double> frontend_us;  // infer_us - server latency
  std::vector<double> connect_us;
  Counts counts;
  int64_t wall_us = 0;
  int sessions = 0;
};

void Merge(WireResult& into, const WireResult& part) {
  Append(into.infer_us, part.infer_us);
  Append(into.frontend_us, part.frontend_us);
  Append(into.connect_us, part.connect_us);
  into.counts.Add(part.counts);
  into.wall_us += part.wall_us;
  into.sessions += part.sessions;
}

// Runs the workload's client threads for `seconds`. With `clients`
// non-empty, each thread keeps its long-lived session; otherwise every
// thread reconnects after `burst` requests.
WireResult RunWire(Deployment& d, const Workload& w, const Reference& ref,
                   std::vector<std::unique_ptr<service::InferenceClient>>&
                       clients,
                   double seconds, uint64_t salt, obs::TraceBuffer* spans) {
  const double threshold = w.monitor.check.threshold;
  const int threads = w.client_threads;
  std::vector<WireResult> per(static_cast<size_t>(threads));
  WireResult total;
  const int64_t start = util::NowMicros();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e6);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      WireResult& mine = per[static_cast<size_t>(t)];
      util::Rng rng(salt * 1000 + static_cast<uint64_t>(t));
      std::unique_ptr<service::InferenceClient> own;
      service::InferenceClient* client =
          clients.empty() ? nullptr : clients[static_cast<size_t>(t)].get();
      int in_session = 0;
      while (util::NowMicros() < end) {
        if (client == nullptr) {
          std::optional<obs::ScopedSpan> connect_span;
          OpenSpan(connect_span, spans, "client/connect");
          const int64_t c0 = util::NowNanos();
          auto connected = d.Connect();
          if (!connected.ok()) {
            mine.counts.sent++;
            mine.counts.errors++;
            continue;
          }
          mine.connect_us.push_back(
              static_cast<double>(util::NowNanos() - c0) / 1e3);
          own = std::move(*connected);
          client = own.get();
          mine.sessions++;
          in_session = 0;
        }
        const size_t idx = rng.UniformU64(ref.inputs.size());
        mine.counts.sent++;
        std::optional<obs::ScopedSpan> request_span, infer_span;
        OpenSpan(request_span, spans, "request");
        const int64_t t0 = util::NowNanos();
        OpenSpan(infer_span, spans, "client/infer");
        util::Result<std::vector<tensor::Tensor>> reply =
            client->Infer(ref.inputs[idx]);
        infer_span.reset();
        bool good = false;
        if (reply.ok()) {
          std::optional<obs::ScopedSpan> check_span;
          OpenSpan(check_span, spans, "check/compare");
          good = CheckReply(*reply, ref.outputs[idx], threshold);
        }
        const double us = static_cast<double>(util::NowNanos() - t0) / 1e3;
        request_span.reset();
        if (!reply.ok()) {
          mine.counts.CountStatus(reply.status());
        } else if (!good) {
          mine.counts.wrong++;
        } else {
          mine.counts.ok++;
          mine.infer_us.push_back(us);
          mine.frontend_us.push_back(
              us - static_cast<double>(client->last_latency_us()));
        }
        if (w.burst > 0 && ++in_session == w.burst) {
          own->Disconnect();
          own.reset();
          client = nullptr;
        }
      }
      if (own) own->Disconnect();
    });
  }
  for (auto& th : pool) th.join();
  for (const WireResult& p : per) Merge(total, p);
  total.wall_us = util::NowMicros() - start;
  return total;
}

// ---- open loop through in-process sessions (openloop) -----------------

struct StepResult {
  double seconds = 0;
  std::vector<double> latency_us;   // scheduled send -> completion
  std::vector<double> lateness_us;  // generator: actual - scheduled send
  Counts counts;
  uint64_t on_time = 0;
  // One root span per request when traced, carrying the program's
  // trace id of the request.
  std::vector<obs::SpanRecord> roots;
};

void Merge(StepResult& into, const StepResult& part) {
  into.seconds += part.seconds;
  Append(into.latency_us, part.latency_us);
  Append(into.lateness_us, part.lateness_us);
  into.counts.Add(part.counts);
  into.on_time += part.on_time;
}

StepResult RunStep(core::Monitor& monitor, const Workload& w,
                   const Reference& ref, double rate, double seconds,
                   util::Rng& rng, obs::TraceBuffer* spans) {
  StepResult step;
  step.seconds = seconds;
  const std::vector<Tenant>& tenants = w.tenants;
  std::vector<std::unique_ptr<core::Session>> sessions;
  for (size_t t = 0; t < tenants.size(); ++t) {
    auto s = monitor.OpenSession();
    MVTEE_CHECK(s.ok());
    sessions.push_back(std::move(*s));
  }

  struct InFlight {
    std::future<core::InferenceResponse> future;
    int64_t due_us, submit_us;
    size_t tenant, input;
    uint64_t root;  // span id of the request's root span; 0 untraced
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool done = false;
  const double threshold = w.monitor.check.threshold;
  // The generator counts sends and rejections, the collector the rest.
  Counts generated, collected;

  // Collector: resolves futures in submission order and classifies them
  // (completion stamps come from the server, not from this thread).
  std::thread collector([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        f = std::move(queue.front());
        queue.pop_front();
      }
      core::InferenceResponse r = f.future.get();
      const Tenant& tenant = tenants[f.tenant];
      const double latency =
          static_cast<double>(f.submit_us - f.due_us + r.latency_us);
      if (f.root != 0) {
        obs::SpanRecord root;
        root.name = "request";
        root.span_id = f.root;
        root.trace_id = r.trace_id;
        root.start_us = f.due_us;
        root.dur_us = f.submit_us + r.latency_us - f.due_us;
        step.roots.push_back(std::move(root));
      }
      if (!r.status.ok()) {
        collected.CountStatus(r.status);
        continue;
      }
      if (!CheckReply(r.outputs, ref.outputs[f.input], threshold)) {
        collected.wrong++;
        continue;
      }
      collected.ok++;
      step.latency_us.push_back(latency);
      const int64_t limit =
          tenant.deadline_us > 0 ? tenant.deadline_us : w.limit_us;
      if (latency <= static_cast<double>(limit)) step.on_time++;
    }
  });

  // Generator: a seeded Poisson schedule; each arrival picks a tenant by
  // its share and an input uniformly.
  const int64_t start = util::NowMicros() + 1000;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e6);
  double due = static_cast<double>(start);
  for (;;) {
    due += -std::log(1.0 - rng.UniformDouble()) * 1e6 / rate;
    if (due >= static_cast<double>(end)) break;
    size_t t = 0;
    for (double u = rng.UniformDouble();
         t + 1 < tenants.size() && u >= tenants[t].share; ++t) {
      u -= tenants[t].share;
    }
    const size_t input = rng.UniformU64(ref.inputs.size());
    const int64_t due_us = static_cast<int64_t>(due);
    const int64_t now = util::NowMicros();
    if (now < due_us) {
      std::this_thread::sleep_for(std::chrono::microseconds(due_us - now));
    }
    const uint64_t root = spans != nullptr ? obs::NewSpanId() : 0;
    core::InferenceRequest request;
    request.inputs = ref.inputs[input];
    request.tenant = tenants[t].name;
    request.priority = tenants[t].priority;
    request.deadline_us = tenants[t].deadline_us;
    const int64_t submit_us = util::NowMicros();
    step.lateness_us.push_back(static_cast<double>(submit_us - due_us));
    generated.sent++;
    util::Result<std::future<core::InferenceResponse>> submitted = [&] {
      obs::TraceContextScope parent(0, root);
      std::optional<obs::ScopedSpan> submit_span;
      OpenSpan(submit_span, spans, "session/submit");
      return sessions[t]->Submit(std::move(request));
    }();
    if (!submitted.ok()) {
      generated.CountStatus(submitted.status());
      continue;
    }
    std::lock_guard<std::mutex> lock(mu);
    queue.push_back(
        InFlight{std::move(*submitted), due_us, submit_us, t, input, root});
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  for (auto& s : sessions) s->Close();
  step.counts = generated;
  step.counts.Add(collected);
  return step;
}

// Records the request roots into `spans`, followed by the program's own
// spans of the same traces (monitor/admit, variant/infer, executor/run)
// merged from every TEE's ring. Program spans keep their parent links;
// the outermost ones hang under the request's root. Returns how many
// roots found at least one program span.
size_t JoinProgramSpans(const std::vector<obs::SpanRecord>& roots,
                        obs::TraceBuffer& spans) {
  std::map<uint64_t, uint64_t> root_of_trace;
  for (const obs::SpanRecord& root : roots) {
    spans.Record(root);
    if (root.trace_id != 0) root_of_trace[root.trace_id] = root.span_id;
  }
  std::vector<obs::SpanRecord> matched;
  std::set<uint64_t> ids;
  for (const auto& process : obs::TraceCollector::Default().Merge().processes) {
    for (const obs::SpanRecord& p : process.spans) {
      if (root_of_trace.count(p.trace_id) == 0) continue;
      matched.push_back(p);
      ids.insert(p.span_id);
    }
  }
  std::set<uint64_t> joined;
  for (obs::SpanRecord& p : matched) {
    const uint64_t root = root_of_trace[p.trace_id];
    if (ids.count(p.parent_span_id) == 0) p.parent_span_id = root;
    joined.insert(root);
    spans.Record(std::move(p));
  }
  return joined.size();
}

// ---- probes: the benchmark's own timed calls into single layers -------

// core::Vote over three diversified outputs of the model's last stage
// (the ORT-, TVM- and hardened-preset runtimes), p50 microseconds.
double ProbeVoteUs(const graph::Graph& model, const Reference& ref,
                   const core::CheckPolicy& policy) {
  std::vector<std::vector<tensor::Tensor>> outputs;
  for (const auto& cfg :
       {runtime::OrtLikeExecutorConfig(), runtime::TvmLikeExecutorConfig(),
        runtime::HardenedExecutorConfig()}) {
    auto exec = runtime::Executor::Create(model, cfg);
    MVTEE_CHECK(exec.ok());
    auto out = (*exec)->Run(ref.inputs[0]);
    MVTEE_CHECK(out.ok());
    outputs.push_back(std::move(*out));
  }
  std::vector<double> us;
  for (int i = 0; i < 400; ++i) {
    const int64_t t0 = util::NowNanos();
    core::VoteResult v =
        core::Vote(outputs, policy, core::VotePolicy::kMajority);
    us.push_back(static_cast<double>(util::NowNanos() - t0) / 1e3);
    MVTEE_CHECK(v.accepted);
  }
  return Percentile(us, 0.5);
}

// AesGcm seal + open of one record of `bytes`, wall clock, MB/s of
// record payload protected end to end.
double ProbeGcmMBps(size_t bytes) {
  bytes = std::max<size_t>(bytes, 64);
  const util::Bytes key(32, 0x42);
  crypto::AesGcm gcm(key);
  const util::Bytes nonce(crypto::kGcmNonceSize, 7);
  const util::Bytes aad(12, 1);
  util::Bytes buf(bytes + crypto::kGcmTagSize, 0x5a);
  std::vector<double> mbps;
  for (int rep = 0; rep < 5; ++rep) {
    const int iters = static_cast<int>(std::max<size_t>(8, (4u << 20) / bytes));
    const int64_t t0 = util::NowNanos();
    for (int i = 0; i < iters; ++i) {
      gcm.SealInPlace(nonce, aad, buf.data(), bytes);
      auto opened = gcm.OpenInPlace(nonce, aad, buf.data(), buf.size());
      MVTEE_CHECK(opened.ok());
    }
    const double secs = static_cast<double>(util::NowNanos() - t0) / 1e9;
    mbps.push_back(static_cast<double>(bytes) * iters / secs / 1e6);
  }
  return Percentile(mbps, 0.5);
}

// ---- report ----------------------------------------------------------

void PrintSelfTimes(const std::vector<obs::SpanRecord>& spans) {
  std::fprintf(stderr, "  spans (benchmark + joined program spans):\n");
  for (const auto& [name, st] : SelfTimes(spans)) {
    std::fprintf(stderr, "    %-18s n %7llu  mean %9.1f us  self %9.1f us\n",
                 name.c_str(), static_cast<unsigned long long>(st.count),
                 st.mean_us, st.mean_self_us);
  }
}

// Per-layer readings of one traced phase. `n` is the phase's correct
// replies; per-request figures divide by it.
void LayerMetrics(const RegistryPhase& p, double n, int stages,
                  Metrics& m) {
  n = std::max(n, 1.0);
  auto hist_p50 = [&](const std::string& name) { return p.Hist(name).p50; };
  m.push_back({"service.reply_us", hist_p50("service.reply_us"), "us"});
  m.push_back(
      {"service.queue_wait_us", hist_p50("service.queue_wait_us"), "us"});
  m.push_back({"service.queue_wait_us.p99",
               p.Hist("service.queue_wait_us").p99, "us"});
  m.push_back({"scheduler.batch_occupancy",
               p.Hist("scheduler.batch_occupancy").mean(), "count"});
  m.push_back({"service.admission_queue_depth_hwm",
               p.Gauge("service.admission_queue_depth_hwm"), "count"});
  // Every stage goes to the report; the metrics keep the stages all
  // workloads have, the bottleneck stage and the per-request forwarding.
  double forward_sum = 0, bottleneck = 0;
  std::string forward_p50s, infer_p50s;
  for (int s = 0; s < stages; ++s) {
    const std::string st = "stage" + std::to_string(s);
    const double infer = hist_p50("variant." + st + ".infer_us");
    const double forward = hist_p50("monitor." + st + ".forward_us");
    forward_sum += p.Hist("monitor." + st + ".forward_us").sum;
    bottleneck = std::max(bottleneck, infer);
    if (s < kReportedStages) {
      m.push_back({"variant." + st + ".infer_us", infer, "cpu_us"});
    }
    forward_p50s += " " + std::to_string(static_cast<int64_t>(forward));
    infer_p50s += " " + std::to_string(static_cast<int64_t>(infer));
  }
  std::fprintf(stderr, "  per-stage p50 us: monitor forward [%s ]  variant "
               "infer (CPU) [%s ]\n", forward_p50s.c_str(), infer_p50s.c_str());
  m.push_back({"variant.bottleneck_infer_us", bottleneck, "cpu_us"});
  m.push_back({"monitor.forward_us", forward_sum / n, "us/req"});
  m.push_back({"monitor.wait_us", p.Hist("monitor.wait_us").sum / n, "us/req"});
  m.push_back({"monitor.fast_path_forwards",
               p.Counter("monitor.fast_path_forwards") / n, "count/req"});
  m.push_back({"monitor.checkpoints_evaluated",
               p.Counter("monitor.checkpoints_evaluated") / n, "count/req"});
  m.push_back({"service.verify_us", hist_p50("service.verify_us"), "cpu_us"});
  m.push_back(
      {"monitor.verify_job_us", hist_p50("monitor.verify_job_us"), "cpu_us"});
  m.push_back({"monitor.full_checks", p.Counter("monitor.full_checks") / n,
               "count/req"});
  m.push_back({"monitor.prefilter_hits",
               p.Counter("monitor.prefilter_hits") / n, "count/req"});
  m.push_back({"monitor.late_divergences",
               p.Counter("monitor.late_divergences") / n, "count/req"});
  m.push_back(
      {"monitor.divergences", p.Counter("monitor.divergences"), "count"});
  m.push_back({"monitor.variant_failures",
               p.Counter("monitor.variant_failures"), "count"});
  const double sealed = std::max(p.Counter("channel.records_sealed"), 1.0);
  const double opened = std::max(p.Counter("channel.records_opened"), 1.0);
  m.push_back(
      {"channel.seal_us", p.Counter("channel.seal_us") / sealed, "cpu_us"});
  m.push_back(
      {"channel.open_us", p.Counter("channel.open_us") / opened, "cpu_us"});
  m.push_back({"channel.record_bytes",
               p.Counter("channel.bytes_sealed_total") / sealed, "B"});
  m.push_back({"channel.records_per_request",
               p.Counter("channel.records_sealed") / n, "count/req"});
  const double conv = p.Hist("executor.op.Conv2d_us").sum;
  const double gemm = p.Hist("executor.op.Gemm_us").sum;
  m.push_back({"executor.op.Conv2d_us", conv / n, "cpu_us/req"});
  m.push_back({"executor.op.Gemm_us", gemm / n, "cpu_us/req"});
  m.push_back({"executor.op.other_us",
               (p.HistSum("executor.op.", "_us") - conv - gemm) / n,
               "cpu_us/req"});
  m.push_back({"pack.misses", p.Counter("pack.misses"), "count"});
  m.push_back({"pool.misses", p.Counter("pool.misses") / n, "count/req"});
  m.push_back({"dataplane.bytes_copied",
               p.Counter("dataplane.bytes_copied") / n, "B/req"});
}

// Scheduler outcome counters of one phase; `suffix` names the open-loop
// step they belong to ("" for the whole measured run).
void SchedulerCounters(const RegistryPhase& p, const std::string& suffix,
                       Metrics& m) {
  for (const char* c : {"service.rejected_total",
                        "scheduler.deadline_misses_total",
                        "scheduler.preemptions_total"}) {
    m.push_back({c + suffix, p.Counter(c), "count"});
  }
}

// Mean latency ledger: e2e = front (front end, or generator lateness) +
// queue wait + stage compute + monitor gap + verify + unattributed.
// service.verify_us is measured inside service.infer_us, so the gap is
// infer - stage compute - verify.
void Ledger(const RegistryPhase& p, int stages, double e2e_mean_us,
            double front_mean_us, Metrics& m) {
  double compute = 0;
  for (int s = 0; s < stages; ++s) {
    compute += p.Hist("variant.stage" + std::to_string(s) + ".infer_us").mean();
  }
  const double queue = p.Hist("service.queue_wait_us").mean();
  const double infer = p.Hist("service.infer_us").mean();
  const double verify = p.Hist("service.verify_us").mean();
  const double gap = infer - compute - verify;
  const double unattributed =
      e2e_mean_us - (front_mean_us + queue + compute + gap + verify);
  m.push_back({"monitor.gap_us", gap, "us"});
  m.push_back({"ledger.e2e_us", e2e_mean_us, "us"});
  m.push_back({"ledger.front_us", front_mean_us, "us"});
  m.push_back({"ledger.queue_wait_us", queue, "us"});
  m.push_back({"ledger.stage_compute_us", compute, "cpu_us"});
  m.push_back({"ledger.verify_us", verify, "cpu_us"});
  m.push_back({"unattributed_us", unattributed, "us"});
  const double pct =
      e2e_mean_us > 0 ? 100.0 * std::fabs(unattributed) / e2e_mean_us : 0.0;
  std::fprintf(stderr,
               "  ledger (mean us): e2e %.1f = front %.1f + queue %.1f + "
               "stage compute %.1f (CPU) + monitor gap %.1f + verify %.1f "
               "+ unattributed %.1f (%.2f%%, %s the %.0f%% tolerance)\n",
               e2e_mean_us, front_mean_us, queue, compute, gap, verify,
               unattributed, pct,
               pct <= kLedgerTolerancePct ? "within" : "OUTSIDE",
               kLedgerTolerancePct);
}

// ---- main --------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      o->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      o->trace = std::string(v) == "1";
    } else if (k == "--out") {
      o->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && o->seconds > 0;
}

// `probes` attested connects with no load; adds the VmRSS growth they
// caused to `rss_kb`. openloop has no wire front end of its own, so it
// starts one only for the probes.
bool ConnectProbes(Deployment& d, bool start_wire, int probes,
                   std::vector<double>& connect_us, double* rss_kb) {
  if (start_wire && !d.StartWire().ok()) return false;
  const double rss0 = ProcStatusKb("VmRSS");
  for (int i = 0; i < probes; ++i) {
    const int64_t c0 = util::NowNanos();
    auto client = d.Connect();
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   client.status().ToString().c_str());
      return false;
    }
    connect_us.push_back(static_cast<double>(util::NowNanos() - c0) / 1e3);
    (*client)->Disconnect();
  }
  *rss_kb += ProcStatusKb("VmRSS") - rss0;
  if (start_wire) {
    d.service->Stop();
    d.service.reset();
  }
  return true;
}

// The segments of one kind (untraced or traced) read as one: samples
// and counts pooled, registry phases kept per segment.
template <typename Result>
struct Series {
  Result pooled;
  std::vector<RegistryPhase> phases;

  void Add(const Result& segment, const RegistryPhase& phase) {
    Merge(pooled, segment);
    phases.push_back(phase);
  }
};

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr, "usage: see the header of perfbench.cc\n");
    return 2;
  }
  Kind kind;
  if (opt.workload == "interactive") {
    kind = Kind::kInteractive;
  } else if (opt.workload == "openloop") {
    kind = Kind::kOpenLoop;
  } else if (opt.workload == "mvx") {
    kind = Kind::kMvx;
  } else {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  const Workload w = MakeWorkload(kind);
  const bool open = kind == Kind::kOpenLoop;
  const graph::Graph model = graph::BuildModel(w.model, ScaledZoo());
  const Reference ref = MakeReference(model, opt.seed);

  // The run is a series of cycles, each on a freshly set-up deployment:
  // set up, warm up, measure one segment (closed loop) or one low ->
  // knee -> over series of segments (open loop), tear down. Fresh
  // deployments keep one deployment's thread placement from deciding
  // the run. A traced run alternates untraced and traced cycles.
  const int per_cycle = open ? 3 : 1;
  const double segment_s = open ? kOpenSegmentSeconds : kSegmentSeconds;
  int cycles = std::max(
      2, static_cast<int>(std::lround(opt.seconds / (per_cycle * segment_s))));
  if (opt.trace && cycles % 2 == 1) ++cycles;
  const double seg_s = opt.seconds / (cycles * per_cycle);
  std::fprintf(stderr, "== %s seed %llu: %d cycles x %d segments of %.2f s%s "
               "==\n", opt.workload.c_str(),
               static_cast<unsigned long long>(opt.seed), cycles, per_cycle,
               seg_s, opt.trace ? ", alternately traced" : "");
  // Host speed reference: shared hosts drift, and this shows by how much.
  std::fprintf(stderr, "  unprotected model p50 %.3f ms\n",
               Percentile(ref.model_us, 0.5) / 1e3);

  util::Rng rng(opt.seed * 0x2545f4914f6cdd1dULL + 5);
  obs::TraceBuffer spans(
      opt.trace ? static_cast<size_t>(opt.seconds * kSpansPerSecond) : 1);
  std::vector<double> setup_s, offline_s, initialize_s, connect_us;
  std::vector<RegistryPhase> setup_phases;
  // Connect probes are spread over the cycles' deployments.
  const int probes = (kConnectProbes + cycles - 1) / cycles;
  double probe_rss_kb = 0, churn_rss_kb = 0;
  int churn_sessions = 0, stages = 0;
  Series<WireResult> closed[2];  // [traced]
  Series<StepResult> steps[2][3];  // [traced][step]
  size_t joined = 0;

  for (int c = 0; c < cycles; ++c) {
    const int traced = opt.trace ? c % 2 : 0;
    obs::TraceBuffer* cycle_spans = traced ? &spans : nullptr;
    RegistryPhase setup_phase;
    setup_phase.Begin();
    SetupTimes times;
    auto made = SetUp(w, model, opt.seed, &times);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<Deployment> d = std::move(*made);
    setup_phase.End();
    setup_phases.push_back(setup_phase);
    setup_s.push_back(times.total_s);
    offline_s.push_back(times.offline_s);
    initialize_s.push_back(times.initialize_s);
    stages = static_cast<int>(d->bundle.num_stages);
    if (!ConnectProbes(*d, open, probes, connect_us, &probe_rss_kb)) return 1;

    if (!open) {
      std::vector<std::unique_ptr<service::InferenceClient>> clients;
      for (int t = 0; w.burst == 0 && t < w.client_threads; ++t) {
        const int64_t c0 = util::NowNanos();
        auto client = d->Connect();
        if (!client.ok()) return 1;
        connect_us.push_back(static_cast<double>(util::NowNanos() - c0) / 1e3);
        clients.push_back(std::move(*client));
      }
      // Warm-up: pools, caches and lazily built state, outside the timing.
      RunWire(*d, w, ref, clients, kWarmupSeconds, opt.seed * 1000 + 500 + c,
              nullptr);
      RegistryPhase phase;
      phase.Begin();
      const double rss0 = ProcStatusKb("VmRSS");
      WireResult seg = RunWire(*d, w, ref, clients, seg_s,
                               opt.seed * 1000 + c, cycle_spans);
      const double rss1 = ProcStatusKb("VmRSS");
      phase.End();
      if (w.burst > 0) {
        // Traced cycles grow the span ring too: only untraced ones tell
        // what a churned session costs.
        if (!traced) {
          churn_rss_kb += rss1 - rss0;
          churn_sessions += seg.sessions;
        }
        Append(connect_us, seg.connect_us);
      }
      closed[traced].Add(seg, phase);
      for (auto& client : clients) client->Disconnect();
    } else {
      RunStep(*d->monitor, w, ref, w.rates_rps[0], kWarmupSeconds, rng,
              nullptr);
      for (int s = 0; s < 3; ++s) {
        RegistryPhase phase;
        phase.Begin();
        StepResult r = RunStep(*d->monitor, w, ref, w.rates_rps[s], seg_s,
                               rng, cycle_spans);
        phase.End();
        // Program rings hold 4096 spans each: join once per segment.
        if (traced) joined += JoinProgramSpans(r.roots, spans);
        steps[traced][s].Add(r, phase);
      }
    }
    d->Teardown();
  }
  // Interactive churns sessions under load; elsewhere the probes tell.
  const double rss_per_session_kb =
      churn_sessions > 0 ? churn_rss_kb / churn_sessions
                         : probe_rss_kb / (probes * cycles);

  Counts counts;
  Metrics e2e, layer;
  const int shown = opt.trace ? 1 : 0;  // the series the metrics describe
  double p50_of[2] = {0, 0};            // [traced] headline p50, us
  if (!open) {
    for (int t = 0; t <= shown; ++t) {
      const WireResult& r = closed[t].pooled;
      counts.Add(r.counts);
      p50_of[t] = Percentile(r.infer_us, 0.5);
      PrintCounts(t ? "traced" : "untraced", r.counts);
      std::fprintf(stderr,
                   "    %zu segments: p50 %.3f ms  p95 %.3f ms  p99 %.3f ms "
                   "(n = %zu)  %.1f req/s; sessions %d\n",
                   closed[t].phases.size(), Percentile(r.infer_us, 0.5) / 1e3,
                   Percentile(r.infer_us, 0.95) / 1e3,
                   Percentile(r.infer_us, 0.99) / 1e3, r.infer_us.size(),
                   static_cast<double>(r.counts.ok) / Seconds(r.wall_us),
                   r.sessions);
    }
    const WireResult& r = closed[shown].pooled;
    e2e.push_back({"latency_p50_ms", Percentile(r.infer_us, 0.5) / 1e3, "ms"});
    e2e.push_back(
        {"latency_p95_ms", Percentile(r.infer_us, 0.95) / 1e3, "ms"});
    e2e.push_back(
        {"latency_p99_ms", Percentile(r.infer_us, 0.99) / 1e3, "ms"});
    e2e.push_back({"throughput_rps",
                   static_cast<double>(r.counts.ok) / Seconds(r.wall_us),
                   "req/s"});
    if (opt.trace) {
      const RegistryPhase phase = RegistryPhase::Merge(closed[shown].phases);
      layer.push_back({"service.frontend_us",
                       Percentile(r.frontend_us, 0.5), "us"});
      LayerMetrics(phase, static_cast<double>(r.counts.ok), stages, layer);
      Ledger(phase, stages, Mean(r.infer_us), Mean(r.frontend_us), layer);
      SchedulerCounters(phase, "", layer);
    }
  } else {
    for (int t = 0; t <= shown; ++t) {
      for (int s = 0; s < 3; ++s) {
        const StepResult& r = steps[t][s].pooled;
        counts.Add(r.counts);
        PrintCounts((std::string(t ? "traced " : "") + kSteps[s]).c_str(),
                    r.counts);
        std::fprintf(stderr,
                     "    %6.1f req/s offered, %zu segments: p50 %.3f ms  "
                     "p99 %.3f ms (n = %zu)  ok %.1f req/s  goodput %.1f "
                     "req/s; generator lateness p99 %.0f us  max %.0f us\n",
                     w.rates_rps[s], steps[t][s].phases.size(),
                     Percentile(r.latency_us, 0.5) / 1e3,
                     Percentile(r.latency_us, 0.99) / 1e3, r.latency_us.size(),
                     static_cast<double>(r.counts.ok) / r.seconds,
                     static_cast<double>(r.on_time) / r.seconds,
                     Percentile(r.lateness_us, 0.99), Max(r.lateness_us));
      }
      p50_of[t] = Percentile(steps[t][1].pooled.latency_us, 0.5);
    }
    const Series<StepResult>* st = steps[shown];
    auto latency_ms = [&](int s, double q) {
      return Percentile(st[s].pooled.latency_us, q) / 1e3;
    };
    const StepResult& over = st[2].pooled;
    e2e.push_back({"latency_p50_ms", latency_ms(1, 0.5), "ms"});
    e2e.push_back({"latency_p95_ms", latency_ms(1, 0.95), "ms"});
    e2e.push_back({"latency_p99_ms", latency_ms(1, 0.99), "ms"});
    e2e.push_back({"throughput_rps",
                   static_cast<double>(over.counts.ok) / over.seconds,
                   "req/s"});
    e2e.push_back({"latency_p50_ms.low", latency_ms(0, 0.5), "ms"});
    e2e.push_back({"latency_p99_ms.low", latency_ms(0, 0.99), "ms"});
    e2e.push_back({"latency_p50_ms.knee", latency_ms(1, 0.5), "ms"});
    e2e.push_back({"latency_p99_ms.knee", latency_ms(1, 0.99), "ms"});
    e2e.push_back({"goodput_rps.over",
                   static_cast<double>(over.on_time) / over.seconds,
                   "req/s"});
    if (opt.trace) {
      std::fprintf(stderr, "  joined %zu requests to program spans\n", joined);
      std::vector<RegistryPhase> all;
      for (int s = 0; s < 3; ++s) {
        all.insert(all.end(), st[s].phases.begin(), st[s].phases.end());
      }
      const RegistryPhase knee = RegistryPhase::Merge(st[1].phases);
      layer.push_back({"service.frontend_us", 0.0, "us"});
      LayerMetrics(knee, static_cast<double>(st[1].pooled.counts.ok), stages,
                   layer);
      Ledger(knee, stages, Mean(st[1].pooled.latency_us),
             Mean(st[1].pooled.lateness_us), layer);
      SchedulerCounters(RegistryPhase::Merge(all), "", layer);
      for (int s = 0; s < 3; ++s) {
        SchedulerCounters(RegistryPhase::Merge(st[s].phases),
                          std::string(".") + kSteps[s], layer);
      }
    }
  }

  e2e.push_back({"connect_p50_ms", Percentile(connect_us, 0.5) / 1e3, "ms"});
  e2e.push_back({"setup_s", Percentile(setup_s, 0.5), "s"});
  e2e.push_back({"peak_rss_mb", ProcStatusKb("VmHWM") / 1024.0, "MB"});
  std::fprintf(stderr, "  set-up median %.4f s over %zu set-ups; connect p50 "
               "%.3f ms (n = %zu)\n", Percentile(setup_s, 0.5),
               setup_s.size(), Percentile(connect_us, 0.5) / 1e3,
               connect_us.size());

  if (opt.trace) {
    const RegistryPhase setup_phase = RegistryPhase::Merge(setup_phases);
    layer.push_back({"obs.trace_overhead_pct",
                     100.0 * (p50_of[1] - p50_of[0]) / p50_of[0], "%"});
    layer.push_back(
        {"service.connect_ms", Percentile(connect_us, 0.5) / 1e3, "ms"});
    layer.push_back(
        {"service.rss_per_session_kb", rss_per_session_kb, "kB"});
    layer.push_back({"setup.offline_s", Percentile(offline_s, 0.5), "s"});
    layer.push_back(
        {"setup.initialize_s", Percentile(initialize_s, 0.5), "s"});
    layer.push_back(
        {"host.spawn_us", setup_phase.Hist("host.spawn_us").p50, "us"});
    layer.push_back({"monitor.attest_us",
                     setup_phase.Hist("monitor.attest_us").p50, "us"});
    layer.push_back({"variant.bootstrap_us",
                     setup_phase.Hist("variant.bootstrap_us").p50, "us"});
    layer.push_back(
        {"runtime.model_ms", Percentile(ref.model_us, 0.5) / 1e3, "ms"});
    layer.push_back({"consistency.vote_us",
                     ProbeVoteUs(model, ref, w.monitor.check), "us"});
    double record_bytes = 0;
    for (const Metric& m : layer) {
      if (m.name == "channel.record_bytes") record_bytes = m.value;
    }
    layer.push_back({"crypto.gcm_MBps",
                     ProbeGcmMBps(static_cast<size_t>(record_bytes)), "MB/s"});
    const std::vector<obs::SpanRecord> kept = spans.Snapshot();
    PrintSelfTimes(kept);
    if (spans.total_recorded() > kept.size()) {
      std::fprintf(stderr, "  span ring wrapped: %llu oldest spans dropped\n",
                   static_cast<unsigned long long>(spans.total_recorded() -
                                                   kept.size()));
    }
    const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-spans.json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      const std::string json = spans.ToJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "  %zu spans written to %s\n", kept.size(),
                   path.c_str());
    }
  }
  PrintCounts("total", counts);

  const uint64_t failed = counts.errors + counts.wrong;
  std::printf("{\"sent\": %llu, \"ok\": %llu, \"failed\": %llu, "
              "\"wrong\": %llu, \"rejected\": %llu, \"expired\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(counts.sent),
              static_cast<unsigned long long>(counts.ok),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(counts.wrong),
              static_cast<unsigned long long>(counts.rejected),
              static_cast<unsigned long long>(counts.expired));
  const Metrics& out = opt.trace ? layer : e2e;
  for (size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", out[i].name.c_str(), out[i].value,
                out[i].unit);
  }
  std::printf("}}\n");
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
