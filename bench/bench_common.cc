#include "bench/bench_common.h"

#include <cstdlib>

#include "obs/exporters.h"

namespace mvtee::bench {

using tensor::Shape;
using tensor::Tensor;

graph::ZooConfig BenchZooConfig() {
  graph::ZooConfig cfg;
  cfg.input_hw = 32;      // paper: 224 (scaled, see DESIGN.md §2)
  cfg.width_mult = 0.25;  // channel scaling
  cfg.depth_mult = 0.34;  // block-repeat scaling
  cfg.num_classes = 100;
  return cfg;
}

std::vector<std::vector<Tensor>> MakeBatches(const graph::Graph& model,
                                             int count, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<Tensor>> batches;
  batches.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::vector<Tensor> inputs;
    for (graph::NodeId in : model.inputs()) {
      inputs.push_back(
          Tensor::RandomUniform(model.input_shape(in), rng, -1.0f, 1.0f));
    }
    batches.push_back(std::move(inputs));
  }
  return batches;
}

Outcome RunBaseline(const graph::Graph& model,
                    const std::vector<std::vector<Tensor>>& batches) {
  auto exec =
      runtime::Executor::Create(model, runtime::OrtLikeExecutorConfig());
  MVTEE_CHECK(exec.ok());
  // Warm-up run (paper: "we perform warmup runs").
  (void)(*exec)->Run(batches[0]);

  // Thread-CPU time for comparability with the virtual-time model (on
  // the 1-core simulation host, wall time includes scheduler noise).
  Outcome outcome;
  const int64_t start = util::ThreadCpuMicros();
  int64_t latency_total = 0;
  for (const auto& batch : batches) {
    const int64_t t0 = util::ThreadCpuMicros();
    auto out = (*exec)->Run(batch);
    MVTEE_CHECK(out.ok());
    latency_total += util::ThreadCpuMicros() - t0;
  }
  const int64_t wall = util::ThreadCpuMicros() - start;
  outcome.throughput =
      static_cast<double>(batches.size()) * 1e6 / static_cast<double>(wall);
  outcome.mean_latency_ms = static_cast<double>(latency_total) /
                            static_cast<double>(batches.size()) / 1000.0;
  return outcome;
}

MvteeSetup FundamentalSetup(int partitions, uint64_t seed) {
  MvteeSetup setup;
  setup.partitions = partitions;
  setup.seed = seed;
  setup.pool.replicated = true;
  setup.pool.variants_per_stage = 1;  // raise for selective-MVX benches
  setup.pool.verify = false;
  setup.monitor.direct_fastpath = true;
  setup.monitor.check = core::CheckPolicy::Cosine(0.99);
  setup.host.network = transport::NetworkCostModel::TenGbE();
  return setup;
}

util::Result<core::OfflineBundle> BuildBenchBundle(const graph::Graph& model,
                                                   const MvteeSetup& setup) {
  core::OfflineOptions offline;
  offline.num_partitions = setup.partitions;
  offline.partition_seed = setup.seed;
  offline.key_seed = setup.seed + 1;
  offline.pool = setup.pool;
  offline.pool.seed = setup.seed + 2;
  return core::RunOfflineTool(model, offline);
}

util::Result<Outcome> RunMvtee(
    const core::OfflineBundle& bundle, const MvteeSetup& setup,
    const std::vector<std::vector<Tensor>>& batches, bool pipelined) {
  tee::SimulatedCpu cpu{
      tee::SimulatedCpu::Options{.hardware_key_seed = setup.seed + 3}};
  core::VariantHost host(&cpu, bundle.store, setup.host);
  MVTEE_ASSIGN_OR_RETURN(auto monitor,
                         core::Monitor::Create(&cpu, setup.monitor));

  core::MvxSelection selection;
  if (!setup.explicit_selection.empty()) {
    selection.stage_variant_ids = setup.explicit_selection;
  } else if (!setup.variant_counts.empty()) {
    selection = core::MvxSelection::PerStage(bundle, setup.variant_counts);
  } else {
    selection = core::MvxSelection::Uniform(bundle, 1);
  }
  MVTEE_RETURN_IF_ERROR(monitor->Initialize(bundle, selection, host));

  // Warm-up batch, consumed so it never pollutes the measured run.
  MVTEE_RETURN_IF_ERROR(core::RunBatches(*monitor, {batches[0]}).status());
  (void)monitor->ConsumeStats();

  Outcome outcome;
  MVTEE_RETURN_IF_ERROR(
      core::RunBatches(*monitor, batches, pipelined).status());
  outcome.stats = monitor->ConsumeStats();
  outcome.throughput = outcome.stats.ThroughputPerSec();
  outcome.mean_latency_ms = outcome.stats.MeanLatencyUs() / 1000.0;

  MVTEE_RETURN_IF_ERROR(monitor->Shutdown());
  host.JoinAll();
  return outcome;
}

obs::RegistrySnapshot MetricsBaseline() {
  // Pull the util-side pool/copy counters in before snapshotting so
  // baseline and dump see consistent data-plane numbers.
  obs::SyncDataPlaneMetrics();
  return obs::Registry::Default().Snapshot();
}

void DumpMetricsJson(const std::string& label,
                     const obs::RegistrySnapshot* base) {
  obs::SyncDataPlaneMetrics();
  obs::RegistrySnapshot snap = obs::Registry::Default().Snapshot();
  if (base != nullptr) snap = snap.DeltaSince(*base);
  // JSONL schema — one self-contained object per line:
  //   {"label": "<bench label>",
  //    "metrics": {"counters": {name: u64, ...},
  //                "gauges": {name: i64, ...},
  //                "histograms": {name: {count, sum, min, max,
  //                                      p50, p95, p99}, ...}}}
  // When `base` was given, metrics are the delta since that snapshot.
  const std::string json = snap.ToJson(0);
  const char* path = std::getenv("MVTEE_METRICS_JSON");
  if (path != nullptr && path[0] != '\0') {
    // Opened once per process and line-buffered: each dump is appended
    // as one atomic-enough write() per line, so interleaved bench
    // phases (or a crashed run) never leave a torn record behind.
    static std::FILE* f = [] {
      std::FILE* file = std::fopen(std::getenv("MVTEE_METRICS_JSON"), "a");
      if (file != nullptr) setvbuf(file, nullptr, _IOLBF, 1 << 16);
      return file;
    }();
    if (f != nullptr) {
      std::fprintf(f, "{\"label\": \"%s\", \"metrics\": %s}\n", label.c_str(),
                   json.c_str());
      return;
    }
  }
  std::printf("metrics[%s] = %s\n", label.c_str(), json.c_str());
}

void PrintFigureHeader(const std::string& figure,
                       const std::string& description) {
  // Every bench honors MVTEE_TRACE_JSON / MVTEE_PROM_TEXT: register the
  // exit-time exporter dumps once, on the first figure header.
  obs::InstallExitDumps();
  std::printf("\n");
  PrintRule();
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  PrintRule();
}

void PrintRule() {
  std::printf(
      "--------------------------------------------------------------------"
      "----------\n");
}

}  // namespace mvtee::bench
