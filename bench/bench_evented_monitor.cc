// Evented-monitor micro-benchmark: the blocking event loop and the
// digest prefilter on replicated 3-variant panels.
//
// One run of a pipelined deployment whose panels are byte-identical
// replicas: every pairwise check of every checkpoint vote must be
// decided by digest (monitor.full_checks = 0 and monitor.prefilter_hits
// = 2 per evaluated checkpoint, the greedy bloc vote's k - 1 checks),
// and the bench exits non-zero otherwise. Both are deterministic counts.
// The wait column shows the loop blocking on the transport WaitSet.
//
// The time the prefilter saves is reported, not gated: both core::Vote
// overloads are timed in-process on three identical output lists.
#include <chrono>

#include "bench/bench_common.h"

namespace mvtee::bench {
namespace {

double HistSum(const obs::RegistrySnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}

uint64_t HistCount(const obs::RegistrySnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : it->second.count;
}

uint64_t CounterOf(const obs::RegistrySnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

// Mean wall time of one call of `vote`, in microseconds; clears `ok` if
// any call fails to accept the first list's bloc.
template <typename F>
double MeanMicros(int iterations, bool* ok, F&& vote) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) {
    const core::VoteResult result = vote();
    if (!result.accepted || result.winner != 0) *ok = false;
  }
  const std::chrono::duration<double, std::micro> elapsed =
      std::chrono::steady_clock::now() - t0;
  return elapsed.count() / iterations;
}

// Both Vote overloads on three identical 64x16x16 output lists (a
// stage-boundary tensor); the summaries are computed once, as ingestion
// does. Returns whether every vote accepted.
bool ReportVoteRatio() {
  util::Rng rng(23);
  const std::vector<tensor::Tensor> outputs = {
      tensor::Tensor::RandomUniform(tensor::Shape({1, 64, 16, 16}), rng)};
  const std::vector<std::vector<tensor::Tensor>> list(3, outputs);
  const std::vector<core::OutputsSummary> sums(
      3, core::SummarizeOutputs(outputs));
  const core::CheckPolicy check = core::CheckPolicy::Cosine(0.995);
  const core::VotePolicy policy = core::VotePolicy::kMajority;
  const int kIterations = 2000;
  bool ok = true;
  const double plain_us = MeanMicros(
      kIterations, &ok, [&] { return core::Vote(list, check, policy); });
  const double digest_us = MeanMicros(
      kIterations, &ok, [&] { return core::Vote(list, sums, check, policy); });
  std::printf("core::Vote, 3 identical lists: element-wise %.2f us, "
              "by digest %.3f us (%.1fx)\n",
              plain_us, digest_us,
              digest_us > 0 ? plain_us / digest_us : 0.0);
  return ok;
}

int Main() {
  PrintFigureHeader("Evented monitor",
                    "Blocking WaitSet loop + digest prefilter on "
                    "replicated k=3 panels (pipelined)");

  const int kBatches = 12;
  graph::Graph model =
      graph::BuildModel(graph::ModelKind::kResNet50, BenchZooConfig());
  auto batches = MakeBatches(model, kBatches, 23);

  MvteeSetup setup;
  setup.partitions = 4;
  setup.seed = 23;
  setup.pool.replicated = true;  // byte-identical panel outputs
  setup.pool.variants_per_stage = 3;
  setup.pool.verify = false;
  setup.variant_counts = {3, 3, 3, 3};
  setup.monitor.vote = core::VotePolicy::kMajority;
  setup.monitor.reaction = core::ReactionPolicy::ContinueWithWinner();
  setup.host.network = transport::NetworkCostModel::TenGbE();

  auto bundle = BuildBenchBundle(model, setup);
  if (!bundle.ok()) {
    std::printf("offline failed: %s\n", bundle.status().ToString().c_str());
    return 1;
  }

  auto base = MetricsBaseline();
  auto out = RunMvtee(*bundle, setup, batches, /*pipelined=*/true);
  if (!out.ok()) {
    std::printf("run failed: %s\n", out.status().ToString().c_str());
    return 1;
  }
  auto delta = obs::Registry::Default().Snapshot().DeltaSince(base);
  const uint64_t checkpoints =
      CounterOf(delta, "monitor.checkpoints_evaluated");
  const uint64_t hits = CounterOf(delta, "monitor.prefilter_hits");
  const uint64_t full = CounterOf(delta, "monitor.full_checks");
  std::printf("%8s %8s | %10s %6s | %10s %6s | %11s %6s %6s\n", "tput b/s",
              "lat ms", "verify ms", "jobs", "wait ms", "waits",
              "checkpoints", "hits", "full");
  PrintRule();
  std::printf("%8.1f %8.2f | %10.2f %6llu | %10.2f %6llu | %11llu %6llu "
              "%6llu\n",
              out->throughput, out->mean_latency_ms,
              HistSum(delta, "monitor.verify_job_us") / 1000.0,
              static_cast<unsigned long long>(
                  HistCount(delta, "monitor.verify_job_us")),
              HistSum(delta, "monitor.wait_us") / 1000.0,
              static_cast<unsigned long long>(
                  HistCount(delta, "monitor.wait_us")),
              static_cast<unsigned long long>(checkpoints),
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(full));
  DumpMetricsJson("evented_monitor/replicated_k3", &base);
  PrintRule();
  const bool votes_ok = ReportVoteRatio();

  const bool gate = votes_ok && checkpoints > 0 && full == 0 &&
                    hits == 2 * checkpoints;
  std::printf("gate (full_checks = 0, prefilter_hits = 2 x checkpoints): "
              "%s\n",
              gate ? "pass" : "FAIL");
  return gate ? 0 : 1;
}

}  // namespace
}  // namespace mvtee::bench

int main() { return mvtee::bench::Main(); }
