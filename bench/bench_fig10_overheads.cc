// Figure 10: encryption and checkpointing overheads.
//
// 5-partition setup. Baseline: no encryption, full fast path (direct
// variant-to-variant forwarding). "+enc" adds AES-GCM-256 record
// protection on every boundary. "+enc+ckpt" additionally forces the full
// slow path: all traffic detours through the monitor, which suspends at
// every checkpoint and evaluates outputs before forwarding (extra
// variant-monitor transmissions + crypto + verification).
//
// Paper shape: combined overhead 13.6%-50.7% sequential and larger
// (50.4%-93.6%) relative share in pipelined mode; more impactful on the
// small models (MobileNet, MnasNet); the fast path recovers a large part
// of the checkpointing cost.
#include "bench/bench_common.h"

namespace mvtee::bench {
namespace {

int Main() {
  PrintFigureHeader("Figure 10",
                    "Encryption and checkpoint overheads (5 partitions)");
  std::printf("%-16s %4s | %9s %9s %9s | %9s %9s %9s\n", "model", "mode",
              "base b/s", "+enc", "+enc+ckpt", "overhead", "enc part",
              "ckpt part");
  PrintRule();

  const int kBatches = 20;
  for (auto kind : graph::AllModels()) {
    graph::Graph model = graph::BuildModel(kind, BenchZooConfig());
    auto batches = MakeBatches(model, kBatches, 9);

    // A: no encryption, full fast path (direct).
    MvteeSetup plain = FundamentalSetup(5);
    plain.host.plaintext_channels = true;
    // B: encrypted, full fast path.
    MvteeSetup enc = FundamentalSetup(5);
    // C: encrypted, full slow path (monitor-mediated + verification).
    MvteeSetup ckpt = FundamentalSetup(5);
    ckpt.monitor.direct_fastpath = false;
    ckpt.monitor.verify_fast_path = true;

    auto bundle = BuildBenchBundle(model, plain);
    if (!bundle.ok()) continue;

    for (bool pipelined : {false, true}) {
      auto a = RunMvtee(*bundle, plain, batches, pipelined);
      auto b = RunMvtee(*bundle, enc, batches, pipelined);
      // Metrics dump for the fully protected run: the delta isolates its
      // per-stage checkpoint-verify (monitor.stageN.verify_us), crypto
      // (modeled model.stageN.crypto_us; measured channel.seal_us/open_us)
      // and modeled wire (model.stageN.wire_us) breakdowns.
      const auto metrics_base = MetricsBaseline();
      auto c = RunMvtee(*bundle, ckpt, batches, pipelined);
      if (c.ok()) {
        DumpMetricsJson(std::string(graph::ModelName(kind)) + "/" +
                            (pipelined ? "pipe" : "seq") + "/enc+ckpt",
                        &metrics_base);
      }
      if (!a.ok() || !b.ok() || !c.ok()) {
        std::printf("%-16s %4s | run failed\n",
                    std::string(graph::ModelName(kind)).c_str(),
                    pipelined ? "pipe" : "seq");
        continue;
      }
      const double overhead = 1.0 - c->throughput / a->throughput;
      const double enc_part = 1.0 - b->throughput / a->throughput;
      const double ckpt_part = overhead - enc_part;
      std::printf(
          "%-16s %4s | %9.1f %8.1f %9.1f | %8.1f%% %8.1f%% %8.1f%%\n",
          std::string(graph::ModelName(kind)).c_str(),
          pipelined ? "pipe" : "seq", a->throughput, b->throughput,
          c->throughput, overhead * 100, enc_part * 100, ckpt_part * 100);
    }
  }
  PrintRule();
  std::printf(
      "overhead = 1 - (enc+ckpt)/baseline; paper: 13.6%%-50.7%% seq, "
      "50.4%%-93.6%% pipelined.\n");
  return 0;
}

}  // namespace
}  // namespace mvtee::bench

int main() { return mvtee::bench::Main(); }
