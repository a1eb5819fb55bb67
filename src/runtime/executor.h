// Inference executors over graph::Graph.
//
// One Executor ≈ one "inference instance" in the paper's terms: the
// combination of runtime lowering (BN folding, in-place activations),
// conv algorithm, GEMM backend, and hardening flags defines the
// instance-level diversity of a variant. Three presets mirror the
// paper's runtimes: "reference" (un-optimized interpreter), "ort"
// (ONNX-Runtime-like optimized CPU EP) and "tvm" (compiler-style tiled
// lowering).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "graph/ir.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/kernels.h"
#include "runtime/pack_cache.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace mvtee::runtime {

struct ExecutorConfig {
  std::string name = "reference";
  ConvAlgo conv_algo = ConvAlgo::kDirect;
  GemmBackend gemm = GemmBackend::kNaive;
  bool fold_batch_norm = false;    // graph-level optimization pass
  bool inplace_activations = false;
  bool bounds_checked = false;     // sanitizer-style hardened kernels
  // Simulated cost multiplier for heavy diversification (e.g. a variant
  // compiled with expensive instrumentation). 1.0 = none.
  double slowdown_factor = 1.0;
};

// Well-known presets (instance-level diversification axes).
ExecutorConfig ReferenceExecutorConfig();
ExecutorConfig OrtLikeExecutorConfig();      // optimized: fold + fuse + blocked
ExecutorConfig TvmLikeExecutorConfig();      // tiled/compiled: transposed GEMM
ExecutorConfig HardenedExecutorConfig();     // bounds-checked, slower
ExecutorConfig MklLikeExecutorConfig();      // vectorized: AVX2/FMA packed panels

// Fault hook: the seam where the fault-injection substrate attaches.
// Production variants run with no hook installed.
class FaultHook {
 public:
  virtual ~FaultHook() = default;
  // Called when the hook is attached; lets backend-targeted faults (a
  // bug in one BLAS library, a sanitizer that traps) see which code
  // paths this variant actually runs.
  virtual void OnAttach(const ExecutorConfig& config) { (void)config; }
  // Before node execution; a non-OK status models a crash / trapped
  // exploit inside this variant (DoS-style CVE classes).
  virtual util::Status OnNodeStart(const graph::Node& node) {
    (void)node;
    return util::OkStatus();
  }
  // After node execution; the hook may silently corrupt the output
  // (bit-flip / data-corruption fault classes).
  virtual void OnNodeComplete(const graph::Node& node, tensor::Tensor& out) {
    (void)node;
    (void)out;
  }
};

class Executor {
 public:
  // Validates and shape-infers the graph; applies config-driven passes
  // (BN folding) to a private copy.
  static util::Result<std::unique_ptr<Executor>> Create(
      const graph::Graph& graph, ExecutorConfig config);

  // Runs one inference. `inputs` are bound to graph inputs in order;
  // returns tensors for the graph outputs in order.
  util::Result<std::vector<tensor::Tensor>> Run(
      const std::vector<tensor::Tensor>& inputs);

  void SetFaultHook(std::shared_ptr<FaultHook> hook) {
    fault_hook_ = std::move(hook);
    if (fault_hook_) fault_hook_->OnAttach(config_);
  }

  // Ring buffer Run() records its "executor/run" span into. Defaults to
  // the process-wide buffer; a variant TEE points it at its own per-TEE
  // ring so the merged timeline attributes executor work to the right
  // "process" (DESIGN.md §8).
  void SetTraceBuffer(obs::TraceBuffer* buffer) { trace_ = buffer; }

  const ExecutorConfig& config() const { return config_; }
  const graph::Graph& graph() const { return graph_; }
  // Prepacked constant-weight cache bound to this executor's frozen
  // graph copy (pack.{hits,misses,bytes} in the default registry).
  const PackedWeightCache& pack_cache() const { return pack_cache_; }

 private:
  // `shapes`: the graph's inferred shapes, indexed by node id.
  Executor(graph::Graph graph, ExecutorConfig config,
           const std::vector<tensor::Shape>& shapes);

  util::Result<tensor::Tensor> ExecuteNode(
      const graph::Node& node, std::vector<std::optional<tensor::Tensor>>& env);

  // Observes one value per completed op: the op loop's thread CPU
  // `cpu_ns`, split by each op's share of the loop's steady-clock span
  // [wall0, wall1]. `op_end_ns[i]` is when the i-th executed op ended.
  void ObserveOpCpu(int64_t cpu_ns, int64_t wall0, int64_t wall1,
                    const std::vector<int64_t>& op_end_ns) const;

  // A conv's or FC's initializers and conv params, resolved at
  // construction so ExecuteNode looks up no attribute or name for them.
  struct NodeOperands {
    const tensor::Tensor* weight = nullptr;
    const tensor::Tensor* bias = nullptr;
    ConvParams conv;
  };

  graph::Graph graph_;
  ExecutorConfig config_;
  std::vector<NodeOperands> operands_;  // indexed by node id
  PackedWeightCache pack_cache_;
  std::shared_ptr<FaultHook> fault_hook_;
  obs::TraceBuffer* trace_ = &obs::TraceBuffer::Default();
  // Per-op-type thread-CPU histograms ("executor.op.<Name>_us" in the
  // default registry), indexed by OpType and resolved at construction.
  static constexpr size_t kNumOpTypes =
      static_cast<size_t>(graph::OpType::kReshape) + 1;
  std::array<obs::Histogram*, kNumOpTypes> op_us_{};
  // Per-node index of its last consumer in topological order (for buffer
  // reclamation).
  std::vector<graph::NodeId> last_use_;
  std::vector<bool> is_output_;
};

// Folds inference-mode BatchNorm into a directly preceding Conv2d when
// the conv's only consumer is the BN (the BN node becomes Identity).
// Returns the number of folds applied. Exposed for the variant
// generator's "selective optimization" diversification. The filtered
// overload folds only BN nodes for which `filter(bn_id)` is true.
size_t FoldBatchNormPass(graph::Graph& graph);
size_t FoldBatchNormPass(graph::Graph& graph,
                         const std::function<bool(graph::NodeId)>& filter);

}  // namespace mvtee::runtime
