#include "runtime/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>

#include "util/clock.h"

namespace mvtee::runtime {

using graph::Graph;
using graph::Node;
using graph::NodeId;
using graph::OpType;
using tensor::Tensor;

ExecutorConfig ReferenceExecutorConfig() {
  ExecutorConfig cfg;
  cfg.name = "reference";
  cfg.conv_algo = ConvAlgo::kDirect;
  cfg.gemm = GemmBackend::kNaive;
  return cfg;
}

ExecutorConfig OrtLikeExecutorConfig() {
  ExecutorConfig cfg;
  cfg.name = "ort";
  cfg.conv_algo = ConvAlgo::kIm2col;
  cfg.gemm = GemmBackend::kBlocked;
  cfg.fold_batch_norm = true;
  cfg.inplace_activations = true;
  return cfg;
}

ExecutorConfig TvmLikeExecutorConfig() {
  ExecutorConfig cfg;
  cfg.name = "tvm";
  cfg.conv_algo = ConvAlgo::kIm2col;
  cfg.gemm = GemmBackend::kTransposed;
  cfg.fold_batch_norm = true;
  cfg.inplace_activations = true;
  return cfg;
}

ExecutorConfig MklLikeExecutorConfig() {
  ExecutorConfig cfg;
  cfg.name = "mkl";
  cfg.conv_algo = ConvAlgo::kIm2col;
  // The vectorized library analog: FMA accumulation gives this preset a
  // fourth distinct rounding profile (fused multiply-adds round once per
  // step), bitwise different from all scalar backends yet numerically
  // close — exactly the diversity the threshold checks expect. Runtime
  // dispatch only swaps vector vs scalar-fmaf execution of the *same*
  // order, so host capability never changes this variant's outputs.
  cfg.gemm = GemmBackend::kAvx2;
  cfg.fold_batch_norm = true;
  cfg.inplace_activations = true;
  return cfg;
}

ExecutorConfig HardenedExecutorConfig() {
  ExecutorConfig cfg;
  cfg.name = "hardened";
  cfg.conv_algo = ConvAlgo::kIm2col;
  // Deliberately its own GEMM backend: presets must not share a
  // "library", or one library bug impacts several panel members at once.
  cfg.gemm = GemmBackend::kNaive;
  cfg.bounds_checked = true;
  cfg.slowdown_factor = 1.3;
  return cfg;
}

size_t FoldBatchNormPass(graph::Graph& g) {
  return FoldBatchNormPass(g, [](NodeId) { return true; });
}

size_t FoldBatchNormPass(graph::Graph& g,
                         const std::function<bool(NodeId)>& filter) {
  auto consumers = g.BuildConsumers();
  size_t folds = 0;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    Node& bn = g.node(id);
    if (bn.op != OpType::kBatchNorm) continue;
    if (!filter(id)) continue;
    NodeId conv_id = bn.inputs[0];
    Node& conv = g.node(conv_id);
    if (conv.op != OpType::kConv2d) continue;
    if (consumers[static_cast<size_t>(conv_id)].size() != 1) continue;

    // BN/conv params that are not graph initializers (or have the wrong
    // extents) cannot be folded — skip the fold, never crash, and never
    // mutate the graph before every operand has been validated.
    if (bn.weights.size() < 4 || conv.weights.empty()) continue;
    const Tensor* scale = g.FindInitializer(bn.weights[0]);
    const Tensor* bias = g.FindInitializer(bn.weights[1]);
    const Tensor* mean = g.FindInitializer(bn.weights[2]);
    const Tensor* var = g.FindInitializer(bn.weights[3]);
    Tensor* w = g.MutableInitializer(conv.weights[0]);
    if (scale == nullptr || bias == nullptr || mean == nullptr ||
        var == nullptr || w == nullptr) {
      continue;
    }
    const float eps = bn.attrs.GetFloat("epsilon", 1e-5f);
    if (w->shape().rank() < 1) continue;
    const int64_t oc = w->shape().dim(0);
    if (oc <= 0) continue;
    const int64_t per_oc = w->num_elements() / oc;
    if (scale->num_elements() != oc || bias->num_elements() != oc ||
        mean->num_elements() != oc || var->num_elements() != oc) {
      continue;
    }

    // Conv bias: create if absent; an existing bias that is not an
    // initializer (or mis-sized) also blocks the fold.
    std::string bias_name;
    Tensor* b = nullptr;
    if (conv.weights.size() >= 2) {
      bias_name = conv.weights[1];
      b = g.MutableInitializer(bias_name);
      if (b == nullptr || b->num_elements() != oc) continue;
    } else {
      bias_name = conv.name + ".folded_bias";
      g.AddInitializer(bias_name, Tensor(tensor::Shape({oc})));
      conv.weights.push_back(bias_name);
      b = g.MutableInitializer(bias_name);
    }

    for (int64_t c = 0; c < oc; ++c) {
      const float a = scale->at(c) / std::sqrt(var->at(c) + eps);
      const float shift = bias->at(c) - mean->at(c) * a;
      float* w_slice = w->data() + c * per_oc;
      for (int64_t i = 0; i < per_oc; ++i) w_slice[i] *= a;
      b->at(c) = b->at(c) * a + shift;
    }
    bn.op = OpType::kIdentity;
    bn.weights.clear();
    ++folds;
  }
  if (folds > 0) g.DropUnusedInitializers();
  return folds;
}

Executor::Executor(Graph graph, ExecutorConfig config,
                   const std::vector<tensor::Shape>& shapes)
    : graph_(std::move(graph)), config_(std::move(config)) {
  const size_t n = static_cast<size_t>(graph_.num_nodes());
  last_use_.assign(n, graph::kInvalidNode);
  for (const Node& node : graph_.nodes()) {
    for (NodeId in : node.inputs) {
      last_use_[static_cast<size_t>(in)] = node.id;
    }
  }
  is_output_.assign(n, false);
  for (NodeId out : graph_.outputs()) is_output_[static_cast<size_t>(out)] = true;
  // Only resolve instruments for op types this graph actually uses, so
  // the registry dump stays free of never-observed kernels.
  for (const Node& node : graph_.nodes()) {
    const auto op = static_cast<size_t>(node.op);
    if (op_us_[op] == nullptr) {
      op_us_[op] = &obs::Registry::Default().GetHistogram(
          "executor.op." + std::string(graph::OpTypeName(node.op)) + "_us");
    }
  }
  // Conv and FC operands, resolved once: the graph copy is frozen by
  // Create, so these pointers and the cached packs cannot go stale.
  operands_.resize(n);
  for (const Node& node : graph_.nodes()) {
    if (node.op != OpType::kConv2d && node.op != OpType::kGemm) continue;
    NodeOperands& op = operands_[static_cast<size_t>(node.id)];
    op.weight = graph_.FindInitializer(node.weights[0]);
    if (node.weights.size() >= 2) {
      op.bias = graph_.FindInitializer(node.weights[1]);
    }
    if (node.op == OpType::kConv2d) op.conv = ConvParamsOf(node);
  }
  // Pack constant operands once for this executor's backend. Honors
  // MVTEE_PACK_CACHE=0 (stays unbound; the hot path falls back to
  // per-call packing with bitwise-identical outputs).
  pack_cache_.Bind(graph_, shapes, config_.gemm, config_.conv_algo);
}

util::Result<std::unique_ptr<Executor>> Executor::Create(
    const Graph& graph, ExecutorConfig config) {
  MVTEE_RETURN_IF_ERROR(graph.Validate());
  // Passes change weights, not shapes.
  MVTEE_ASSIGN_OR_RETURN(const std::vector<tensor::Shape> shapes,
                         graph.InferShapes());
  Graph private_copy = graph;  // value copy; passes mutate it
  if (config.fold_batch_norm) FoldBatchNormPass(private_copy);
  // All weight-mutating passes have run; freeze before the weight
  // cache aliases initializer storage.
  private_copy.FreezeInitializers();
  return std::unique_ptr<Executor>(
      new Executor(std::move(private_copy), std::move(config), shapes));
}

util::Result<Tensor> Executor::ExecuteNode(
    const Node& node, std::vector<std::optional<Tensor>>& env) {
  auto in = [&](size_t i) -> const Tensor& {
    return *env[static_cast<size_t>(node.inputs[i])];
  };
  auto weight = [&](size_t i) -> const Tensor* {
    return graph_.FindInitializer(node.weights[i]);
  };

  switch (node.op) {
    case OpType::kInput:
      return util::Internal("input node executed");
    case OpType::kConv2d: {
      const NodeOperands& op = operands_[static_cast<size_t>(node.id)];
      if (config_.bounds_checked) {
        // Hardened path: validate operand extents before the kernel runs
        // (aborts on contract violation instead of corrupting memory),
        // and touch every element — modeling sanitizer instrumentation.
        const Tensor& x = in(0);
        MVTEE_CHECK(static_cast<int64_t>(x.storage_size()) ==
                    x.shape().num_elements());
        MVTEE_CHECK(static_cast<int64_t>(op.weight->storage_size()) ==
                    op.weight->shape().num_elements());
        float guard = 0.0f;
        for (int64_t i = 0; i < x.num_elements(); ++i) {
          guard = guard + x.data()[i] * 0.0f;
        }
        static thread_local volatile float g_guard_sink [[maybe_unused]];
        g_guard_sink = guard;
      }
      return Conv2d(in(0), *op.weight, op.bias, op.conv, config_.conv_algo,
                    config_.gemm, pack_cache_.FindConv(node.id));
    }
    case OpType::kGemm: {
      const NodeOperands& op = operands_[static_cast<size_t>(node.id)];
      return FullyConnected(in(0), *op.weight, op.bias, config_.gemm,
                            pack_cache_.FindGemm(node.id));
    }
    case OpType::kRelu: return Relu(in(0));
    case OpType::kRelu6: return Relu6(in(0));
    case OpType::kSigmoid: return Sigmoid(in(0));
    case OpType::kHardSwish: return HardSwish(in(0));
    case OpType::kTanh: return Tanh(in(0));
    case OpType::kMaxPool:
      return MaxPool(in(0), node.attrs.GetInt("kernel", 2),
                     node.attrs.GetInt("stride", 2),
                     node.attrs.GetInt("padding", 0));
    case OpType::kAvgPool:
      return AvgPool(in(0), node.attrs.GetInt("kernel", 2),
                     node.attrs.GetInt("stride", 2),
                     node.attrs.GetInt("padding", 0));
    case OpType::kGlobalAvgPool: return GlobalAvgPool(in(0));
    case OpType::kBatchNorm:
      return BatchNorm(in(0), *weight(0), *weight(1), *weight(2), *weight(3),
                       node.attrs.GetFloat("epsilon", 1e-5f));
    case OpType::kAdd: return Add(in(0), in(1));
    case OpType::kMul: return Mul(in(0), in(1));
    case OpType::kConcat: {
      std::vector<const Tensor*> xs;
      xs.reserve(node.inputs.size());
      for (size_t i = 0; i < node.inputs.size(); ++i) xs.push_back(&in(i));
      return Concat(xs);
    }
    case OpType::kFlatten: return Flatten(in(0));
    case OpType::kSoftmax: return Softmax(in(0));
    case OpType::kIdentity: return Tensor(in(0));
    case OpType::kScale:
      return Scale(in(0), node.attrs.GetFloat("alpha", 1.0f),
                   node.attrs.GetFloat("beta", 0.0f));
    case OpType::kReshape: {
      std::vector<int64_t> dims = node.attrs.GetInts("dims");
      const int64_t total = in(0).num_elements();
      int64_t known = 1;
      int infer = -1;
      for (size_t i = 0; i < dims.size(); ++i) {
        if (dims[i] == -1) {
          if (infer >= 0) {
            return util::InvalidArgument(
                "reshape: more than one -1 (inferred) dim");
          }
          infer = static_cast<int>(i);
        } else if (dims[i] <= 0) {
          return util::InvalidArgument("reshape: non-positive dim " +
                                       std::to_string(dims[i]));
        } else {
          known *= dims[i];
        }
      }
      if (infer >= 0) {
        if (known <= 0 || total % known != 0) {
          return util::InvalidArgument(
              "reshape: cannot infer -1 dim (" + std::to_string(total) +
              " elements not divisible by " + std::to_string(known) + ")");
        }
        dims[static_cast<size_t>(infer)] = total / known;
        known = total;
      }
      if (known != total) {
        return util::InvalidArgument(
            "reshape: dims product " + std::to_string(known) +
            " != input element count " + std::to_string(total));
      }
      // Reshape is a metadata change: steal the buffer when the input
      // dies at this node instead of copying it.
      const NodeId src = node.inputs[0];
      if (last_use_[static_cast<size_t>(src)] == node.id &&
          !is_output_[static_cast<size_t>(src)]) {
        Tensor stolen = std::move(*env[static_cast<size_t>(src)]);
        env[static_cast<size_t>(src)].reset();
        return Tensor::Reshape(std::move(stolen),
                               tensor::Shape(std::move(dims)));
      }
      return Tensor::Reshape(in(0), tensor::Shape(std::move(dims)));
    }
  }
  return util::Internal("unknown op");
}

util::Result<std::vector<Tensor>> Executor::Run(
    const std::vector<Tensor>& inputs) {
  const auto start = std::chrono::steady_clock::now();
  // Parents under the caller's live span (variant/infer inside a TEE)
  // through the thread's trace context.
  obs::ScopedSpan run_span("executor/run", {.tag = config_.name}, trace_);

  if (inputs.size() != graph_.inputs().size()) {
    return util::InvalidArgument("expected " +
                                 std::to_string(graph_.inputs().size()) +
                                 " inputs, got " +
                                 std::to_string(inputs.size()));
  }
  std::vector<std::optional<Tensor>> env(
      static_cast<size_t>(graph_.num_nodes()));
  for (size_t i = 0; i < inputs.size(); ++i) {
    NodeId id = graph_.inputs()[i];
    if (inputs[i].shape() != graph_.input_shape(id)) {
      return util::InvalidArgument(
          "input shape mismatch: got " + inputs[i].shape().ToString() +
          " want " + graph_.input_shape(id).ToString());
    }
    env[static_cast<size_t>(id)] = inputs[i];
  }

  // executor.op.<Op>_us without a thread-CPU read per op: the loop's
  // thread CPU is read once at each end and split across the ops by
  // their steady-clock share (DESIGN.md §6).
  std::vector<int64_t> op_end_ns;
  op_end_ns.reserve(env.size());
  const int64_t cpu0 = util::ThreadCpuNanos();
  const int64_t wall0 = util::NowNanos();
  const util::Status loop = [&]() -> util::Status {
    for (const Node& node : graph_.nodes()) {
      if (node.op == OpType::kInput) continue;
      if (fault_hook_) {
        MVTEE_RETURN_IF_ERROR(fault_hook_->OnNodeStart(node));
      }

      // In-place / move fast path for unary ops whose input dies here.
      const bool input_dies =
          node.inputs.size() == 1 &&
          last_use_[static_cast<size_t>(node.inputs[0])] == node.id &&
          !is_output_[static_cast<size_t>(node.inputs[0])];
      if (config_.inplace_activations && input_dies &&
          (node.op == OpType::kRelu || node.op == OpType::kRelu6 ||
           node.op == OpType::kHardSwish || node.op == OpType::kIdentity)) {
        Tensor t = std::move(*env[static_cast<size_t>(node.inputs[0])]);
        env[static_cast<size_t>(node.inputs[0])].reset();
        float* d = t.data();
        // Same dispatched primitives the copying kernels use (AVX2 tier
        // with bitwise-identical scalar fallback), applied in place.
        switch (node.op) {
          case OpType::kRelu:
            elementwise::Relu(d, d, t.num_elements());
            break;
          case OpType::kRelu6:
            elementwise::Relu6(d, d, t.num_elements());
            break;
          case OpType::kHardSwish:
            elementwise::HardSwish(d, d, t.num_elements());
            break;
          default:
            break;
        }
        if (fault_hook_) fault_hook_->OnNodeComplete(node, t);
        env[static_cast<size_t>(node.id)] = std::move(t);
      } else {
        MVTEE_ASSIGN_OR_RETURN(Tensor out, ExecuteNode(node, env));
        if (fault_hook_) fault_hook_->OnNodeComplete(node, out);
        env[static_cast<size_t>(node.id)] = std::move(out);
      }

      // Reclaim buffers whose last consumer was this node.
      for (NodeId in : node.inputs) {
        if (last_use_[static_cast<size_t>(in)] == node.id &&
            !is_output_[static_cast<size_t>(in)]) {
          env[static_cast<size_t>(in)].reset();
        }
      }
      op_end_ns.push_back(util::NowNanos());
    }
    return util::OkStatus();
  }();
  // A completed loop ends at its last op boundary. A failed one ends
  // now, so the failed op's share of the CPU is observed by no op.
  const int64_t wall1 =
      loop.ok() && !op_end_ns.empty() ? op_end_ns.back() : util::NowNanos();
  ObserveOpCpu(util::ThreadCpuNanos() - cpu0, wall0, wall1, op_end_ns);
  MVTEE_RETURN_IF_ERROR(loop);

  // env dies with this call, so outputs move out of it; only a node
  // listed again later in outputs() is copied, to keep its value for
  // the later listing.
  const std::vector<NodeId>& out_ids = graph_.outputs();
  std::vector<Tensor> outputs;
  outputs.reserve(out_ids.size());
  for (auto it = out_ids.begin(); it != out_ids.end(); ++it) {
    std::optional<Tensor>& slot = env[static_cast<size_t>(*it)];
    if (!slot.has_value()) return util::Internal("output not computed");
    if (std::find(it + 1, out_ids.end(), *it) != out_ids.end()) {
      outputs.push_back(*slot);
    } else {
      outputs.push_back(std::move(*slot));
    }
  }

  if (config_.slowdown_factor > 1.0) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    std::this_thread::sleep_for(elapsed * (config_.slowdown_factor - 1.0));
  }
  return outputs;
}

// Cumulative rounding: with C the loop's CPU, W its wall span and S_i
// the wall offset of op i's end, op i observes round(C·S_i/W) −
// round(C·S_{i−1}/W) µs. Values are >= 0 and telescope, so one Run's
// values sum to C in whole µs when S_n = W (a completed loop).
void Executor::ObserveOpCpu(int64_t cpu_ns, int64_t wall0, int64_t wall1,
                            const std::vector<int64_t>& op_end_ns) const {
  const __int128 span = std::max<int64_t>(wall1 - wall0, 1);
  size_t i = 0;
  int64_t prev_us = 0;
  for (const Node& node : graph_.nodes()) {
    if (i == op_end_ns.size()) break;
    if (node.op == OpType::kInput) continue;
    const __int128 offset = op_end_ns[i++] - wall0;
    const auto cum_us =
        static_cast<int64_t>((cpu_ns * offset + span * 500) / (span * 1000));
    op_us_[static_cast<size_t>(node.op)]->Observe(cum_us - prev_us);
    prev_us = cum_us;
  }
}

}  // namespace mvtee::runtime
