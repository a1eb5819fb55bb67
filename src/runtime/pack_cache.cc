#include "runtime/pack_cache.h"

#include <atomic>

#include "obs/metrics.h"
#include "util/buffer_pool.h"
#include "util/knobs.h"

namespace mvtee::runtime {

namespace {

std::atomic<bool> g_disable_pack_cache{false};

obs::Counter& PackHits() {
  static obs::Counter& c = obs::Registry::Default().GetCounter("pack.hits");
  return c;
}

obs::Counter& PackMisses() {
  static obs::Counter& c = obs::Registry::Default().GetCounter("pack.misses");
  return c;
}

obs::Gauge& PackBytes() {
  static obs::Gauge& g = obs::Registry::Default().GetGauge("pack.bytes");
  return g;
}

}  // namespace

bool PackedWeightCache::EnabledFromEnv() {
  // Latched once like MVTEE_SIMD: the knob decides a process-lifetime
  // policy, and re-reading the environment per bind would let the
  // table's strict parse be bypassed mid-run.
  static const bool enabled =
      util::KnobRegistry::Default().Int("MVTEE_PACK_CACHE") != 0;
  return enabled;
}

bool PackCacheEnabled() {
  return PackedWeightCache::EnabledFromEnv() &&
         !g_disable_pack_cache.load(std::memory_order_relaxed);
}

PackedWeightCache::~PackedWeightCache() {
  if (packed_bytes_ > 0) {
    PackBytes().Add(-static_cast<int64_t>(packed_bytes_));
  }
}

void PackedWeightCache::Bind(const graph::Graph& graph,
                             const std::vector<tensor::Shape>& shapes,
                             GemmBackend backend, ConvAlgo algo) {
  MVTEE_CHECK(!bound_ && nodes_.empty());
  MVTEE_CHECK(shapes.size() == static_cast<size_t>(graph.num_nodes()));
  const bool pack = EnabledFromEnv();
  util::BufferPool& pool = util::BufferPool::Default();
  nodes_.resize(shapes.size());
  for (const graph::Node& node : graph.nodes()) {
    if (node.weights.empty()) continue;
    const tensor::Tensor* w = graph.FindInitializer(node.weights[0]);
    if (w == nullptr) continue;
    Entry& entry = nodes_[static_cast<size_t>(node.id)];
    if (node.op == graph::OpType::kGemm && w->shape().rank() == 2) {
      const int64_t out = w->shape().dim(0), in = w->shape().dim(1);
      if (out <= 0 || in <= 0) continue;
      entry.packable = true;
      if (!pack) continue;
      entry.gemm = PackGemmWeightTransposed(backend, w->data(), out, in, &pool);
      packed_bytes_ += entry.gemm.bytes();
      ++entries_;
    } else if (node.op == graph::OpType::kConv2d) {
      const tensor::Shape& y = shapes[static_cast<size_t>(node.id)];
      if (y.rank() != 4) continue;
      const std::optional<ConvPackLayout> layout = ConvPackLayoutFor(
          w->shape(), ConvParamsOf(node), algo, backend, y.dim(2) * y.dim(3));
      if (!layout) continue;
      entry.packable = true;
      if (!pack) continue;
      entry.conv = PackConvWeight(*w, *layout, &pool);
      packed_bytes_ += entry.conv.bytes();
      ++entries_;
    }
  }
  if (packed_bytes_ > 0) {
    PackBytes().Add(static_cast<int64_t>(packed_bytes_));
  }
  bound_ = pack;
}

template <typename T>
const T* PackedWeightCache::Serve(graph::NodeId node,
                                  T Entry::*operand) const {
  const auto i = static_cast<size_t>(node);
  if (i >= nodes_.size() || !nodes_[i].packable) return nullptr;
  if (!bound_ || !PackCacheEnabled()) {
    PackMisses().Add();
    return nullptr;
  }
  PackHits().Add();
  return &(nodes_[i].*operand);
}

const PackedGemmB* PackedWeightCache::FindGemm(graph::NodeId node) const {
  return Serve(node, &Entry::gemm);
}

const PackedConvWeight* PackedWeightCache::FindConv(graph::NodeId node) const {
  return Serve(node, &Entry::conv);
}

ScopedDisablePackCache::ScopedDisablePackCache() {
  g_disable_pack_cache.store(true, std::memory_order_relaxed);
}

ScopedDisablePackCache::~ScopedDisablePackCache() {
  g_disable_pack_cache.store(false, std::memory_order_relaxed);
}

}  // namespace mvtee::runtime
