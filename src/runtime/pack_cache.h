// Executor-owned cache of prepacked constant operands.
//
// Model weights never change between requests, yet without this cache
// the hot path repays a per-call setup tax on every inference:
// FullyConnected transposes W, kTransposed re-transposes B, kAvx2
// re-packs its 16-column panels, and the narrow-map conv paths re-derive
// their weight layouts. PackedWeightCache performs that work exactly
// once at model bind time and stores each operand in a util::BufferPool
// keepalive chunk:
//   - every kGemm weight, in its backend's hot-path layout
//     (PackGemmWeightTransposed);
//   - every kConv2d weight whose conv reads a packed layout
//     (ConvPackLayoutFor): kBlocked's 8-row panels for groups == 1
//     convs with fewer than 8 output pixels, and the lane-interleaved
//     weights of the depthwise loop for kBlocked and kTransposed.
// Other conv weights are read from the initializer as is and have no
// entry. Entries are indexed by node id in the executor's private,
// frozen graph copy (Graph::FreezeInitializers guarantees the cached
// bytes can never go stale), so a lookup is an index, not a name.
//
// Knob: MVTEE_PACK_CACHE=0 (strict KnobRegistry row) disables packing;
// ScopedDisablePackCache forces cache-off lookups process-wide for A/B
// tests. Outputs are bitwise identical either way — packing only
// relocates values, never reorders accumulation.
//
// Instruments (obs default registry, exported via /status and
// Prometheus): pack.hits / pack.misses per lookup of a node that has a
// packed operand (served / unbound or disabled), pack.bytes for the
// bytes currently held by live caches.
#pragma once

#include <vector>

#include "graph/ir.h"
#include "runtime/gemm.h"
#include "runtime/kernels.h"

namespace mvtee::runtime {

class PackedWeightCache {
 public:
  PackedWeightCache() = default;
  ~PackedWeightCache();
  PackedWeightCache(const PackedWeightCache&) = delete;
  PackedWeightCache& operator=(const PackedWeightCache&) = delete;

  // Finds the nodes of `graph` whose hot path reads a packed operand
  // under `backend` and `algo`, and packs those operands unless
  // MVTEE_PACK_CACHE=0 (the cache then stays unbound and their lookups
  // miss). `shapes` are the graph's inferred shapes (Graph::InferShapes,
  // indexed by node id). Call after all graph passes have run and the
  // initializers are frozen.
  void Bind(const graph::Graph& graph, const std::vector<tensor::Shape>& shapes,
            GemmBackend backend, ConvAlgo algo);

  // Hot-path lookups by node id. For a node with a packed operand,
  // returns it and counts pack.hits, or returns nullptr and counts
  // pack.misses when the cache is unbound or disabled. Any other node
  // returns nullptr uncounted.
  const PackedGemmB* FindGemm(graph::NodeId node) const;
  const PackedConvWeight* FindConv(graph::NodeId node) const;

  bool bound() const { return bound_; }
  // Operands held: 0 while unbound.
  size_t entries() const { return entries_; }
  size_t packed_bytes() const { return packed_bytes_; }

  // MVTEE_PACK_CACHE via the strict knob table (default on).
  static bool EnabledFromEnv();

 private:
  struct Entry {
    bool packable = false;  // the node's hot path reads a packed operand
    PackedGemmB gemm;
    PackedConvWeight conv;
  };

  template <typename T>
  const T* Serve(graph::NodeId node, T Entry::*operand) const;

  bool bound_ = false;
  std::vector<Entry> nodes_;
  size_t entries_ = 0;
  size_t packed_bytes_ = 0;
};

// True when lookups may serve cached entries: the env knob allows it
// and no ScopedDisablePackCache is live.
bool PackCacheEnabled();

// RAII test/bench hook: forces cache-off lookups process-wide while
// live, as if MVTEE_PACK_CACHE=0 had been set (bound caches keep their
// storage; they just stop serving). Not reentrancy-counted — do not
// nest. Mirrors util::ScopedForceScalar.
class ScopedDisablePackCache {
 public:
  ScopedDisablePackCache();
  ~ScopedDisablePackCache();
  ScopedDisablePackCache(const ScopedDisablePackCache&) = delete;
  ScopedDisablePackCache& operator=(const ScopedDisablePackCache&) = delete;
};

}  // namespace mvtee::runtime
