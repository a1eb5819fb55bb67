// Offline ML MVX tool (paper §5.1, Figure 2 steps 1-2).
//
// Partitions the model, generates the diversified variant pool, creates
// variant-specific keys, and writes each variant's second-stage
// manifest, spec and stage graph into host storage in encrypted form.
// The returned bundle is what the model owner holds: the routing wiring
// plus per-variant keys and expected manifest hashes — everything the
// monitor needs for attestable initialization.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "crypto/rand.h"
#include "graph/ir.h"
#include "partition/partition.h"
#include "tee/manifest.h"
#include "tee/sealed_fs.h"
#include "tensor/tensor.h"
#include "util/status.h"
#include "variant/spec.h"

namespace mvtee::core {

struct OfflineOptions {
  int64_t num_partitions = 5;
  uint64_t partition_seed = 0;
  int partition_trials = 3;  // best-of random contraction
  variant::PoolConfig pool;
  // Deterministic key generation seed for reproducible experiments;
  // 0 = draw from the global random source.
  uint64_t key_seed = 0;
};

struct OfflineVariantEntry {
  std::string variant_id;  // "s<stage>.v<index>"
  int32_t stage = 0;
  util::Bytes variant_key;                 // key-derivation key
  crypto::Sha256Digest manifest_hash{};    // expected second-stage manifest
  std::string runtime_name;                // for reporting
};

// Paths inside the protected store for a variant's private files.
std::string VariantManifestPath(const std::string& variant_id);
std::string VariantSpecPath(const std::string& variant_id);
std::string VariantGraphPath(const std::string& variant_id);

struct OfflineBundle {
  // Stage wiring the monitor routes tensors by.
  int64_t num_stages = 0;
  // Shape of each model input, in input order: admission answers a
  // request that does not match them before it reaches a variant.
  std::vector<tensor::Shape> model_input_shapes;
  std::vector<std::vector<partition::StageInputSource>> stage_inputs;
  std::vector<partition::StageInputSource> model_outputs;
  partition::PartitionSet partition_set;

  std::vector<OfflineVariantEntry> variants;
  std::shared_ptr<tee::ProtectedStore> store;

  // All variant ids available for a stage (the monitor's selection
  // domain).
  std::vector<std::string> StageVariantIds(int32_t stage) const;
  const OfflineVariantEntry* FindVariant(const std::string& id) const;

  // Owner-side configuration payload (wiring + variant entries incl.
  // keys, WITHOUT the encrypted store — that stays on host storage).
  // This is what the model owner provisions to the monitor over the
  // attested channel (Fig. 6 step 3).
  util::Bytes SerializeConfig() const;
  // Reconstructs a bundle from a provisioned config; `store` must be
  // attached separately (the monitor never holds it — variants read it
  // through the host).
  static util::Result<OfflineBundle> DeserializeConfig(util::ByteSpan data);

  // Key rotation (§6.5): re-encrypts one variant's sealed files under a
  // fresh variant key drawn from `random`. Running variants are
  // unaffected (they hold decrypted state); future (re)initializations
  // must use the rotated bundle.
  util::Status RotateVariantKey(const std::string& variant_id,
                                crypto::RandomSource& random);
};

util::Result<OfflineBundle> RunOfflineTool(const graph::Graph& model,
                                           const OfflineOptions& options);

}  // namespace mvtee::core
